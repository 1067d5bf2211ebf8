// Live connectivity events over the wire: the client-side face of
// CmdSubscribeEvents.
//
// A subscription owns a dedicated connection (the stream owns the write
// side for its lifetime, exactly like replication subscriptions), delivers
// events in the order the server's epoch pipeline committed them, and never
// blocks the server: a subscriber that falls behind has events dropped
// server-side and receives one EventGap marker when it catches up — see
// internal/pubsub for the delivery contract.
package client

import (
	"bufio"
	"fmt"
	"net"
	"sync"

	conn "repro"
	"repro/internal/wire"
)

// EventKind labels one connectivity event. Values match internal/pubsub's
// Kind enum, which is what the server speaks on the wire.
type EventKind uint8

const (
	// EventHello acknowledges the subscription; always the first event.
	EventHello EventKind = iota
	// EventMerge: components merged into the component labelled Label;
	// Others holds the labels of the components absorbed into it.
	EventMerge
	// EventSplit: the component labelled Label split; Others holds the
	// labels of all resulting fragments, Label's own surviving fragment
	// included when it persists.
	EventSplit
	// EventPairConnected: watched pair {U, V} became connected.
	EventPairConnected
	// EventPairDisconnected: watched pair {U, V} became disconnected.
	EventPairDisconnected
	// EventGap: the subscriber's buffer overflowed and at least one event
	// was dropped; component/pair state should be re-read, not inferred.
	EventGap
)

func (k EventKind) String() string {
	switch k {
	case EventHello:
		return "hello"
	case EventMerge:
		return "merge"
	case EventSplit:
		return "split"
	case EventPairConnected:
		return "pair-connected"
	case EventPairDisconnected:
		return "pair-disconnected"
	case EventGap:
		return "gap"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one connectivity event. Epoch is the hub's transition counter
// and Seq the durable WAL position of the transition's epoch (zero on
// memory-only namespaces); Label/U/V/Others are populated per kind as
// documented on the EventKind constants. A sharded namespace publishes no
// events: the server refuses its subscriptions as a bad request.
type Event struct {
	Kind   EventKind
	Epoch  uint64
	Seq    uint64
	Label  int32
	U, V   int32
	Others []int32
}

// EventSub is a live event subscription. Receive from C until it closes,
// then consult Err: nil means Close was called, anything else is why the
// stream ended. Close is idempotent and safe to call concurrently with
// receives.
type EventSub struct {
	nc     net.Conn
	events chan Event

	mu     sync.Mutex
	err    error
	closed bool
}

// C returns the event channel. It closes when the subscription ends.
func (s *EventSub) C() <-chan Event { return s.events }

// Err reports why the stream ended; call after C closes. nil after a local
// Close, the transport or server error otherwise.
func (s *EventSub) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	return s.err
}

// Close terminates the subscription and its connection.
func (s *EventSub) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	return s.nc.Close()
}

func (s *EventSub) setErr(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
}

// SubscribeEvents opens a live connectivity-event subscription against the
// namespace. comps subscribes to component merge/split events; each watch
// pair subscribes to that pair's connected/disconnected transitions (at
// least one of the two must be requested). The stream begins with an
// EventHello acknowledging the subscription — consumed here, so when
// SubscribeEvents returns, every event on C reflects a transition that
// committed after the subscription was live.
func (ns *Namespace) SubscribeEvents(comps bool, watch []conn.Edge) (*EventSub, error) {
	if ns.c.closed.Load() {
		return nil, ErrClosed
	}
	pairs := make([]wire.Pair, len(watch))
	for i, w := range watch {
		pairs[i] = wire.Pair{U: w.U, V: w.V}
	}
	req := &wire.Request{ID: 1, Cmd: wire.CmdSubscribeEvents, NS: ns.name,
		Comps: comps, Pairs: pairs}
	payload, err := wire.EncodeRequest(req)
	if err != nil {
		return nil, err
	}
	nc, err := net.DialTimeout("tcp", ns.c.addr, ns.c.opts.dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", ns.c.addr, err)
	}
	bw := bufio.NewWriterSize(nc, 1<<12)
	if err := wire.WriteFrame(bw, payload); err == nil {
		err = bw.Flush()
	}
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("client: subscribe: %w", err)
	}
	br := bufio.NewReaderSize(nc, 1<<16)
	resp, err := readEventFrame(br)
	if err != nil {
		nc.Close()
		return nil, err
	}
	if resp.Event.Kind != uint8(EventHello) {
		nc.Close()
		return nil, fmt.Errorf("client: subscription opened with %s, want hello",
			EventKind(resp.Event.Kind))
	}
	s := &EventSub{nc: nc, events: make(chan Event)}
	go s.readLoop(br)
	return s, nil
}

// readEventFrame reads one stream frame and requires an OK event body.
func readEventFrame(br *bufio.Reader) (*wire.Response, error) {
	payload, err := wire.ReadFrame(br)
	if err != nil {
		return nil, fmt.Errorf("client: event stream: %w", err)
	}
	resp, err := wire.DecodeResponse(payload)
	if err != nil {
		return nil, err
	}
	if resp.Status != wire.StatusOK {
		return nil, statusErr(resp)
	}
	if resp.Event == nil {
		return nil, fmt.Errorf("client: event stream carried a non-event body")
	}
	return resp, nil
}

// readLoop pumps stream frames into the event channel. The send blocks when
// the consumer is slow — backpressure lands on the TCP window, and overflow
// is handled server-side (drop + gap), never here.
func (s *EventSub) readLoop(br *bufio.Reader) {
	defer close(s.events)
	for {
		resp, err := readEventFrame(br)
		if err != nil {
			s.setErr(err)
			return
		}
		e := resp.Event
		s.events <- Event{Kind: EventKind(e.Kind), Epoch: e.Epoch, Seq: e.Seq,
			Label: e.Label, U: e.U, V: e.V, Others: e.Others}
	}
}
