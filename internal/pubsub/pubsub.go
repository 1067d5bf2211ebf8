// Package pubsub is the connectivity-event hub: it turns the snapshot
// differ's labelling transitions (snapshot.Diff — exactly the epochs that
// changed the partition) into a stream of typed events — component merges,
// component splits, and watched-pair connected/disconnected flips — and
// fans them out to subscribers.
//
// # Delivery model
//
// Feed runs on the engine dispatcher (it is the engine's diff-subscriber
// callback), so it must never block: each subscriber owns a buffered
// channel, and an event that does not fit is dropped, counted, and replaced
// by a single KindGap event delivered as soon as the buffer drains —
// modeled on internal/repl's Hub, whose lagging followers are likewise
// never allowed to stall the write pipeline. A consumer that sees KindGap
// knows its view has a hole and must resynchronize from the read tier
// before trusting incremental state again.
//
// # Ordering
//
// Events of one transition are delivered contiguously and in deterministic
// order (merges by surviving label, then splits by splitting label, then
// pair flips in the subscriber's watch order), and transitions are
// delivered in epoch order — Feed is dispatcher-only, so transitions are
// naturally serialized. Events carry the publish epoch of the labelling
// after the transition and the epoch's durable WAL seq (zero without
// durability, and on sharded namespaces where the composed labelling has
// no single WAL position).
package pubsub

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/snapshot"
)

// Kind classifies one connectivity event.
type Kind uint8

const (
	// KindHello opens a remote event stream: it carries the epoch (and,
	// when meaningful, seq) of the labelling the stream's first transition
	// will be diffed against, so a subscriber can take a baseline read and
	// know exactly where incremental updates begin. The hub itself never
	// emits it; the server does, once, at subscribe time.
	KindHello Kind = iota
	// KindMerge: components Others merged into the component now labelled
	// Label (the minimum-vertex label of the union).
	KindMerge
	// KindSplit: the component labelled Label split; Others are the labels
	// of the resulting fragments (including Label itself when the fragment
	// containing the minimum vertex persists).
	KindSplit
	// KindPairConnected: the watched pair (U, V) became connected.
	KindPairConnected
	// KindPairDisconnected: the watched pair (U, V) became disconnected.
	KindPairDisconnected
	// KindGap: the subscriber's buffer overflowed and at least one event
	// was dropped; incremental state must be resynchronized.
	KindGap
)

// String names the kind for logs and CLI output.
func (k Kind) String() string {
	switch k {
	case KindHello:
		return "hello"
	case KindMerge:
		return "merge"
	case KindSplit:
		return "split"
	case KindPairConnected:
		return "connected"
	case KindPairDisconnected:
		return "disconnected"
	case KindGap:
		return "gap"
	default:
		return "unknown"
	}
}

// Event is one connectivity event. Label/Others are component labels
// (minimum vertex ids) for merge/split; U/V are the watched endpoints for
// pair events. Others is shared across subscribers and must not be mutated.
type Event struct {
	Kind   Kind
	Epoch  uint64 // publish counter of the labelling after the transition
	Seq    uint64 // durable WAL seq of the transition's epoch; 0 if unknown
	Label  int32
	U, V   int32
	Others []int32
}

// Pair is a watched vertex pair for connected/disconnected subscriptions.
type Pair struct{ U, V int32 }

// Derive decomposes one labelling transition into its component events.
// Labels are canonical minimum-vertex ids, which makes the decomposition
// exact with no extra state:
//
//   - a current label m absorbed an old component a iff some changed vertex
//     moved a→m; m itself is an origin too when it was already a label
//     before (prev[m] == m — vertex m, the minimum, always carries its own
//     component's label). Two or more origins ⇒ merge.
//   - an old label a fragmented iff its changed vertices now carry two or
//     more labels, or some moved away while the fragment holding vertex a
//     kept the label (cur[a] == a — possible with zero changed vertices in
//     that fragment, so survival is tested on the labelling, never on the
//     changed list). Two or more destinations ⇒ split.
//
// A same-epoch split-then-merge decomposes into one split and one merge.
// Events are ordered merges-then-splits, each ascending by label, so equal
// transitions derive equal streams (the differential oracle relies on it).
func Derive(d *snapshot.Diff, seq uint64) []Event {
	if d == nil || len(d.Changed) == 0 {
		return nil
	}
	epoch := d.Cur.Epoch()
	origins := make(map[int32]map[int32]struct{})
	dests := make(map[int32]map[int32]struct{})
	add := func(m map[int32]map[int32]struct{}, k, v int32) {
		s := m[k]
		if s == nil {
			s = make(map[int32]struct{}, 2)
			m[k] = s
		}
		s[v] = struct{}{}
	}
	for _, v := range d.Changed {
		old, now := d.Prev.Label(v), d.Cur.Label(v)
		add(origins, now, old)
		add(dests, old, now)
	}
	var out []Event
	for m, o := range origins {
		if d.Prev.Label(m) == m {
			o[m] = struct{}{}
		}
		if len(o) < 2 {
			continue
		}
		others := make([]int32, 0, len(o)-1)
		for a := range o {
			if a != m {
				others = append(others, a)
			}
		}
		sort.Slice(others, func(i, j int) bool { return others[i] < others[j] })
		out = append(out, Event{Kind: KindMerge, Epoch: epoch, Seq: seq, Label: m, Others: others})
	}
	for a, ds := range dests {
		if d.Cur.Label(a) == a {
			ds[a] = struct{}{}
		}
		if len(ds) < 2 {
			continue
		}
		frags := make([]int32, 0, len(ds))
		for b := range ds {
			frags = append(frags, b)
		}
		sort.Slice(frags, func(i, j int) bool { return frags[i] < frags[j] })
		out = append(out, Event{Kind: KindSplit, Epoch: epoch, Seq: seq, Label: a, Others: frags})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Label < out[j].Label
	})
	return out
}

// SubscriberBuffer is the per-subscriber channel capacity. A variable so
// tests can shrink it to force overflow.
var SubscriberBuffer = 256

// Sub is one subscription. Receive events from C; Done is closed when the
// subscription ends (Cancel, or hub Close). The channel is never closed —
// select on Done to terminate.
type Sub struct {
	ch    chan Event
	done  chan struct{}
	pairs []Pair
	comps bool
	// gapped is set (under the hub lock) when a delivery was dropped; the
	// next Feed retries a single KindGap event before anything newer.
	gapped bool
}

// C returns the event channel.
func (s *Sub) C() <-chan Event { return s.ch }

// Done is closed when the subscription is cancelled or the hub closes.
func (s *Sub) Done() <-chan struct{} { return s.done }

// Hub fans labelling transitions out to subscribers as events.
type Hub struct {
	mu     sync.Mutex
	subs   map[*Sub]struct{}
	closed bool

	delivered atomic.Int64
	dropped   atomic.Int64
}

// NewHub returns an empty hub.
func NewHub() *Hub { return &Hub{subs: make(map[*Sub]struct{})} }

// Subscribe registers a subscriber. comps selects component merge/split
// events; pairs lists vertex pairs whose connected/disconnected flips to
// watch (the slice is retained; callers must not mutate it). Returns nil
// after Close.
func (h *Hub) Subscribe(comps bool, pairs []Pair) *Sub {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil
	}
	s := &Sub{
		ch:    make(chan Event, SubscriberBuffer),
		done:  make(chan struct{}),
		pairs: pairs,
		comps: comps,
	}
	h.subs[s] = struct{}{}
	return s
}

// Cancel removes the subscription and closes its Done channel. Idempotent.
func (h *Hub) Cancel(s *Sub) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.subs[s]; ok {
		delete(h.subs, s)
		close(s.done)
	}
}

// Feed incorporates one labelling transition: derives its component events
// once, evaluates each subscriber's watched pairs against the before/after
// labellings, and delivers without ever blocking — an event that does not
// fit a subscriber's buffer is dropped and counted, and the subscriber is
// owed a single KindGap. Runs on the engine dispatcher via the diff
// subscription.
//
//conn:dispatcher-only
func (h *Hub) Feed(seq uint64, d *snapshot.Diff) {
	if d == nil || len(d.Changed) == 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed || len(h.subs) == 0 {
		return
	}
	var comp []Event
	derived := false
	epoch := d.Cur.Epoch()
	for s := range h.subs {
		if s.gapped {
			// One gap marker stands for any number of dropped events; it
			// must precede everything newer or the hole would be invisible.
			select {
			case s.ch <- Event{Kind: KindGap, Epoch: epoch, Seq: seq}:
				s.gapped = false
				h.delivered.Add(1)
			default:
				h.dropped.Add(int64(h.pending(s, d, &comp, &derived, seq)))
				continue
			}
		}
		if s.comps {
			if !derived {
				comp = Derive(d, seq)
				derived = true
			}
			for _, ev := range comp {
				h.send(s, ev)
			}
		}
		for _, p := range s.pairs {
			before := d.Prev.Connected(p.U, p.V)
			after := d.Cur.Connected(p.U, p.V)
			if before == after {
				continue
			}
			k := KindPairDisconnected
			if after {
				k = KindPairConnected
			}
			h.send(s, Event{Kind: k, Epoch: epoch, Seq: seq, U: p.U, V: p.V})
		}
	}
}

// pending counts the events this transition owes subscriber s — used to
// account drops when even the gap marker does not fit.
func (h *Hub) pending(s *Sub, d *snapshot.Diff, comp *[]Event, derived *bool, seq uint64) int {
	n := 0
	if s.comps {
		if !*derived {
			*comp = Derive(d, seq)
			*derived = true
		}
		n += len(*comp)
	}
	for _, p := range s.pairs {
		if d.Prev.Connected(p.U, p.V) != d.Cur.Connected(p.U, p.V) {
			n++
		}
	}
	return n
}

// send delivers one event to one subscriber, never blocking. Caller holds
// h.mu, which is what makes drop-marking race-free against Cancel.
func (h *Hub) send(s *Sub, ev Event) {
	select {
	case s.ch <- ev:
		h.delivered.Add(1)
	default:
		s.gapped = true
		h.dropped.Add(1)
	}
}

// Stats reports the live subscriber count and cumulative delivered/dropped
// event counters (conncli stats surfaces these next to the repl block).
func (h *Hub) Stats() (subscribers int, delivered, dropped int64) {
	h.mu.Lock()
	n := len(h.subs)
	h.mu.Unlock()
	return n, h.delivered.Load(), h.dropped.Load()
}

// Close cancels every subscription and rejects future ones. Idempotent.
func (h *Hub) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for s := range h.subs {
		delete(h.subs, s)
		close(s.done)
	}
}
