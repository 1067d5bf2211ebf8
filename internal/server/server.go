// Package server hosts multiple named connectivity graphs behind a TCP
// front-end speaking the internal/wire protocol. It is the network layer the
// batch-parallel structure has been waiting for: each namespace owns its own
// epoch pipeline (internal/engine), every connection may keep many frames in
// flight (one goroutine per in-flight request), and all of those blocked
// requests coalesce into the large epochs Theorem 1 rewards — network
// concurrency translates directly into batch size.
//
// Namespace lifecycle: Create opens a backend — one engine, or a
// shard.Coordinator over k+1 engines (durable namespaces live under
// <data>/<name>/ and survive restarts — New restores every directory it
// finds); Drop quiesces the backend and, for durable namespaces, deletes the
// directory. Shutdown is the graceful drain: stop accepting, let every
// already-received request commit and answer, then flush and checkpoint each
// durable namespace before closing its backend.
package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/coalesce"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/pubsub"
	"repro/internal/query"
	"repro/internal/repl"
	"repro/internal/shard"
	"repro/internal/wire"
)

// maxShards bounds a namespace's partition count: beyond this, per-shard
// dispatcher goroutines and fsync streams stop buying anything.
const maxShards = 256

// Options configures a Server. The zero value is a memory-only, unsharded
// server.
type Options struct {
	// DataDir, when non-empty, enables durable namespaces: namespace <ns>
	// keeps its WAL and checkpoints under DataDir/<ns>/, and New restores
	// every namespace directory found there.
	DataDir string

	// DefaultShards, when >= 2, hash-partitions every namespace created
	// without an explicit shard count across that many engines (the -shards
	// flag on connserver). A CmdCreate carrying its own shard count always
	// wins; 0 or 1 means unsharded.
	DefaultShards int

	// ReplicaOf, when non-empty, starts the server as a read-only replica
	// of the primary connserver at that address: every durable namespace on
	// the primary is followed via its epoch stream (see internal/repl) and
	// served locally through the read tiers; mutating requests are rejected
	// with a redirect to the primary. Replica mode is memory-only —
	// combining it with DataDir is an error.
	ReplicaOf string

	// Logf, when non-nil, receives one line per server-lifecycle event
	// (namespace restored, drain progress). Request traffic is not logged.
	Logf func(format string, args ...any)
}

// Server is a multi-namespace connectivity server. Construct with New,
// start with Serve (or ListenAndServe), stop with Shutdown.
type Server struct {
	opts Options

	mu         sync.RWMutex // guards namespaces
	namespaces map[string]*namespace

	ln       net.Listener
	lnMu     sync.Mutex
	draining atomic.Bool
	connMu   sync.Mutex
	conns    map[net.Conn]struct{}
	subConns map[net.Conn]struct{} // conns owned by a subscription stream
	wg       sync.WaitGroup        // live connection handlers

	replMgr *replicaManager // non-nil iff Options.ReplicaOf is set
}

// namespace is one named graph: its backend, plus the request-vs-drop
// guard. Requests hold mu.RLock while talking to be; Drop and Shutdown take
// mu.Lock, so a namespace is closed only when no request is mid-flight on it.
type namespace struct {
	name    string
	durable bool

	// readonly marks a replica-mode namespace: its state comes from the
	// primary's epoch stream, and mutating requests are redirected. The
	// follower's apply loop may swap be wholesale (snapshot catch-up), which
	// is why requests read it under mu like everything else.
	readonly bool
	// applied is the replica-side replication position: the seq of the last
	// epoch fully applied from the primary's stream.
	applied atomic.Uint64

	// hub, on a primary-side plain durable namespace, tees the engine's
	// committed epochs to subscribed followers and serves their catch-up
	// (internal/repl). Nil otherwise: memory-only and sharded namespaces do
	// not replicate.
	hub *repl.Hub

	// ehub fans connectivity events out to CmdSubscribeEvents streams on a
	// primary-side plain namespace. Nil on a sharded namespace, which
	// publishes no events, and on a replica, which redirects them.
	ehub *pubsub.Hub

	mu     sync.RWMutex
	closed bool
	be     backend
}

// newNamespace wraps a primary-side backend. A plain one gets an event hub
// fed by its engine's diff stream and, when durable, a replication hub
// rooted in the engine's directory. A sharded one gets neither.
func newNamespace(name, dir string, be backend) *namespace {
	ns := &namespace{name: name, durable: dir != "", be: be}
	if p, ok := be.(plain); ok {
		ns.ehub = pubsub.NewHub()
		// Feed runs on the dispatcher and never blocks; with no subscriber
		// it returns after one lock. The engine closes with the namespace,
		// so the cancel is not kept.
		p.SubscribeDiffs(ns.ehub.Feed) //conn:dispatcher-entry
		if ns.durable {
			ns.hub = repl.NewHub(p.Engine, p.Dir(), p.N())
		}
	}
	return ns
}

// seq returns the namespace's replication position for read responses: the
// last fully applied epoch — on a primary the backend's applied seq (which
// trails the WAL by at most the epoch being applied; zero for a sharded or
// memory-only namespace), on a replica the follower's applied seq. Sampled
// before a read it never exceeds the state the read reflects, the direction
// the client's staleness fence depends on. Callers hold ns.mu (either mode).
func (ns *namespace) seq() uint64 {
	if ns.readonly {
		return ns.applied.Load()
	}
	return ns.be.AppliedSeq()
}

// stopHubs ends every subscription stream on the namespace: the replication
// hub, and the event hub (which wakes event pumps via their Done channels).
func (ns *namespace) stopHubs() {
	if ns.hub != nil {
		ns.hub.Stop()
	}
	if ns.ehub != nil {
		ns.ehub.Close()
	}
}

// New builds a server and, if opts.DataDir is set, restores every durable
// namespace directory found there.
func New(opts Options) (*Server, error) {
	s := &Server{
		opts:       opts,
		namespaces: make(map[string]*namespace),
		conns:      make(map[net.Conn]struct{}),
		subConns:   make(map[net.Conn]struct{}),
	}
	if opts.ReplicaOf != "" {
		if opts.DataDir != "" {
			return nil, errors.New("server: replica mode is memory-only; -replica-of excludes -data")
		}
		s.startReplication()
		return s, nil
	}
	if opts.DataDir != "" {
		if err := os.MkdirAll(opts.DataDir, 0o755); err != nil {
			return nil, fmt.Errorf("server: data dir: %w", err)
		}
		ents, err := os.ReadDir(opts.DataDir)
		if err != nil {
			return nil, fmt.Errorf("server: data dir: %w", err)
		}
		for _, e := range ents {
			if !e.IsDir() || !validName(e.Name()) {
				continue
			}
			name := e.Name()
			dir := filepath.Join(opts.DataDir, name)
			// A shard meta file marks a sharded namespace: restore every
			// shard engine (checkpoint + WAL tail each) under one coordinator.
			if k, n, found, err := shard.ReadMeta(dir); err != nil {
				return nil, fmt.Errorf("server: restore namespace %q: %w", name, err)
			} else if found {
				coord, err := shard.New(n, k, shard.Options{DurDir: dir})
				if err != nil {
					return nil, fmt.Errorf("server: restore namespace %q: %w", name, err)
				}
				s.namespaces[name] = newNamespace(name, dir, sharded{coord, dir})
				s.logf("restored sharded namespace %q (n=%d, %d shards)", name, n, k)
				continue
			}
			c, err := engine.Restore(dir, func(n int) *core.Conn { return core.New(n) })
			if errors.Is(err, engine.ErrNoDurableState) {
				continue // empty leftover directory; nothing to serve
			}
			if err != nil {
				return nil, fmt.Errorf("server: restore namespace %q: %w", name, err)
			}
			edges := c.NumEdges()
			e, err := engine.New(c, engine.Options{DurDir: dir})
			if err != nil {
				return nil, fmt.Errorf("server: namespace %q: %w", name, err)
			}
			s.namespaces[name] = newNamespace(name, dir, plain{e})
			s.logf("restored namespace %q (n=%d, %d edges)", name, c.N(), edges)
		}
	}
	return s, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// validName reports whether a namespace name is acceptable: 1..128 bytes of
// [a-zA-Z0-9._-], not starting with '.' — safe as a directory name and free
// of path separators.
func validName(name string) bool {
	if len(name) == 0 || len(name) > 128 || name[0] == '.' {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// ListenAndServe listens on addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Addr returns the listener's address, or nil before Serve.
func (s *Server) Addr() net.Addr {
	s.lnMu.Lock()
	defer s.lnMu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Serve accepts connections on ln until Shutdown closes it. It returns nil
// after a Shutdown-initiated stop, or the accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.lnMu.Lock()
	s.ln = ln
	s.lnMu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return err
		}
		if flt := chaos.Inject(chaos.SiteServerAccept); flt != nil {
			if flt.Action == chaos.ActDelay {
				flt.Sleep() // accept latency: queued dials wait it out
			} else {
				c.Close() // connection reset before a single frame is read
				continue
			}
		}
		s.connMu.Lock()
		// The draining check, registration, and wg.Add share the registry
		// lock: Shutdown sets draining before sweeping the registry under
		// this lock, so a conn that observes !draining here is registered
		// and counted before the sweep and the wg.Wait that follows it.
		if s.draining.Load() {
			s.connMu.Unlock()
			c.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.connMu.Unlock()
		go s.handleConn(c)
	}
}

// Shutdown is the graceful drain: stop accepting, nudge every connection's
// read loop to stop at the next frame boundary, wait until each in-flight
// request has committed and its response has been written, then flush and
// checkpoint every durable namespace and quiesce all backends. Safe to call
// once; subsequent calls return immediately.
func (s *Server) Shutdown() {
	if s.draining.Swap(true) {
		return
	}
	s.lnMu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	s.lnMu.Unlock()
	// Wake blocked readers without tearing down the connections: in-flight
	// requests still need their responses written.
	s.connMu.Lock()
	for c := range s.conns {
		c.SetReadDeadline(time.Now())
	}
	s.connMu.Unlock()
	// Replication winds down before the connection wait: follower loops
	// (replica mode) must finish their in-flight apply before backends
	// close, and stopping the hubs terminates subscription streams, whose
	// pump goroutines the connection handlers are waiting on.
	if s.replMgr != nil {
		s.replMgr.stopAll()
	}
	s.mu.RLock()
	for _, ns := range s.namespaces {
		ns.stopHubs()
	}
	s.mu.RUnlock()
	// Sever subscription connections outright: their pumps are the one
	// place a handler can sit in a blocking TCP write to a peer that
	// stopped reading, and the read deadline above cannot wake those.
	// Ordinary in-flight responses are unaffected — only stream conns are
	// registered here.
	s.connMu.Lock()
	for c := range s.subConns {
		c.Close()
	}
	s.connMu.Unlock()
	s.wg.Wait()
	s.logf("connections drained")

	s.mu.Lock()
	defer s.mu.Unlock()
	for name, ns := range s.namespaces {
		ns.mu.Lock()
		ns.closed = true
		ns.mu.Unlock()
		ns.be.Flush()
		if ns.durable {
			if _, err := ns.be.Checkpoint(); err != nil {
				s.logf("drain checkpoint of %q failed: %v", name, err)
			} else {
				s.logf("namespace %q checkpointed", name)
			}
		}
		if err := ns.be.Close(); err != nil {
			s.logf("closing namespace %q: %v", name, err)
		}
	}
}

// connIO is a connection's buffered read and write halves.
type connIO struct {
	br *bufio.Reader
	bw *bufio.Writer
}

func newConnReader(c net.Conn) *connIO {
	return &connIO{
		br: bufio.NewReaderSize(c, 1<<16),
		bw: bufio.NewWriterSize(c, 1<<16),
	}
}

// handleConn reads frames, dispatching each request to its own goroutine so
// a pipelined client's frames block in the engine concurrently — that is
// what coalesces them into one epoch. Responses are written as they
// complete, matched by request id, serialized by a per-connection lock.
func (s *Server) handleConn(c net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.connMu.Lock()
		delete(s.conns, c)
		s.connMu.Unlock()
		c.Close()
	}()
	r := newConnReader(c)
	var (
		wmu   sync.Mutex
		reqWG sync.WaitGroup
	)
	write := func(resp *wire.Response) error {
		if flt := chaos.Inject(chaos.SiteServerConnWrite); flt != nil {
			if flt.Action == chaos.ActDelay {
				flt.Sleep() // response latency
			} else {
				// Reset under the response: the operation committed but the
				// acknowledgement is lost — the client sees a transport
				// error and must treat the outcome as unknown.
				c.Close()
				return flt.Err()
			}
		}
		payload, err := wire.EncodeResponse(resp)
		if err != nil {
			return nil // response of our own making failed to encode: drop it
		}
		wmu.Lock()
		defer wmu.Unlock()
		// Serialized writes, flushed per response: a pipelined client is
		// already decoupled from per-response latency.
		if err := wire.WriteFrame(r.bw, payload); err != nil {
			return err
		}
		return r.bw.Flush()
	}
	for {
		payload, err := wire.ReadFrame(r.br)
		if err != nil {
			break // EOF, drain deadline, or framing loss: stop reading
		}
		req, err := wire.DecodeRequest(payload)
		if err != nil {
			break // framing is fine but the peer is speaking garbage
		}
		if flt := chaos.Inject(chaos.SiteServerConnRead); flt != nil {
			if flt.Action == chaos.ActDelay {
				flt.Sleep() // request latency before dispatch
			} else {
				break // reset mid-request: in-flight responses still drain
			}
		}
		if s.draining.Load() {
			write(&wire.Response{ID: req.ID, Status: wire.StatusDraining,
				Msg: "server is draining"})
			continue
		}
		if req.Cmd == wire.CmdSubscribe || req.Cmd == wire.CmdSubscribeEvents {
			// A subscription owns the connection's write side for its
			// lifetime (frames from other pipelined requests still
			// interleave safely, but the stream ends by closing the
			// connection) — followers dial a dedicated connection per
			// subscription. The conn is registered so Shutdown can sever a
			// pump blocked in a TCP write to a stalled follower; the drain
			// must never wait on a peer that stopped reading.
			s.connMu.Lock()
			s.subConns[c] = struct{}{}
			s.connMu.Unlock()
			reqWG.Add(1)
			go func() {
				defer reqWG.Done()
				if req.Cmd == wire.CmdSubscribe {
					s.subscribe(req, write)
				} else {
					s.subscribeEvents(req, write)
				}
				s.connMu.Lock()
				delete(s.subConns, c)
				s.connMu.Unlock()
				c.Close()
			}()
			continue
		}
		reqWG.Add(1)
		go func() {
			defer reqWG.Done()
			write(s.handle(req))
		}()
	}
	reqWG.Wait()
	wmu.Lock()
	r.bw.Flush()
	wmu.Unlock()
}

// subscribe serves one epoch-stream subscription: resolve the namespace's
// hub and pump its stream through the connection until the stream ends
// (follower gone, hub stopped, follower lagging). It runs on the request's
// goroutine; the caller closes the connection when it returns.
func (s *Server) subscribe(req *wire.Request, write func(*wire.Response) error) {
	fail := func(st wire.Status, format string, args ...any) *wire.Response {
		return &wire.Response{ID: req.ID, Status: st, Msg: fmt.Sprintf(format, args...)}
	}
	if s.opts.ReplicaOf != "" {
		write(fail(wire.StatusReadOnly, "%s", s.opts.ReplicaOf))
		return
	}
	ns, resp := s.lookup(req, fail)
	if resp != nil {
		write(resp)
		return
	}
	ns.mu.RLock()
	closed, hub := ns.closed, ns.hub
	_, isSharded := ns.be.(sharded)
	ns.mu.RUnlock()
	switch {
	case closed:
		write(fail(wire.StatusNotFound, "namespace %q: dropped", req.NS))
		return
	case isSharded:
		write(fail(wire.StatusBadRequest,
			"namespace %q is sharded; sharded namespaces do not replicate", req.NS))
		return
	case hub == nil:
		write(fail(wire.StatusBadRequest,
			"namespace %q is not durable; only durable namespaces replicate", req.NS))
		return
	case req.Shards != 0:
		write(fail(wire.StatusBadRequest,
			"namespace %q: engine selector %d on a subscription must be 0", req.NS, req.Shards))
		return
	}
	// The stream deliberately runs outside the namespace read-lock: Drop
	// and Shutdown stop the hub first, which terminates this pump before
	// the backend closes.
	err := hub.Stream(req.FromSeq, func(f repl.Frame) error {
		return write(&wire.Response{ID: req.ID, Snapshot: f.Snapshot, EpochRaw: f.EpochRaw})
	})
	if err != nil {
		// Best effort: tell a still-connected follower why the stream ended
		// (a lagging follower reconnects into catch-up).
		write(fail(wire.StatusInternal, "subscription ended: %v", err))
	}
}

// subscribeEvents serves one CmdSubscribeEvents stream: register the
// subscriber with the namespace's event hub, acknowledge with a hello
// event, then pump the subscriber's buffer into the connection until the
// peer goes away or the namespace does. It runs on the request's goroutine;
// the caller closes the connection when it returns.
func (s *Server) subscribeEvents(req *wire.Request, write func(*wire.Response) error) {
	fail := func(st wire.Status, format string, args ...any) *wire.Response {
		return &wire.Response{ID: req.ID, Status: st, Msg: fmt.Sprintf(format, args...)}
	}
	if s.opts.ReplicaOf != "" {
		// A replica's follower may swap its whole graph during snapshot
		// catch-up — a labelling jump, not a stream of events. Events come
		// from the primary, whose epoch pipeline totally orders them.
		write(fail(wire.StatusReadOnly, "%s", s.opts.ReplicaOf))
		return
	}
	ns, resp := s.lookup(req, fail)
	if resp != nil {
		write(resp)
		return
	}
	ns.mu.RLock()
	closed, n := ns.closed, int32(ns.be.N())
	ns.mu.RUnlock()
	switch {
	case closed:
		write(fail(wire.StatusNotFound, "namespace %q: dropped", req.NS))
		return
	case ns.ehub == nil: // on a primary, only a sharded namespace has none
		write(fail(wire.StatusBadRequest,
			"namespace %q is sharded; sharded namespaces publish no connectivity events", req.NS))
		return
	}
	if !req.Comps && len(req.Pairs) == 0 {
		write(fail(wire.StatusBadRequest,
			"event subscription names no component events and no watch pairs"))
		return
	}
	pairs := make([]pubsub.Pair, len(req.Pairs))
	for i, p := range req.Pairs {
		if p.U < 0 || p.U >= n || p.V < 0 || p.V >= n {
			write(fail(wire.StatusBadRequest,
				"watch pair {%d, %d} out of range [0, %d)", p.U, p.V, n))
			return
		}
		pairs[i] = pubsub.Pair{U: p.U, V: p.V}
	}
	sub := ns.ehub.Subscribe(req.Comps, pairs)
	if sub == nil {
		write(fail(wire.StatusNotFound, "namespace %q: dropped", req.NS))
		return
	}
	defer ns.ehub.Cancel(sub)
	// Hello first: it acknowledges the subscription, and every event that
	// follows reflects a transition that committed after it was sent.
	if write(&wire.Response{ID: req.ID,
		Event: &wire.EventBody{Kind: uint8(pubsub.KindHello)}}) != nil {
		return
	}
	for {
		select {
		case ev := <-sub.C():
			if write(eventResponse(req.ID, ev)) != nil {
				return
			}
		case <-sub.Done():
			// Hub closed: the namespace was dropped or the server is
			// draining. Best effort — the peer may already be gone.
			write(fail(wire.StatusNotFound, "namespace %q: dropped", req.NS))
			return
		}
	}
}

func eventResponse(id uint64, ev pubsub.Event) *wire.Response {
	return &wire.Response{ID: id, Event: &wire.EventBody{
		Kind: uint8(ev.Kind), Epoch: ev.Epoch, Seq: ev.Seq,
		Label: ev.Label, U: ev.U, V: ev.V, Others: ev.Others,
	}}
}

func queryResponse(id uint64, res query.Result) *wire.Response {
	return &wire.Response{ID: id, Query: &wire.QueryBody{
		Seq: res.Seq, Found: res.Found, Size: res.Size, Count: res.Count,
		Verts: res.Verts, Hist: res.Hist,
	}}
}

// handle executes one request. It runs on a per-request goroutine and may
// block for an epoch; returning the response is the acknowledgement.
func (s *Server) handle(req *wire.Request) *wire.Response {
	fail := func(st wire.Status, format string, args ...any) *wire.Response {
		return &wire.Response{ID: req.ID, Status: st, Msg: fmt.Sprintf(format, args...)}
	}
	switch req.Cmd {
	case wire.CmdPing:
		return &wire.Response{ID: req.ID}
	case wire.CmdCreate:
		if s.opts.ReplicaOf != "" {
			return fail(wire.StatusReadOnly, "%s", s.opts.ReplicaOf)
		}
		return s.create(req, fail)
	case wire.CmdDrop:
		if s.opts.ReplicaOf != "" {
			return fail(wire.StatusReadOnly, "%s", s.opts.ReplicaOf)
		}
		return s.drop(req, fail)
	case wire.CmdList:
		return s.list(req)
	}

	// Everything else targets an existing namespace. The read lock is held
	// across the whole operation: Drop/Shutdown close a backend only under
	// the write lock, so be is never closed mid-request.
	ns, resp := s.lookup(req, fail)
	if resp != nil {
		return resp
	}
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	if ns.closed {
		return fail(wire.StatusNotFound, "namespace %q: dropped", req.NS)
	}
	switch req.Cmd {
	case wire.CmdBatch:
		ops := make([]coalesce.Op, len(req.Ops))
		mutates := false
		for i, op := range req.Ops {
			ops[i] = coalesce.Op{Kind: coalesce.Kind(op.Kind), U: op.U, V: op.V}
			mutates = mutates || op.Kind != wire.KindQuery
		}
		if mutates && ns.readonly {
			// Typed redirect: the message IS the primary's address, which the
			// client package lifts into a RedirectError.
			return fail(wire.StatusReadOnly, "%s", s.opts.ReplicaOf)
		}
		// The whole frame is range-checked before any of it is staged: a
		// frame is one atomic group, so a bad pair rejects all of it.
		n := int32(ns.be.N())
		for _, op := range ops {
			if op.U < 0 || op.U >= n || op.V < 0 || op.V >= n {
				return fail(wire.StatusBadRequest, "vertex pair {%d, %d} out of range [0, %d)", op.U, op.V, n)
			}
		}
		// A replica's engine has no WAL, so its position is the applied
		// seq — sampled BEFORE executing: a reported seq must never exceed
		// the state the answer reflects, or it would defeat the client's
		// read-your-writes fence.
		seq := ns.seq()
		bits, epochSeq, err := ns.be.Apply(ops)
		if err != nil {
			return fail(wire.StatusBadRequest, "%v", err)
		}
		if bits == nil {
			bits = []bool{}
		}
		if !ns.readonly {
			// On a primary Apply is exact (the committed epoch's own seq),
			// which keeps a writer's fence free of later writers' epochs.
			seq = epochSeq
		}
		return &wire.Response{ID: req.ID, Bits: bits, Seq: seq}
	case wire.CmdReadNow, wire.CmdReadRecent:
		n := int32(ns.be.N())
		qs := make([]graph.Edge, len(req.Pairs))
		for i, p := range req.Pairs {
			if p.U < 0 || p.U >= n || p.V < 0 || p.V >= n {
				return fail(wire.StatusBadRequest,
					"vertex pair {%d, %d} out of range [0, %d)", p.U, p.V, n)
			}
			qs[i] = graph.Edge{U: p.U, V: p.V}
		}
		// Both commands read the committed tier (a sharded namespace's
		// composed labelling); they differ only in routing — clients pin
		// ReadNow to the primary. Position sampled BEFORE the read: the
		// answer may reflect a newer state than it claims (harmlessly
		// conservative), never an older one — the direction the client's
		// staleness fence depends on.
		seq := ns.seq()
		bits, err := ns.be.ReadBatch(qs)
		if err != nil {
			return fail(wire.StatusInternal, "%v", err)
		}
		if bits == nil {
			bits = []bool{}
		}
		return &wire.Response{ID: req.ID, Bits: bits, Seq: seq}
	case wire.CmdQuery:
		qreq := query.Request{Kind: query.Kind(req.QKind), Linearized: req.Linearized,
			U: req.U, V: req.V, K: req.K}
		if qreq.Linearized && ns.readonly {
			// A linearized query must observe every acknowledged write;
			// only the primary can promise that.
			return fail(wire.StatusReadOnly, "%s", s.opts.ReplicaOf)
		}
		// Replica position sampled BEFORE the read, like the read tiers: the
		// local engine's seq counts locally applied epochs, not primary
		// stream positions, so the follower's applied seq replaces it.
		seqBefore := ns.seq()
		res, err := ns.be.Query(qreq)
		if err != nil {
			return fail(wire.StatusBadRequest, "%v", err)
		}
		if ns.readonly {
			res.Seq = seqBefore
		}
		return queryResponse(req.ID, res)
	case wire.CmdStats:
		return &wire.Response{ID: req.ID, Stats: namespaceStats(ns)}
	case wire.CmdCheckpoint:
		if ns.readonly {
			return fail(wire.StatusReadOnly, "%s", s.opts.ReplicaOf)
		}
		if !ns.durable {
			return fail(wire.StatusBadRequest, "namespace %q is not durable", req.NS)
		}
		path, err := ns.be.Checkpoint()
		if err != nil {
			return fail(wire.StatusInternal, "checkpoint: %v", err)
		}
		return &wire.Response{ID: req.ID, Path: path}
	}
	return fail(wire.StatusBadRequest, "unknown command %d", req.Cmd)
}

func (s *Server) lookup(req *wire.Request, fail failFunc) (*namespace, *wire.Response) {
	s.mu.RLock()
	ns, ok := s.namespaces[req.NS]
	s.mu.RUnlock()
	if !ok {
		return nil, fail(wire.StatusNotFound, "namespace %q does not exist", req.NS)
	}
	return ns, nil
}

type failFunc func(st wire.Status, format string, args ...any) *wire.Response

// namespaceStats sums a namespace's pipeline counters over its engines and
// folds in its replication and event hubs. A sharded namespace also gets the
// per-engine breakdown (shards 0..k-1, then the boundary engine); a plain
// one has a single engine and no breakdown. Caller holds ns.mu.
func namespaceStats(ns *namespace) wire.Stats {
	ws := wire.Stats{AppliedSeq: ns.applied.Load()}
	engines := ns.be.Engines()
	for _, e := range engines {
		st := e.Stats()
		ws.Epochs += uint64(st.Epochs)
		ws.Ops += uint64(st.Ops)
		ws.MaxEpoch = max(ws.MaxEpoch, uint64(st.MaxEpoch))
		ws.SnapshotPublishes += uint64(st.SnapshotPublishes)
		ws.SnapshotRebuilds += uint64(st.SnapshotRebuilds)
		ws.WALRecords += uint64(st.WALRecords)
		ws.WALBytes += uint64(st.WALBytes)
		ws.WALRawBytes += uint64(st.WALRawBytes)
		ws.WALFsyncs += uint64(st.WALFsyncs)
		ws.WALAppendNanos += uint64(st.WALAppendTime.Nanoseconds())
		ws.Checkpoints += uint64(st.Checkpoints)
		if len(engines) > 1 {
			ws.Shards = append(ws.Shards, wire.ShardStats{
				Epochs:     uint64(st.Epochs),
				Ops:        uint64(st.Ops),
				WALRecords: uint64(st.WALRecords),
				WALSeq:     e.WALSeq(),
				WALFloor:   e.WALFloor(),
				AppliedSeq: e.AppliedSeq(),
			})
		}
	}
	if ns.hub != nil {
		subs, shipped, lag := ns.hub.Stats()
		ws.Subscribers = uint64(subs)
		ws.LastShippedSeq = shipped
		ws.MaxFollowerLag = lag
	}
	if ns.ehub != nil { // sharded and replica namespaces have no event hub
		subs, delivered, dropped := ns.ehub.Stats()
		ws.EventSubscribers = uint64(subs)
		ws.EventsDelivered = uint64(delivered)
		ws.EventsDropped = uint64(dropped)
	}
	return ws
}

func (s *Server) create(req *wire.Request, fail failFunc) *wire.Response {
	if !validName(req.NS) {
		return fail(wire.StatusBadRequest, "invalid namespace name %q", req.NS)
	}
	if req.N == 0 || req.N > 1<<30 {
		return fail(wire.StatusBadRequest, "vertex count %d out of range [1, 2^30]", req.N)
	}
	if req.Durable && s.opts.DataDir == "" {
		return fail(wire.StatusBadRequest, "durable namespaces need a server data directory")
	}
	shards := int(req.Shards)
	if shards == 0 {
		shards = s.opts.DefaultShards
	}
	if shards > maxShards {
		return fail(wire.StatusBadRequest, "shard count %d out of range [0, %d]", shards, maxShards)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.namespaces[req.NS]; ok {
		return fail(wire.StatusExists, "namespace %q already exists", req.NS)
	}
	var dir string
	if req.Durable {
		dir = filepath.Join(s.opts.DataDir, req.NS)
		// Refuse to adopt a leftover durable directory under a fresh Create:
		// the caller asked for a new namespace, not whatever a previous
		// instance left behind (restart-restore happens in New; drop removes
		// the directory entirely, and both Create and Drop run under s.mu,
		// so a non-empty directory here really is leftover state). A cheap
		// existence probe only — never a full restore under the server lock.
		ents, err := os.ReadDir(dir)
		if err != nil && !os.IsNotExist(err) {
			return fail(wire.StatusInternal, "namespace %q directory: %v", req.NS, err)
		}
		if len(ents) > 0 {
			return fail(wire.StatusExists,
				"namespace %q has leftover durable state; restart the server to restore it or drop it", req.NS)
		}
	}
	var be backend
	if shards >= 2 {
		coord, err := shard.New(int(req.N), shards, shard.Options{DurDir: dir})
		if err != nil {
			return fail(wire.StatusInternal, "create %q: %v", req.NS, err)
		}
		be = sharded{coord, dir}
	} else {
		e, err := engine.New(core.New(int(req.N)), engine.Options{DurDir: dir})
		if err != nil {
			return fail(wire.StatusInternal, "create %q: %v", req.NS, err)
		}
		be = plain{e}
	}
	s.namespaces[req.NS] = newNamespace(req.NS, dir, be)
	return &wire.Response{ID: req.ID}
}

func (s *Server) drop(req *wire.Request, fail failFunc) *wire.Response {
	// The whole drop — map removal, quiesce, and durable-state deletion —
	// runs under s.mu so a concurrent Create of the same name cannot
	// resurrect the directory while RemoveAll is sweeping it. Lock order
	// s.mu → ns.mu matches every request path (lookup releases s.mu before
	// taking ns.mu), and waiting out in-flight requests here is bounded by
	// one epoch per request.
	s.mu.Lock()
	defer s.mu.Unlock()
	ns, ok := s.namespaces[req.NS]
	if !ok {
		return fail(wire.StatusNotFound, "namespace %q does not exist", req.NS)
	}
	delete(s.namespaces, req.NS)
	// Terminate subscription streams first: their pumps run outside the
	// namespace lock and must not outlive the backend.
	ns.stopHubs()
	// The write lock waits out every in-flight request on this namespace;
	// new lookups already miss the map.
	ns.mu.Lock()
	ns.closed = true
	ns.mu.Unlock()
	if err := ns.be.Close(); err != nil {
		s.logf("drop %q: %v", req.NS, err)
	}
	if ns.durable {
		if err := os.RemoveAll(filepath.Join(s.opts.DataDir, ns.name)); err != nil {
			return fail(wire.StatusInternal, "drop %q: %v", req.NS, err)
		}
	}
	return &wire.Response{ID: req.ID}
}

func (s *Server) list(req *wire.Request) *wire.Response {
	s.mu.RLock()
	infos := make([]wire.NSInfo, 0, len(s.namespaces))
	for _, ns := range s.namespaces {
		// ns.be is read under the namespace lock: on a replica the
		// follower's snapshot catch-up swaps it wholesale (ApplySnapshot).
		// A backend has k+1 engines when sharded k ways, one when plain —
		// reported as 0 shards.
		ns.mu.RLock()
		n, shards := ns.be.N(), len(ns.be.Engines())-1
		ns.mu.RUnlock()
		infos = append(infos, wire.NSInfo{Name: ns.name, N: n, Durable: ns.durable, Shards: shards})
	}
	s.mu.RUnlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return &wire.Response{ID: req.ID, Namespaces: infos}
}
