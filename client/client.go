// Package client is the Go client for cmd/connserver: a connection-pooled,
// pipelined front-end that mirrors the conn.Batcher API over the
// internal/wire protocol.
//
// A Client owns a small pool of TCP connections. Any number of goroutines
// may issue requests concurrently; each request is written as one frame on
// a pooled connection and matched to its response by id, so many requests
// ride one connection simultaneously (pipelining). On the server side every
// in-flight frame blocks in the namespace's engine — concurrent frames
// from any mix of clients coalesce into one large epoch, which is the whole
// reason the server exists: Theorem 1's per-operation cost falls as batches
// grow, and the network layer's job is to deliver big batches.
//
//	c, err := client.Dial("localhost:7421", client.WithConns(4))
//	defer c.Close()
//	c.Create("social", 1<<20, true) // durable namespace
//	ns := c.Namespace("social")
//	ns.Insert(1, 2)
//	ok, _ := ns.Connected(1, 2)    // linearized, rides the epoch pipeline
//	ok, _ = ns.ReadRecent(1, 2)    // wait-free snapshot tier
//
// Batching amplifies throughput further: InsertEdges / Do send one frame
// for the whole group, and the group commits in a single epoch.
//
// Replication-aware reads: WithReplicas(addrs...) fans bounded-staleness
// reads (ReadRecent / ReadRecentBatch) out across read-only replica
// servers, round-robin, with failover back to the primary. Each replica
// answer carries the replica's applied epoch seq, and the client fences it
// against the highest primary seq its own writes observed — read-your-
// writes without coordination. Writes always go to the primary; a mutation
// that reaches a replica comes back as a *RedirectError carrying the
// primary's address.
//
// Error model: methods return an error when the server rejects the request
// (wire.Status* mapped to ErrNotFound, ErrExists, ...) or when the
// connection fails. A failed connection is redialed on the next use, so a
// client survives a server restart; requests in flight during the failure
// return the transport error and were possibly not applied — idempotent
// connectivity updates make blind retry safe, but that choice is the
// caller's.
package client

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	conn "repro"
	"repro/internal/backoff"
	"repro/internal/shard"
	"repro/internal/wire"
)

// Partition returns the shard owning vertex u in a namespace created with
// the given shard count — the same hash the server routes by, so callers
// can pre-partition their traffic (see Namespace.DoSharded).
func Partition(u int32, shards int) int { return shard.Partition(u, shards) }

// Errors mapped from wire status codes.
var (
	ErrNotFound = errors.New("client: namespace not found")
	ErrExists   = errors.New("client: namespace already exists")
	ErrDraining = errors.New("client: server is draining")
	ErrClosed   = errors.New("client: client is closed")
)

// RedirectError is returned when a mutating request reached a read-only
// replica: Primary is the address the replica follows — retarget writes
// there. The client never follows the redirect itself; connectivity updates
// are idempotent, but the retry decision belongs to the caller.
type RedirectError struct {
	Primary string
}

func (e *RedirectError) Error() string {
	return fmt.Sprintf("client: read-only replica; writes go to the primary at %s", e.Primary)
}

// Option configures a Client.
type Option func(*options)

type options struct {
	conns       int
	dialTimeout time.Duration
	replicas    []string
}

// WithConns sets the connection-pool size (default 1). More connections let
// more requests ride the network concurrently; requests within one
// connection already pipeline.
func WithConns(k int) Option {
	return func(o *options) {
		if k > 0 {
			o.conns = k
		}
	}
}

// WithDialTimeout bounds each dial attempt (default 5s).
func WithDialTimeout(d time.Duration) Option {
	return func(o *options) {
		if d > 0 {
			o.dialTimeout = d
		}
	}
}

// WithReplicas enables failover-aware read routing: bounded-staleness reads
// (ReadRecent / ReadRecentBatch) fan out round-robin across the given
// replica addresses instead of loading the primary. Every replica answer
// carries the replica's applied epoch seq, and the client fences it against
// the highest primary seq its own writes have observed (read-your-writes):
// an answer that is too stale is discarded and the next replica — and
// finally the primary — is tried. An unreachable replica is put in
// exponential-backoff timeout and retried later; writes, linearized reads
// and ReadNow always go to the primary.
func WithReplicas(addrs ...string) Option {
	return func(o *options) {
		o.replicas = append(o.replicas, addrs...)
	}
}

// Client is a pooled, pipelined connserver client. Safe for concurrent use.
type Client struct {
	addr   string
	opts   options
	nextID atomic.Uint64
	rr     atomic.Uint32
	rrRep  atomic.Uint32
	closed atomic.Bool

	mu   sync.Mutex // guards pool slots during (re)dial
	pool []*poolConn

	replicas []*replicaSlot

	// observed tracks, per namespace, the highest primary seq this client's
	// own writes have been acknowledged at — the read-your-writes fence for
	// replica-routed reads. Values are *atomic.Uint64.
	observed sync.Map
}

// Dial connects to a connserver. The first pool connection is established
// eagerly so configuration errors surface here; the rest dial on first use.
func Dial(addr string, opts ...Option) (*Client, error) {
	o := options{conns: 1, dialTimeout: 5 * time.Second}
	for _, f := range opts {
		f(&o)
	}
	c := &Client{addr: addr, opts: o, pool: make([]*poolConn, o.conns)}
	for _, ra := range o.replicas {
		c.replicas = append(c.replicas, &replicaSlot{
			addr: ra, bo: *backoff.New(50*time.Millisecond, 2*time.Second),
		})
	}
	pc, err := c.dialSlot()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.pool[0] = pc
	c.mu.Unlock()
	return c, nil
}

// Close closes every pooled connection. In-flight requests fail.
func (c *Client) Close() error {
	c.closed.Store(true)
	c.mu.Lock()
	for _, pc := range c.pool {
		if pc != nil {
			pc.fail(ErrClosed)
		}
	}
	c.mu.Unlock()
	for _, r := range c.replicas {
		r.mu.Lock()
		if r.pc != nil {
			r.pc.fail(ErrClosed)
			r.pc = nil
		}
		r.mu.Unlock()
	}
	return nil
}

// ObservedSeq returns the read-your-writes fence for a namespace: the
// highest primary epoch seq this client's own acknowledged writes reached.
// Replica-routed reads must reflect at least this seq to be accepted.
func (c *Client) ObservedSeq(ns string) uint64 {
	if v, ok := c.observed.Load(ns); ok {
		return v.(*atomic.Uint64).Load()
	}
	return 0
}

// bumpObserved raises the namespace's fence to seq (monotonically).
func (c *Client) bumpObserved(ns string, seq uint64) {
	v, _ := c.observed.LoadOrStore(ns, new(atomic.Uint64))
	a := v.(*atomic.Uint64)
	for {
		cur := a.Load()
		if seq <= cur || a.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// ---------------------------------------------------------------- pool

// poolConn is one pooled connection: a writer guarded by wmu, and a reader
// goroutine that fans responses back to waiting requests by id.
type poolConn struct {
	c  net.Conn
	bw *bufio.Writer

	wmu sync.Mutex // serializes frame writes

	pmu     sync.Mutex
	pending map[uint64]chan result
	dead    error // non-nil once the connection has failed
}

type result struct {
	resp *wire.Response
	err  error
}

func (c *Client) dialSlot() (*poolConn, error) { return c.dialAddr(c.addr) }

func (c *Client) dialAddr(addr string) (*poolConn, error) {
	nc, err := net.DialTimeout("tcp", addr, c.opts.dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	pc := &poolConn{
		c:       nc,
		bw:      bufio.NewWriterSize(nc, 1<<16),
		pending: make(map[uint64]chan result),
	}
	go pc.readLoop()
	return pc, nil
}

// readLoop owns the connection's read half: every arriving frame resolves
// the pending request with its id. Any read or decode error kills the
// connection and fails everything still pending.
func (pc *poolConn) readLoop() {
	br := bufio.NewReaderSize(pc.c, 1<<16)
	for {
		payload, err := wire.ReadFrame(br)
		if err != nil {
			pc.fail(fmt.Errorf("client: connection lost: %w", err))
			return
		}
		resp, err := wire.DecodeResponse(payload)
		if err != nil {
			pc.fail(err)
			return
		}
		pc.pmu.Lock()
		ch, ok := pc.pending[resp.ID]
		if ok {
			delete(pc.pending, resp.ID)
		}
		pc.pmu.Unlock()
		if ok {
			ch <- result{resp: resp}
		}
	}
}

// fail marks the connection dead and resolves every pending request with
// err. Idempotent; the first error wins.
func (pc *poolConn) fail(err error) {
	pc.pmu.Lock()
	if pc.dead == nil {
		pc.dead = err
	}
	pending := pc.pending
	pc.pending = make(map[uint64]chan result)
	pc.pmu.Unlock()
	pc.c.Close()
	for _, ch := range pending {
		ch <- result{err: err}
	}
}

// conn returns a live pooled connection, redialing the slot if its previous
// occupant died. Slots are picked round-robin.
func (c *Client) conn() (*poolConn, error) {
	if c.closed.Load() {
		return nil, ErrClosed
	}
	slot := int(c.rr.Add(1)) % len(c.pool)
	c.mu.Lock()
	pc := c.pool[slot]
	if pc != nil {
		pc.pmu.Lock()
		dead := pc.dead != nil
		pc.pmu.Unlock()
		if !dead {
			c.mu.Unlock()
			return pc, nil
		}
	}
	c.mu.Unlock()
	// Dial outside c.mu so a slow dial does not block other slots.
	fresh, err := c.dialSlot()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	// Another goroutine may have refilled the slot meanwhile; prefer the
	// winner and fold the loser.
	if cur := c.pool[slot]; cur != nil && cur != pc {
		cur.pmu.Lock()
		curDead := cur.dead != nil
		cur.pmu.Unlock()
		if !curDead {
			c.mu.Unlock()
			fresh.fail(ErrClosed)
			return cur, nil
		}
	}
	c.pool[slot] = fresh
	closed := c.closed.Load()
	c.mu.Unlock()
	if closed {
		fresh.fail(ErrClosed)
		return nil, ErrClosed
	}
	return fresh, nil
}

// roundTrip performs one request/response exchange on a specific pooled
// connection: assign an id, register the waiter, write the frame, block for
// the response. It returns transport failures only; the response may carry
// a non-OK status for the caller to interpret.
func (c *Client) roundTrip(pc *poolConn, req *wire.Request) (*wire.Response, error) {
	req.ID = c.nextID.Add(1)
	payload, err := wire.EncodeRequest(req)
	if err != nil {
		return nil, err
	}
	ch := make(chan result, 1)
	pc.pmu.Lock()
	if pc.dead != nil {
		err := pc.dead
		pc.pmu.Unlock()
		return nil, err
	}
	pc.pending[req.ID] = ch
	pc.pmu.Unlock()

	pc.wmu.Lock()
	err = wire.WriteFrame(pc.bw, payload)
	if err == nil {
		err = pc.bw.Flush()
	}
	pc.wmu.Unlock()
	if err != nil {
		pc.fail(fmt.Errorf("client: write: %w", err))
		// fail resolved our waiter (or we race its resolution); drain it so
		// the channel cannot leak a stale result.
		<-ch
		return nil, err
	}

	res := <-ch
	if res.err != nil {
		return nil, res.err
	}
	return res.resp, nil
}

// do performs one round trip against the primary, mapping non-OK statuses
// to errors and maintaining the read-your-writes fence on mutating batches.
func (c *Client) do(req *wire.Request) (*wire.Response, error) {
	pc, err := c.conn()
	if err != nil {
		return nil, err
	}
	resp, err := c.roundTrip(pc, req)
	if err != nil {
		return nil, err
	}
	if resp.Status != wire.StatusOK {
		return nil, statusErr(resp)
	}
	if req.Cmd == wire.CmdBatch && resp.Seq > 0 && hasMutation(req.Ops) {
		c.bumpObserved(req.NS, resp.Seq)
	}
	return resp, nil
}

func hasMutation(ops []wire.Op) bool {
	for _, op := range ops {
		if op.Kind != wire.KindQuery {
			return true
		}
	}
	return false
}

// statusErr maps a non-OK response onto the package's sentinel errors.
func statusErr(r *wire.Response) error {
	switch r.Status {
	case wire.StatusNotFound:
		return fmt.Errorf("%w: %s", ErrNotFound, r.Msg)
	case wire.StatusExists:
		return fmt.Errorf("%w: %s", ErrExists, r.Msg)
	case wire.StatusDraining:
		return fmt.Errorf("%w: %s", ErrDraining, r.Msg)
	case wire.StatusReadOnly:
		return &RedirectError{Primary: r.Msg}
	default:
		return wire.StatusError(r)
	}
}

// ---------------------------------------------------------------- replicas

// replicaSlot is one configured replica: a single lazily-dialed connection
// plus failure backoff state.
type replicaSlot struct {
	addr string

	mu        sync.Mutex
	pc        *poolConn
	downUntil time.Time
	bo        backoff.B
}

// get returns a live connection to the replica, dialing if needed, or nil
// while the replica is in failure backoff.
func (r *replicaSlot) get(c *Client) *poolConn {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.pc != nil {
		r.pc.pmu.Lock()
		dead := r.pc.dead != nil
		r.pc.pmu.Unlock()
		if !dead {
			return r.pc
		}
		r.pc = nil
	}
	if time.Now().Before(r.downUntil) {
		return nil
	}
	pc, err := c.dialAddr(r.addr)
	if err != nil {
		r.markDownLocked()
		return nil
	}
	// Close may have swept this slot between doRead's entry check and the
	// dial (Close sets the flag before taking r.mu): a connection installed
	// now would never be failed, leaking it and its readLoop. Mirrors the
	// primary pool's post-dial closed re-check in conn().
	if c.closed.Load() {
		pc.fail(ErrClosed)
		return nil
	}
	r.pc = pc
	return pc
}

// markDown records a failure: close the connection and back off
// exponentially (50ms doubling to 2s) before the next dial attempt.
func (r *replicaSlot) markDown() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.pc != nil {
		r.pc.fail(errors.New("client: replica marked down"))
		r.pc = nil
	}
	r.markDownLocked()
}

func (r *replicaSlot) markDownLocked() {
	r.downUntil = time.Now().Add(r.bo.Next())
}

// markUp clears the backoff after a successful exchange.
func (r *replicaSlot) markUp() {
	r.mu.Lock()
	r.bo.Reset()
	r.downUntil = time.Time{}
	r.mu.Unlock()
}

// doRead routes one bounded-staleness read: try each configured replica
// once, round-robin, accepting the first answer that is fresh enough
// (resp.Seq >= the namespace's observed-seq fence); fall back to the
// primary when every replica is down, stale, erroring, or not yet serving
// the namespace. The primary's answer always passes the fence.
func (c *Client) doRead(req *wire.Request) (*wire.Response, error) {
	if len(c.replicas) == 0 || c.closed.Load() {
		return c.do(req)
	}
	fence := c.ObservedSeq(req.NS)
	start := int(c.rrRep.Add(1))
	for i := 0; i < len(c.replicas); i++ {
		r := c.replicas[(start+i)%len(c.replicas)]
		pc := r.get(c)
		if pc == nil {
			continue
		}
		resp, err := c.roundTrip(pc, req)
		if err != nil {
			r.markDown()
			continue
		}
		if resp.Status != wire.StatusOK {
			// Replica-side refusal (namespace not replicated yet, draining):
			// not a connection failure — leave the replica up, use the
			// primary for this read.
			continue
		}
		seq := resp.Seq
		if resp.Query != nil {
			seq = resp.Query.Seq // a query answer's position rides in its body
		}
		if seq < fence {
			continue // too stale: fails read-your-writes
		}
		r.markUp()
		return resp, nil
	}
	return c.do(req)
}

// ---------------------------------------------------------------- admin API

// Ping round-trips an empty frame.
func (c *Client) Ping() error {
	_, err := c.do(&wire.Request{Cmd: wire.CmdPing})
	return err
}

// Create makes a new namespace over n vertices. A durable namespace
// write-ahead-logs every epoch under the server's data directory and
// survives server restarts.
func (c *Client) Create(ns string, n int, durable bool) error {
	_, err := c.do(&wire.Request{Cmd: wire.CmdCreate, NS: ns, N: uint32(n), Durable: durable})
	return err
}

// CreateSharded makes a namespace hash-partitioned across shards engines:
// the server routes each operation to its partition's epoch pipeline, so
// writes to different partitions commit — and fsync — in parallel. A shard
// count of 0 or 1 creates an ordinary unsharded namespace.
func (c *Client) CreateSharded(ns string, n int, durable bool, shards int) error {
	_, err := c.do(&wire.Request{Cmd: wire.CmdCreate, NS: ns, N: uint32(n),
		Durable: durable, Shards: uint32(shards)})
	return err
}

// Drop quiesces and removes a namespace; a durable namespace's on-disk
// state is deleted.
func (c *Client) Drop(ns string) error {
	_, err := c.do(&wire.Request{Cmd: wire.CmdDrop, NS: ns})
	return err
}

// NamespaceInfo describes one served namespace. Shards is the hash
// partition count for sharded namespaces (0 = unsharded).
type NamespaceInfo struct {
	Name    string
	N       int
	Durable bool
	Shards  int
}

// List returns the served namespaces, sorted by name.
func (c *Client) List() ([]NamespaceInfo, error) {
	resp, err := c.do(&wire.Request{Cmd: wire.CmdList})
	if err != nil {
		return nil, err
	}
	out := make([]NamespaceInfo, len(resp.Namespaces))
	for i, ns := range resp.Namespaces {
		out[i] = NamespaceInfo{Name: ns.Name, N: ns.N, Durable: ns.Durable, Shards: ns.Shards}
	}
	return out, nil
}

// Namespace returns a handle for issuing operations against one namespace.
// The handle is cheap and safe to share between goroutines.
func (c *Client) Namespace(name string) *Namespace {
	return &Namespace{c: c, name: name}
}

// ---------------------------------------------------------------- namespace API

// Namespace mirrors the conn.Batcher surface over the wire: single ops,
// atomic batches, the three read tiers, stats and checkpoint.
type Namespace struct {
	c    *Client
	name string
}

// Name returns the namespace's name.
func (ns *Namespace) Name() string { return ns.name }

// Do sends a mixed batch of operations as one frame; the server stages it
// as one atomic group, so the whole batch lands in a single epoch. Results
// are index-aligned with ops.
func (ns *Namespace) Do(ops []conn.Op) ([]bool, error) {
	wops := make([]wire.Op, len(ops))
	for i, op := range ops {
		wops[i] = wire.Op{Kind: wire.Kind(op.Kind), U: op.U, V: op.V}
	}
	resp, err := ns.c.do(&wire.Request{Cmd: wire.CmdBatch, NS: ns.name, Ops: wops})
	if err != nil {
		return nil, err
	}
	return resp.Bits, nil
}

// DoSharded routes a batch by partition against a namespace created with
// the given shard count: intra-shard mutations are grouped into one frame
// per shard and the frames fly concurrently, each landing directly in its
// partition's epoch pipeline — k dispatchers and k fsync streams run
// in parallel. Cross-shard mutations and all queries form a final frame sent
// after every shard frame commits, so queries still observe this call's own
// mutations. Results are index-aligned with ops; atomicity is per frame, not
// whole-batch. With shards < 2 it is exactly Do.
func (ns *Namespace) DoSharded(shards int, ops []conn.Op) ([]bool, error) {
	if shards < 2 {
		return ns.Do(ops)
	}
	groups := make([][]conn.Op, shards)
	gidx := make([][]int, shards)
	var rest []conn.Op
	var restIdx []int
	for i, op := range ops {
		if op.Kind != conn.OpQuery {
			if su, sv := shard.Partition(op.U, shards), shard.Partition(op.V, shards); su == sv {
				groups[su] = append(groups[su], op)
				gidx[su] = append(gidx[su], i)
				continue
			}
		}
		rest = append(rest, op)
		restIdx = append(restIdx, i)
	}
	out := make([]bool, len(ops))
	var wg sync.WaitGroup
	errs := make([]error, shards)
	for s := 0; s < shards; s++ {
		if len(groups[s]) == 0 {
			continue
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			bits, err := ns.Do(groups[s])
			if err == nil && len(bits) != len(groups[s]) {
				err = fmt.Errorf("client: server returned %d results for %d ops", len(bits), len(groups[s]))
			}
			if err != nil {
				errs[s] = err
				return
			}
			for j, b := range bits {
				out[gidx[s][j]] = b
			}
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if len(rest) > 0 {
		bits, err := ns.Do(rest)
		if err != nil {
			return nil, err
		}
		if len(bits) != len(rest) {
			return nil, fmt.Errorf("client: server returned %d results for %d ops", len(bits), len(rest))
		}
		for j, b := range bits {
			out[restIdx[j]] = b
		}
	}
	return out, nil
}

func (ns *Namespace) one(kind conn.OpKind, u, v int32) (bool, error) {
	return oneBit(ns.Do([]conn.Op{{Kind: kind, U: u, V: v}}))
}

// Insert adds edge {u, v}; reports whether it was newly added.
func (ns *Namespace) Insert(u, v int32) (bool, error) { return ns.one(conn.OpInsert, u, v) }

// Delete removes edge {u, v}; reports whether it was removed.
func (ns *Namespace) Delete(u, v int32) (bool, error) { return ns.one(conn.OpDelete, u, v) }

// Connected answers a linearized connectivity query: it joins the epoch
// pipeline and observes its epoch's post-update state.
func (ns *Namespace) Connected(u, v int32) (bool, error) { return ns.one(conn.OpQuery, u, v) }

func edgesToOps(kind conn.OpKind, es []conn.Edge) []conn.Op {
	ops := make([]conn.Op, len(es))
	for i, e := range es {
		ops[i] = conn.Op{Kind: kind, U: e.U, V: e.V}
	}
	return ops
}

// InsertEdges stages a batch of insertions as one atomic group and returns
// the number credited to this call.
func (ns *Namespace) InsertEdges(es []conn.Edge) (int, error) {
	bits, err := ns.Do(edgesToOps(conn.OpInsert, es))
	return countTrue(bits), err
}

// DeleteEdges stages a batch of deletions as one atomic group and returns
// the number credited to this call.
func (ns *Namespace) DeleteEdges(es []conn.Edge) (int, error) {
	bits, err := ns.Do(edgesToOps(conn.OpDelete, es))
	return countTrue(bits), err
}

// ConnectedBatch answers k linearized queries against one post-epoch state.
func (ns *Namespace) ConnectedBatch(qs []conn.Edge) ([]bool, error) {
	return ns.Do(edgesToOps(conn.OpQuery, qs))
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

func (ns *Namespace) read(cmd wire.Cmd, qs []conn.Edge) ([]bool, error) {
	pairs := make([]wire.Pair, len(qs))
	for i, q := range qs {
		pairs[i] = wire.Pair{U: q.U, V: q.V}
	}
	req := &wire.Request{Cmd: cmd, NS: ns.name, Pairs: pairs}
	// Only ReadRecent may be served by a (fenced) replica; ReadNow is the
	// same committed read pinned to the primary, so it never trails it.
	if cmd == wire.CmdReadRecent {
		resp, err := ns.c.doRead(req)
		if err != nil {
			return nil, err
		}
		return resp.Bits, nil
	}
	resp, err := ns.c.do(req)
	if err != nil {
		return nil, err
	}
	return resp.Bits, nil
}

func oneBit(bits []bool, err error) (bool, error) {
	if err != nil {
		return false, err
	}
	if len(bits) != 1 {
		return false, fmt.Errorf("client: server returned %d results for 1 query", len(bits))
	}
	return bits[0], nil
}

// ReadNow answers a committed query pinned to the primary: the same source
// as ReadRecent — the primary's published component labelling, reflecting
// every acknowledged write and never a partial epoch — but never routed to
// a replica.
func (ns *Namespace) ReadNow(u, v int32) (bool, error) {
	return oneBit(ns.read(wire.CmdReadNow, []conn.Edge{{U: u, V: v}}))
}

// ReadNowBatch answers k committed, primary-pinned queries from one
// published labelling.
func (ns *Namespace) ReadNowBatch(qs []conn.Edge) ([]bool, error) {
	return ns.read(wire.CmdReadNow, qs)
}

// ReadRecent answers a wait-free committed query from the last published
// component snapshot of the server that serves it — a fenced replica when
// WithReplicas is set, otherwise the primary.
func (ns *Namespace) ReadRecent(u, v int32) (bool, error) {
	return oneBit(ns.read(wire.CmdReadRecent, []conn.Edge{{U: u, V: v}}))
}

// ReadRecentBatch answers k wait-free queries from one published snapshot.
func (ns *Namespace) ReadRecentBatch(qs []conn.Edge) ([]bool, error) {
	return ns.read(wire.CmdReadRecent, qs)
}

// Stats returns the namespace's pipeline counters, summed over its engines
// (with a per-engine breakdown when sharded).
func (ns *Namespace) Stats() (wire.Stats, error) {
	resp, err := ns.c.do(&wire.Request{Cmd: wire.CmdStats, NS: ns.name})
	if err != nil {
		return wire.Stats{}, err
	}
	return resp.Stats, nil
}

// Checkpoint durably snapshots a durable namespace and truncates its WAL,
// returning the snapshot's server-side path.
func (ns *Namespace) Checkpoint() (string, error) {
	resp, err := ns.c.do(&wire.Request{Cmd: wire.CmdCheckpoint, NS: ns.name})
	if err != nil {
		return "", err
	}
	return resp.Path, nil
}
