// Batcher: the concurrent front-end over Graph. A Graph must have a single
// writer, and the paper's cost bounds reward large batches — Theorem 1
// charges O(lg n · lg(1+n/Δ)) amortized work per deleted edge for deletion
// batches averaging Δ, so many small operations are strictly more expensive
// than one large batch. Batcher resolves the tension with group commit: any
// number of goroutines submit single operations (or small batches), a
// staging buffer coalesces them, and a dispatcher executes one InsertEdges /
// DeleteEdges / ConnectedBatch per drained epoch against the single-writer
// Graph, fanning results back to the blocked callers.
//
// The pipeline itself — coalesce drain → WAL append+fsync → epoch execution
// → snapshot publish → subscriber tee → checkpoint service — lives in
// internal/engine; a Batcher is a thin facade over exactly one Engine.
// (internal/shard hosts several engines behind the same operation surface
// for partitioned writes; the network server exposes both.)
//
// Queries need not pay the write pipeline. Batcher serves them at two
// consistency tiers:
//
//   - Connected / ConnectedBatch — linearized. The query joins the epoch
//     pipeline and observes its epoch's post-update state, totally ordered
//     with all updates. Pays the coalescing window.
//   - ReadRecent / ReadRecentBatch — committed, wait-free. Two array loads
//     against an immutable component labelling (internal/snapshot) that
//     every connectivity-changing epoch republishes before any of its
//     callers unblock: an answer reflects every acknowledged write and
//     never a partial epoch, but is not ordered against in-flight
//     submissions.
//
// cmd/benchconn experiment e13 measures both tiers' read throughput under
// writer load.

package conn

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/coalesce"
	"repro/internal/engine"
	"repro/internal/query"
	"repro/internal/snapshot"
)

// Default coalescing parameters: commit an epoch once 8192 operations have
// accumulated, or 500µs after work first arrives, whichever is first.
const (
	DefaultMaxBatch = engine.DefaultMaxBatch
	DefaultMaxDelay = engine.DefaultMaxDelay
)

// ErrClosed is returned by the Batcher's error-returning methods (Do,
// Checkpoint) once Close has begun.
var ErrClosed = errors.New("conn: Batcher is closed")

// walFileName is the WAL's file name inside a durability directory (owned
// by internal/engine; mirrored here for the crash-recovery tests).
const walFileName = engine.WALFileName

// OpKind labels one operation of a mixed batch passed to Batcher.Do.
type OpKind uint8

const (
	// OpInsert stages an edge insertion; its result reports whether the
	// edge was newly added.
	OpInsert OpKind = iota
	// OpDelete stages an edge deletion; its result reports whether the
	// edge was removed.
	OpDelete
	// OpQuery stages a connectivity query against the epoch's post-update
	// state.
	OpQuery
)

// Op is one operation of a mixed batch passed to Batcher.Do.
type Op struct {
	Kind OpKind
	U, V int32
}

// Batcher is a goroutine-safe connectivity front-end over a Graph. All
// methods may be called from any number of goroutines; each call blocks
// until the epoch containing the operation has committed, so a caller's own
// operations are always applied in its program order.
//
// Epoch semantics: within one epoch, insertions are applied first, then
// deletions, then queries — queries observe the epoch's post-update state.
// Operations from different goroutines that land in the same epoch were
// concurrent, and the epoch order is the order they linearize in.
//
// The coalescing window trades latency for throughput: a longer window
// (WithMaxDelay) grows the average batch size Δ, and per-operation cost
// shrinks as O(lg(1+n/Δ)) amortized. See cmd/benchconn experiment e12.
//
// While a Batcher is open, its underlying Graph must not be used directly;
// after Close the Graph is quiesced and may be used again.
type Batcher struct {
	g *Graph
	e *engine.Engine

	// testHook, when set before any operation is submitted, observes each
	// committed epoch (concatenated ops and their results) from the
	// dispatcher goroutine. Tests use it to replay epochs against an oracle.
	testHook func(ops []coalesce.Op, res []bool)
}

// EpochRecord is one durable mutating epoch as observed by an epoch
// subscriber: the WAL sequence number and the raw coalesced insert and
// delete batches, in application order. Replaying Ins then Del through the
// batch operations reproduces the epoch exactly (duplicates, present
// inserts and absent deletes are ignored at every layer). The slices are
// shared across subscribers and must not be mutated.
type EpochRecord = engine.EpochRecord

// BatcherOption configures a Batcher.
type BatcherOption func(*batcherOptions)

type batcherOptions struct {
	maxBatch int
	maxDelay time.Duration
	durDir   string
}

// WithMaxBatch sets the epoch size target: the dispatcher commits as soon
// as k operations are staged. k <= 0 selects DefaultMaxBatch.
func WithMaxBatch(k int) BatcherOption {
	return func(o *batcherOptions) { o.maxBatch = k }
}

// WithMaxDelay bounds how long an operation may wait for its epoch: the
// dispatcher commits at most d after it first notices pending work, even if
// the batch target has not been reached. d == 0 disables the window and
// commits eagerly (lowest latency, smallest batches).
func WithMaxDelay(d time.Duration) BatcherOption {
	return func(o *batcherOptions) { o.maxDelay = d }
}

// WithDurability makes every acknowledged write durable: the dispatcher
// appends each epoch's coalesced update batch to a write-ahead log in dir
// and fsyncs it *before* the epoch mutates the Graph and before any caller
// unblocks — one fsync amortized over the whole epoch (group commit). Use
// Restore(dir) to recover the graph after a crash, then wrap it in a new
// durable Batcher on the same directory; the log continues where it left
// off. Checkpoint bounds the log's replay length.
//
// The wrapped Graph must reflect the durable state already in dir — either
// dir is fresh/empty, or the graph came from Restore(dir). NewBatcher
// panics if the directory cannot be initialized (unwritable, or holding a
// log for a different vertex universe), and the Batcher panics if a WAL
// append fails mid-flight: a durability guarantee that can no longer be
// honored is fail-stop, never silently degraded.
func WithDurability(dir string) BatcherOption {
	return func(o *batcherOptions) { o.durDir = dir }
}

// NewBatcher wraps g in a group-commit front-end and starts its dispatcher.
// Callers own g's lifecycle; the Batcher only requires that nothing else
// touches g until Close returns.
func NewBatcher(g *Graph, opts ...BatcherOption) *Batcher {
	o := batcherOptions{maxBatch: DefaultMaxBatch, maxDelay: DefaultMaxDelay}
	for _, f := range opts {
		f(&o)
	}
	b := &Batcher{g: g}
	e, err := engine.New(g.c, engine.Options{
		MaxBatch: o.maxBatch,
		MaxDelay: o.maxDelay,
		DurDir:   o.durDir,
		// The hook indirects through the Batcher field so tests can install
		// it after construction (but before the first submission), exactly
		// as they always have.
		Hook: func(ops []coalesce.Op, res []bool) {
			if b.testHook != nil {
				b.testHook(ops, res)
			}
		},
	})
	if err != nil {
		panic(fmt.Sprintf("conn: WithDurability(%q): %v", o.durDir, err))
	}
	b.e = e
	return b
}

// SubscribeEpochs registers fn as an epoch subscriber: the dispatcher calls
// it for every mutating epoch, on the dispatcher goroutine, after the
// epoch's WAL record is fsynced and before the epoch is applied or any
// caller's future resolves. fn must not block — a slow consumer must buffer
// or drop on its own side of the hand-off, never stall the write pipeline.
// Only durable Batchers (WithDurability) emit epochs; on a memory-only
// Batcher the subscription is registered but never fires. The returned
// cancel function removes the subscription and is idempotent.
func (b *Batcher) SubscribeEpochs(fn func(EpochRecord)) (cancel func()) {
	return b.e.SubscribeEpochs(fn)
}

// SnapshotDiff is one published labelling transition as observed by a diff
// subscriber: the labelling before, the one published in its place, and
// the vertices whose label changed — exactly the partition-changing epochs.
// internal/pubsub's Hub.Feed is the intended consumer.
type SnapshotDiff = snapshot.Diff

// SubscribeDiffs registers fn as a snapshot-diff subscriber: the dispatcher
// calls it for every epoch that changed the connectivity partition, on the
// dispatcher goroutine, after the new labelling is published and before the
// epoch's callers unblock. seq is the epoch's durable WAL position (zero
// without WithDurability). fn must not block; it fires on memory-only
// Batchers too. The returned cancel removes the subscription and is
// idempotent.
func (b *Batcher) SubscribeDiffs(fn func(seq uint64, d *SnapshotDiff)) (cancel func()) {
	return b.e.SubscribeDiffs(fn)
}

// QueryRequest selects a structural query (k-hop neighborhood, component
// members/size, spanning-forest path, or component aggregates) and its
// consistency tier; QueryResult is the uniform answer. See internal/query
// for the kind-by-kind contract.
type (
	QueryRequest = query.Request
	QueryResult  = query.Result
)

// QueryKind selects the structural query inside a QueryRequest.
type QueryKind = query.Kind

const (
	// QueryKHop enumerates every vertex within K edges of U.
	QueryKHop = query.KindKHop
	// QueryMembers enumerates U's connected component.
	QueryMembers = query.KindMembers
	// QuerySize counts U's connected component.
	QuerySize = query.KindSize
	// QueryPath extracts the spanning-forest path from U to V.
	QueryPath = query.KindPath
	// QueryAggregate counts components and buckets their sizes.
	QueryAggregate = query.KindAggregate
)

// Query executes one structural query. Recent mode (the default) answers
// label-shaped queries wait-free from the published snapshot and runs
// traversals over the live structure under the engine's read lock, which
// excludes only an epoch's mutating phase; Linearized mode rides the
// dispatcher first (a full epoch barrier), ordering the answer after all
// previously acknowledged writes. Returns ErrClosed once Close has begun.
func (b *Batcher) Query(req QueryRequest) (QueryResult, error) {
	if b.e.Closed() {
		return QueryResult{}, ErrClosed
	}
	res, err := query.Run(b.e, req)
	if err != nil && b.e.Closed() {
		return QueryResult{}, ErrClosed
	}
	return res, err
}

// WALSeq returns the sequence number of the last durable epoch (zero for a
// Batcher without WithDurability, or before the first mutating epoch when
// the log has never been checkpointed). Safe from any goroutine.
func (b *Batcher) WALSeq() uint64 { return b.e.WALSeq() }

// AppliedSeq returns the durable seq of the last epoch whose mutations are
// fully applied and visible to every read tier. It trails WALSeq by at most
// the in-flight epoch (logged-but-not-yet-applied), which makes it the seq
// a read response may claim: sampled before a read, it never exceeds the
// state the read reflects. Safe from any goroutine.
func (b *Batcher) AppliedSeq() uint64 { return b.e.AppliedSeq() }

// SyncedSeq returns the WAL's synced frontier: the highest sequence number
// covered by a completed fsync. Equal to WALSeq except between an epoch's
// append and its fsync; zero without durability. An acknowledged, applied
// or published epoch's seq is always at or below SyncedSeq — acked means
// fsynced, and so does visible.
func (b *Batcher) SyncedSeq() uint64 { return b.e.SyncedSeq() }

// WALFloor returns the WAL's checkpoint floor: the sequence number already
// captured by the checkpoint the log was last reset behind (zero if never
// reset, or without WithDurability). Records in the live log cover exactly
// (WALFloor, WALSeq]. Safe from any goroutine.
func (b *Batcher) WALFloor() uint64 { return b.e.WALFloor() }

// Checkpoint durably snapshots the current edge set into the durability
// directory and truncates the WAL behind it, bounding restart replay time.
// It blocks until the snapshot is on disk and returns its file path. The
// snapshot is taken at an epoch boundary by the dispatcher itself, so it is
// transactionally consistent with the log: every operation acknowledged
// before Checkpoint returns is either in the snapshot or in the remaining
// WAL tail. Returns an error if the Batcher has no durability configured,
// and ErrClosed (never a panic) once Close has begun. Safe on any graph,
// including an edgeless one — the request rides a dispatcher nudge, not a
// vertex operation.
func (b *Batcher) Checkpoint() (string, error) {
	if !b.e.Durable() {
		return "", errors.New("conn: Checkpoint on a Batcher without WithDurability")
	}
	path, err := b.e.Checkpoint()
	if errors.Is(err, engine.ErrClosed) {
		return "", ErrClosed
	}
	return path, err
}

func (b *Batcher) check(u, v int32) {
	if err := b.checkRange(u, v); err != nil {
		panic(err.Error())
	}
}

func (b *Batcher) checkRange(u, v int32) error {
	if n := int32(b.g.N()); u < 0 || u >= n || v < 0 || v >= n {
		return fmt.Errorf("conn: Batcher: vertex pair {%d, %d} out of range [0, %d)", u, v, n)
	}
	return nil
}

func (b *Batcher) one(k coalesce.Kind, u, v int32) bool {
	b.check(u, v)
	f, err := b.e.Submit([]coalesce.Op{{Kind: k, U: u, V: v}})
	if err != nil {
		panic("conn: Batcher used after Close")
	}
	return f.Wait()[0]
}

func (b *Batcher) many(k coalesce.Kind, es []Edge) []bool {
	if len(es) == 0 {
		return nil
	}
	ops := make([]coalesce.Op, len(es))
	for i, e := range es {
		b.check(e.U, e.V)
		ops[i] = coalesce.Op{Kind: k, U: e.U, V: e.V}
	}
	f, err := b.e.Submit(ops)
	if err != nil {
		panic("conn: Batcher used after Close")
	}
	return f.Wait()
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

// Insert adds the edge {u, v}, blocking until its epoch commits. Reports
// whether the edge was newly added (false if already present, a self-loop,
// or another operation in the same epoch added it first).
func (b *Batcher) Insert(u, v int32) bool { return b.one(coalesce.OpInsert, u, v) }

// Delete removes the edge {u, v}, blocking until its epoch commits. Reports
// whether the edge was removed (false if absent or another operation in the
// same epoch removed it first).
func (b *Batcher) Delete(u, v int32) bool { return b.one(coalesce.OpDelete, u, v) }

// Connected reports whether u and v are in the same component as of the end
// of the operation's epoch.
func (b *Batcher) Connected(u, v int32) bool { return b.one(coalesce.OpQuery, u, v) }

// InsertEdges stages a batch of insertions as one atomic group — all land
// in the same epoch — and returns the number credited to this call.
func (b *Batcher) InsertEdges(es []Edge) int {
	return countTrue(b.many(coalesce.OpInsert, es))
}

// DeleteEdges stages a batch of deletions as one atomic group and returns
// the number credited to this call.
func (b *Batcher) DeleteEdges(es []Edge) int {
	return countTrue(b.many(coalesce.OpDelete, es))
}

// ConnectedBatch answers k connectivity queries, all against the same
// post-epoch snapshot; result i corresponds to query pair i.
func (b *Batcher) ConnectedBatch(qs []Edge) []bool {
	return b.many(coalesce.OpQuery, qs)
}

// Do stages a mixed batch of insertions, deletions and queries as one
// atomic group — all land in the same epoch, applied in the epoch's usual
// order (inserts, then deletes, then queries) — and returns one result per
// operation, index-aligned. Unlike the single-kind methods it reports
// failure instead of panicking: an out-of-range vertex or unknown kind
// yields a descriptive error with nothing staged, and ErrClosed is returned
// once Close has begun. It is the entry point remote front-ends use: a
// network frame maps to one Do call, so a malformed or late frame can never
// crash the process hosting the Batcher.
func (b *Batcher) Do(ops []Op) ([]bool, error) {
	bits, _, err := b.DoSeq(ops)
	return bits, err
}

// DoSeq is Do plus the committed epoch's durable position: the WAL sequence
// number the post-epoch state reflects (the epoch's own record for a
// mutating group, the last logged seq for a query-only one, zero without
// WithDurability). It is exact — never a later writer's seq — which makes
// it the correct read-your-writes fence for replica-routed reads.
func (b *Batcher) DoSeq(ops []Op) ([]bool, uint64, error) {
	if b.e.Closed() {
		return nil, 0, ErrClosed
	}
	cops, err := coalesceOps(ops, b.checkRange)
	if err != nil {
		return nil, 0, err
	}
	bits, seq, err := b.e.Apply(cops)
	if err != nil {
		return nil, 0, ErrClosed
	}
	return bits, seq, nil
}

// coalesceOps validates and converts a public mixed batch into the staging
// representation. check validates one vertex pair (nil skips validation).
func coalesceOps(ops []Op, check func(u, v int32) error) ([]coalesce.Op, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	cops := make([]coalesce.Op, len(ops))
	for i, op := range ops {
		if check != nil {
			if err := check(op.U, op.V); err != nil {
				return nil, err
			}
		}
		switch op.Kind {
		case OpInsert:
			cops[i] = coalesce.Op{Kind: coalesce.OpInsert, U: op.U, V: op.V}
		case OpDelete:
			cops[i] = coalesce.Op{Kind: coalesce.OpDelete, U: op.U, V: op.V}
		case OpQuery:
			cops[i] = coalesce.Op{Kind: coalesce.OpQuery, U: op.U, V: op.V}
		default:
			return nil, fmt.Errorf("conn: Batcher.Do: unknown op kind %d", op.Kind)
		}
	}
	return cops, nil
}

// ReadRecent reports whether u and v were connected as of the last committed
// epoch that changed connectivity — the committed tier, wait-free: two array
// loads against an immutable published labelling, never blocking on writers
// or other readers. Every write whose call has returned is visible, and no
// epoch is ever half-visible; operations still staged are not ordered
// against it (use Connected for that). Unlike other methods it remains
// usable after Close, answering from the final snapshot.
func (b *Batcher) ReadRecent(u, v int32) bool {
	b.check(u, v)
	return b.e.Recent().Connected(u, v)
}

// ReadRecentBatch answers k wait-free queries, all against the same
// published snapshot (a single labelling is loaded for the whole batch).
func (b *Batcher) ReadRecentBatch(qs []Edge) []bool {
	if len(qs) == 0 {
		return nil
	}
	l := b.e.Recent()
	out := make([]bool, len(qs))
	for i, q := range qs {
		b.check(q.U, q.V)
		out[i] = l.Connected(q.U, q.V)
	}
	return out
}

// RecentEpoch returns the publish counter of the snapshot ReadRecent is
// answering from; it increases by one per committed epoch that changed
// connectivity. Callers can use it to bound observed staleness.
func (b *Batcher) RecentEpoch() uint64 { return b.e.Recent().Epoch() }

// Flush forces an immediate epoch and blocks until every operation staged
// before the call has committed. Flush on a closed (or closing) Batcher is
// graceful — never a panic: Close's final sweep commits everything a racing
// Flush could have flushed, and Flush waits for that sweep before
// returning, so the barrier guarantee holds on both sides of the race.
func (b *Batcher) Flush() { b.e.Flush() }

// Close commits everything still staged and stops the dispatcher. After
// Close returns the underlying Graph is quiesced and may be used directly.
// Close is idempotent. Once Close has begun, update methods and Connected
// panic; Do and Checkpoint return ErrClosed; Flush is a no-op;
// ReadRecent keeps answering from the final snapshot.
//
// The returned error reports a failure to close the WAL file handle; the
// durable state itself is unaffected (every acknowledged epoch was fsynced
// before its future resolved), so callers that only care about data safety
// may ignore it, but it is no longer silently discarded.
func (b *Batcher) Close() error {
	if err := b.e.Close(); err != nil {
		return fmt.Errorf("conn: closing WAL: %w", err)
	}
	return nil
}

// BatcherStats are dispatcher counters: how much traffic was coalesced and
// how large the epochs got; see engine.Stats for the field-by-field story.
// AvgEpoch is the realized average batch size — the Δ of Theorem 1 under
// the observed traffic.
type BatcherStats = engine.Stats

// Stats returns coalescing counters accumulated since NewBatcher.
func (b *Batcher) Stats() BatcherStats { return b.e.Stats() }
