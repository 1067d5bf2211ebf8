// Package engine is the dispatcher-owned epoch pipeline extracted from the
// public Batcher: coalesce drain → WAL append+fsync → epoch execution →
// snapshot publish → acks → epoch-boundary work. One Engine owns one
// single-writer core.Conn, and its dispatcher goroutine is the only one
// that touches it: mutations run in execEpoch, and everything else that
// needs the live structure or dispatcher-owned state — traversals (Read),
// checkpoints, subscriber registration — runs on the dispatcher between
// epochs through coalesce.Buffer.Do. The package declares no lock. Any
// number of goroutines submit operations through the coalescing buffer and
// block on futures.
//
// The package exists so that a front-end can host N of these: the public
// conn.Batcher wraps exactly one Engine, a plain server namespace is a bare
// Engine, and internal/shard composes several — one per vertex partition
// plus one for the boundary graph — into a sharded connectivity service.
// Every concurrency and durability contract the Batcher used to carry lives
// here now, enforced by the //conn: directives (see internal/lint): the
// epoch pipeline is dispatcher-only, futures resolve only after the WAL
// fsync barrier, the snapshot labelling is published immutably, and durable
// file errors are never silently dropped.
//
//conn:durable-files
package engine

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/checkpoint"
	"repro/internal/coalesce"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/snapshot"
	"repro/internal/wal"
)

// WALFileName is the write-ahead log's file name inside a durability
// directory.
const WALFileName = "wal.log"

// ErrClosed is returned by the Engine's error-returning methods once Close
// has begun.
var ErrClosed = errors.New("engine: closed")

// Options configure an Engine. The zero value selects the defaults.
type Options struct {
	// DurDir, when non-empty, enables the durable write pipeline: each
	// mutating epoch is appended to DurDir/wal.log and fsynced before it is
	// applied or acknowledged.
	DurDir string
	// Hook, when non-nil, observes each committed epoch (concatenated ops
	// and their results) from the dispatcher goroutine. Tests use it to
	// replay epochs against an oracle.
	Hook func(ops []coalesce.Op, res []bool)
}

// EpochRecord is one durable mutating epoch as observed by an epoch
// subscriber: the WAL sequence number and the raw coalesced insert and
// delete batches, in application order. Replaying Ins then Del through the
// batch operations reproduces the epoch exactly (duplicates, present
// inserts and absent deletes are ignored at every layer). The slices are
// shared across subscribers and must not be mutated.
type EpochRecord struct {
	Seq uint64
	Ins []graph.Edge
	Del []graph.Edge
	// Codec and Enc carry the record's on-disk encoding (the WAL codec
	// version byte and the exact payload bytes appended to the log): the
	// replication hub ships every epoch to followers as exactly these
	// bytes. Enc is freshly allocated per epoch and safe to retain.
	Codec byte
	Enc   []byte
}

// epochSub is one registered epoch subscriber.
type epochSub struct {
	// fn observes a durable epoch; calling it exposes the epoch to the
	// outside world, so it counts as an acknowledgement.
	//
	//conn:ack
	fn func(EpochRecord)
}

// diffSub is one registered snapshot-diff subscriber (SubscribeDiffs).
type diffSub struct {
	// fn observes a partition-changing epoch's labelling transition, on the
	// dispatcher goroutine, with the epoch's durable seq. It must not block.
	//
	//conn:dispatcher-only
	fn func(seq uint64, d *snapshot.Diff)
}

// durability is the dispatcher-owned durable-write state.
type durability struct {
	dir string
	log *wal.Log

	// Counters are written by the dispatcher but read by Stats from any
	// goroutine.
	records     atomic.Int64
	bytes       atomic.Int64
	rawBytes    atomic.Int64 // fixed-width size of the same records: the compression baseline
	appendNanos atomic.Int64
	checkpoints atomic.Int64
}

// Engine runs the epoch pipeline for one core.Conn. All methods are safe
// from any goroutine; the structure itself is touched only by the dispatcher
// goroutine the coalescing buffer starts.
//
// Read, Checkpoint and a subscription's cancel wait for the dispatcher, so
// they must not be called from a dispatcher callback (an epoch or diff
// subscriber, the Hook, or a function Read runs): the call would wait for
// itself.
type Engine struct {
	c   *core.Conn
	buf *coalesce.Buffer

	// snap is the epoch-published component labelling: the committed read
	// tier (ReadNowBatch, Recent).
	snap *snapshot.Store

	// dur, when non-nil, is the durability pipeline: the dispatcher appends
	// each mutating epoch to the WAL and fsyncs before touching the
	// structure, so an acknowledged write is a durable write.
	dur *durability

	closed atomic.Bool

	// applied is the durable seq of the last fully applied (and snapshot-
	// published) epoch — what AppliedSeq reports. It trails WALSeq by the
	// width of one epoch's apply phase: a record is logged first, applied
	// after.
	applied atomic.Uint64

	// subs are the epoch subscribers (SubscribeEpochs): the durable
	// dispatcher path tees each fsynced epoch to every entry. diffSubs are
	// the snapshot-diff subscribers (SubscribeDiffs): execEpoch tees each
	// partition-changing labelling transition — the connectivity event
	// feed. Both are touched only on the dispatcher; registration and
	// cancellation go through Do.
	subs     []*epochSub
	diffSubs []*diffSub

	hook func(ops []coalesce.Op, res []bool)
}

// New wraps c in an epoch pipeline and starts its dispatcher. The caller
// owns c's lifecycle; the Engine only requires that nothing else touches c
// until Close returns. If o.DurDir is set, c must already reflect the
// durable state in that directory — either the directory is fresh, or c
// came from Restore.
func New(c *core.Conn, o Options) (*Engine, error) {
	e := &Engine{c: c, hook: o.Hook}
	if o.DurDir != "" {
		if err := os.MkdirAll(o.DurDir, 0o755); err != nil {
			return nil, err
		}
		log, err := wal.Open(filepath.Join(o.DurDir, WALFileName), c.N())
		if err != nil {
			return nil, err
		}
		e.dur = &durability{dir: o.DurDir, log: log}
		// The durability contract says c already reflects the durable state
		// in the directory (fresh, or from Restore, which replays the full
		// log), so the applied position starts at the log's end, not zero.
		e.applied.Store(log.LastSeq())
	}
	// core.Conn implements snapshot.Source (ComponentID / ComponentSize /
	// ComponentVertices / ComponentLabels are read-only queries); the store
	// computes the initial labelling from the structure's current state. Zero
	// selects the store's default repair budget.
	e.snap = snapshot.NewStore(c.N(), 0, c)
	e.buf = coalesce.NewBuffer(e.execEpoch) //conn:dispatcher-entry — hands execEpoch to the dispatcher goroutine
	return e, nil
}

// N returns the vertex count of the underlying structure.
func (e *Engine) N() int { return e.c.N() }

// Durable reports whether the Engine was created with a durability
// directory.
func (e *Engine) Durable() bool { return e.dur != nil }

// Dir returns the durability directory, or "" for a memory-only Engine.
func (e *Engine) Dir() string {
	if e.dur == nil {
		return ""
	}
	return e.dur.dir
}

// Closed reports whether Close has begun.
func (e *Engine) Closed() bool { return e.closed.Load() }

// Pending returns the number of staged-but-uncommitted operations.
func (e *Engine) Pending() int64 { return e.buf.Pending() }

// Submit stages ops as one atomic group and returns the future that
// resolves when their epoch commits. The caller must have validated vertex
// ranges; Submit fails only once Close has begun.
func (e *Engine) Submit(ops []coalesce.Op) (coalesce.Future, error) {
	f, err := e.buf.Submit(ops)
	if err != nil {
		return coalesce.Future{}, ErrClosed
	}
	return f, nil
}

// Apply stages ops as one atomic group, blocks until the epoch containing
// them commits, and returns the per-op results plus the epoch's durable
// commit position (see DoSeq on the public Batcher for the seq contract).
func (e *Engine) Apply(ops []coalesce.Op) ([]bool, uint64, error) {
	if len(ops) == 0 {
		return nil, e.WALSeq(), nil
	}
	f, err := e.Submit(ops)
	if err != nil {
		return nil, 0, err
	}
	return f.Wait(), f.Seq(), nil
}

// logEpoch makes an epoch's updates durable before any of them is applied
// or acknowledged: it collects the raw coalesced insert and delete batches
// (self-loops dropped — they are no-ops at every layer) and appends them as
// one WAL record in the log's codec. Replaying the raw batches through the
// batch operations reproduces the epoch exactly, because those operations
// ignore duplicates, already-present inserts and absent deletes — the same
// filtering execEpoch's credit pre-scans perform.
//
// This is the one durability policy: append, Sync, tee — and only then
// does execEpoch apply, publish and acknowledge. The tee is an
// acknowledgement path (the replication Hub ships the record to
// followers), so it must stay behind the Sync barrier. The per-epoch fsync
// is also the group commit: while it runs, new submissions pile up in the
// coalescing buffer and form the next, larger epoch, so one fsync covers
// everything that arrived during the previous one.
//
//conn:dispatcher-only
//conn:ack-after-fsync
func (e *Engine) logEpoch(ops []coalesce.Op) {
	var ins, del []graph.Edge
	for _, op := range ops {
		if op.U == op.V {
			continue
		}
		switch op.Kind {
		case coalesce.OpInsert:
			ins = append(ins, graph.Edge{U: op.U, V: op.V})
		case coalesce.OpDelete:
			del = append(del, graph.Edge{U: op.U, V: op.V})
		}
	}
	if len(ins) == 0 && len(del) == 0 {
		return // query-only epoch: nothing to make durable
	}
	rec := wal.Record{Seq: e.dur.log.LastSeq() + 1, Ins: ins, Del: del}
	t0 := time.Now()
	nbytes, payload, err := e.dur.log.AppendRecord(rec)
	if err != nil {
		panic(fmt.Sprintf("engine: durable pipeline cannot append to WAL: %v", err))
	}
	if err := e.dur.log.Sync(); err != nil {
		panic(fmt.Sprintf("engine: durable pipeline cannot sync WAL: %v", err))
	}
	e.dur.appendNanos.Add(time.Since(t0).Nanoseconds())
	e.dur.records.Add(1)
	e.dur.bytes.Add(int64(nbytes))
	e.dur.rawBytes.Add(int64(wal.RawSize(rec)))
	er := EpochRecord{Seq: rec.Seq, Ins: ins, Del: del,
		Codec: e.dur.log.Codec().Version(), Enc: payload}
	// Replication tee: the record is durable, so subscribers (the Hub
	// shipping epochs to followers) may see it now — before the epoch is
	// applied or acknowledged, exactly the ordering the WAL itself gets.
	for _, s := range e.subs {
		s.fn(er)
	}
}

// SubscribeEpochs registers fn as an epoch subscriber: the dispatcher calls
// it for every mutating epoch, on the dispatcher goroutine, after the
// epoch's WAL record is fsynced and before the epoch is applied or any
// caller's future resolves. fn must not block — a slow consumer must buffer
// or drop on its own side of the hand-off, never stall the write pipeline.
// Only durable Engines emit epochs; on a memory-only Engine the
// subscription is registered but never fires. Registration and the returned
// cancel both run on the dispatcher between epochs; cancel is idempotent,
// is a no-op once Close has begun, and must not be called from a dispatcher
// callback.
func (e *Engine) SubscribeEpochs(fn func(EpochRecord)) (cancel func()) {
	return subscribe(e, &e.subs, &epochSub{fn: fn})
}

// subscribe appends sub to a dispatcher-owned subscriber list, on the
// dispatcher, and returns the cancel that removes it there. Both are no-ops
// once Close has begun.
func subscribe[T comparable](e *Engine, list *[]T, sub T) (cancel func()) {
	_ = e.buf.Do(func() { *list = append(*list, sub) })
	return func() {
		_ = e.buf.Do(func() { *list = slices.DeleteFunc(*list, func(s T) bool { return s == sub }) })
	}
}

// SubscribeDiffs registers fn as a snapshot-diff subscriber: the dispatcher
// calls it for every epoch that changed the connectivity partition, on the
// dispatcher goroutine, after the new labelling is published and before any
// caller's future resolves. seq is the epoch's durable WAL position (zero
// without durability). fn must not block — internal/pubsub's Hub.Feed, the
// intended consumer, buffers per subscriber and drops on overflow. Unlike
// SubscribeEpochs this fires on memory-only engines too: events are a
// property of the partition, not of the log. Registration and cancel run
// on the dispatcher, exactly as for SubscribeEpochs.
func (e *Engine) SubscribeDiffs(fn func(seq uint64, d *snapshot.Diff)) (cancel func()) {
	//conn:dispatcher-entry — hands the diff tee to the dispatcher goroutine
	return subscribe(e, &e.diffSubs, &diffSub{fn: fn})
}

// WALSeq returns the sequence number of the last durable epoch (zero
// without durability, or before the first mutating epoch when the log has
// never been checkpointed). Safe from any goroutine.
func (e *Engine) WALSeq() uint64 {
	if e.dur == nil {
		return 0
	}
	return e.dur.log.LastSeq()
}

// SyncedSeq returns the WAL's synced frontier: the highest sequence number
// covered by a completed fsync (equal to WALSeq except between an epoch's
// append and its fsync; zero without durability). Replication ships only
// records at or below it, and no epoch above it is ever applied, published
// or acknowledged. Safe from any goroutine.
func (e *Engine) SyncedSeq() uint64 {
	if e.dur == nil {
		return 0
	}
	return e.dur.log.SyncedSeq()
}

// AppliedSeq returns the durable seq of the last epoch whose mutations are
// fully applied and visible to every read tier. It trails WALSeq by at most
// the in-flight epoch (logged-but-not-yet-applied), which makes it the seq
// a read response may claim: sampled before a read, it never exceeds the
// state the read reflects. Safe from any goroutine.
func (e *Engine) AppliedSeq() uint64 { return e.applied.Load() }

// WALFloor returns the WAL's checkpoint floor: the sequence number already
// captured by the checkpoint the log was last reset behind (zero if never
// reset, or without durability). Records in the live log cover exactly
// (WALFloor, WALSeq]. Safe from any goroutine.
func (e *Engine) WALFloor() uint64 {
	if e.dur == nil {
		return 0
	}
	return e.dur.log.BaseSeq()
}

// checkpoint runs on the dispatcher between epochs, when the graph is
// stable and every WAL record appended so far has been applied — so a
// snapshot of the live edge set captures exactly the log's prefix and the
// log can be truncated behind it.
//
//conn:dispatcher-only
func (e *Engine) checkpoint() (string, error) {
	seq := e.dur.log.LastSeq()
	edges := e.c.SpanningForest()
	edges = append(edges, e.c.NonTreeEdges()...)
	snap := checkpoint.Snapshot{Seq: seq, N: e.c.N(), Edges: edges}
	path, err := checkpoint.Write(e.dur.dir, snap)
	if err == nil {
		// Prune prior checkpoints and count the new one only after the WAL
		// reset succeeds. If Reset fails, the directory must keep a usable
		// (checkpoint, log) pair: the older snapshots stay as fallbacks and
		// the log keeps every record, so Restore still recovers the full
		// acked history whichever checkpoint it manages to read. The new
		// snapshot file is left in place too — it is valid, just not yet
		// the log's floor.
		if err = e.resetLog(seq); err == nil {
			checkpoint.Prune(e.dur.dir, seq)
			e.dur.checkpoints.Add(1)
		} else {
			path = ""
		}
	}
	return path, err
}

// resetLog truncates the WAL behind the durable checkpoint at seq. The
// chaos site models the truncation failing (a disk error between the
// checkpoint write and the log reset): checkpoint's fallback must
// keep the older checkpoints and the full log so Restore still recovers the
// complete acked history.
func (e *Engine) resetLog(seq uint64) error {
	if flt := chaos.Inject(chaos.SiteEngineCheckpointReset); flt != nil {
		return flt.Err()
	}
	return e.dur.log.Reset(seq)
}

// Checkpoint durably snapshots the current edge set into the durability
// directory and truncates the WAL behind it, bounding restart replay time.
// It blocks until the snapshot is on disk and returns its file path. The
// snapshot is taken at an epoch boundary by the dispatcher itself, so it is
// transactionally consistent with the log: every operation acknowledged
// before Checkpoint returns is either in the snapshot or in the remaining
// WAL tail. Returns an error on an Engine without durability, and ErrClosed
// (never a panic) once Close has begun; a Checkpoint that raced Close and
// was staged first runs in the final sweep. Must not be called from a
// dispatcher callback.
func (e *Engine) Checkpoint() (string, error) {
	if e.dur == nil {
		return "", errors.New("engine: Checkpoint without durability")
	}
	var path string
	var err error
	if e.buf.Do(func() {
		path, err = e.checkpoint() //conn:dispatcher-entry — Do runs this on the dispatcher
	}) != nil {
		return "", ErrClosed
	}
	return path, err
}

// execEpoch applies one drained epoch to the underlying structure and
// returns the results plus the epoch's durable commit position (the WAL seq
// the epoch's state reflects: its own record's seq for a mutating epoch,
// the last logged seq for a query-only one, zero without durability). It
// runs on the dispatcher goroutine only, so the single-writer contract of
// core.Conn holds. Insert and delete credit goes to the first staging of
// each edge in epoch order; queries are answered from the post-epoch
// labelling, published before any of the epoch's futures resolve.
//
//conn:dispatcher-only
func (e *Engine) execEpoch(ops []coalesce.Op) ([]bool, uint64) {
	// Durability barrier: the epoch's updates hit the fsynced WAL before
	// the first structure mutation and before any future resolves, so a
	// caller that observes its commit can never lose the write to a crash.
	if e.dur != nil {
		e.logEpoch(ops)
	}
	// The epoch's commit position is sampled here, after this epoch's own
	// append and before any later epoch can log: exactly the seq a caller
	// needs for read-your-writes fencing, never a later writer's.
	epochSeq := e.WALSeq()

	res := make([]bool, len(ops))
	var insIdx, delIdx, qIdx []int
	for i, op := range ops {
		switch op.Kind {
		case coalesce.OpInsert:
			insIdx = append(insIdx, i)
		case coalesce.OpDelete:
			delIdx = append(delIdx, i)
		default:
			qIdx = append(qIdx, i)
		}
	}

	// touched collects the endpoints of applied updates that can actually
	// move a component label — the dirty set the snapshot publisher repairs
	// from. Credited updates that provably preserve the partition are
	// filtered out here so write-heavy epochs of intra-component inserts
	// and non-tree deletes skip snapshot work entirely:
	//   - an insert whose endpoints share a label in the published
	//     snapshot (which is exact for the pre-epoch graph: every
	//     label-changing epoch republishes) joins nothing;
	//   - a non-tree delete leaves the spanning forest intact, and any
	//     fragment a batch of deletions splits off is bounded by deleted
	//     TREE edges, whose endpoints it contains.
	// The insert pre-scan fills touched with the merging inserts' endpoints,
	// in pairs, and hands exactly that list to snap.Prepare before anything
	// mutates; the delete pre-scan then appends the cut tree edges'
	// endpoints. Publish walks the small dirty components and verifies the
	// large ones (the giant) against Prepare's merge groups, so an epoch
	// costs the small sides of its merges, not a relabelling of all n.
	var touched []int32

	// The insert pre-scan (dedup + presence filter) and Prepare read only
	// pre-epoch state.
	var insBatch []graph.Edge
	if len(insIdx) > 0 {
		lbl := e.snap.Current() // pre-epoch labelling
		seen := make(map[uint64]struct{}, len(insIdx))
		insBatch = make([]graph.Edge, 0, len(insIdx))
		for _, i := range insIdx {
			u, v := ops[i].U, ops[i].V
			if u == v {
				continue
			}
			k := graph.Edge{U: u, V: v}.Key()
			if _, dup := seen[k]; dup {
				continue
			}
			seen[k] = struct{}{}
			if !e.c.HasEdge(u, v) {
				res[i] = true
				insBatch = append(insBatch, graph.Edge{U: u, V: v})
				if !lbl.Connected(u, v) {
					touched = append(touched, u, v)
				}
			}
		}
	}
	// Every epoch prepares, deletes-only ones included: an unprepared
	// Publish must relabel whenever a dirty component is too large to walk.
	e.snap.Prepare(touched)

	if len(insBatch) > 0 {
		e.c.BatchInsert(insBatch)
	}
	if len(delIdx) > 0 {
		// The delete pre-scan reads post-insert presence, so an insert and
		// a delete of the same edge in one epoch compose.
		seen := make(map[uint64]struct{}, len(delIdx))
		batch := make([]graph.Edge, 0, len(delIdx))
		for _, i := range delIdx {
			u, v := ops[i].U, ops[i].V
			if u == v {
				continue
			}
			k := graph.Edge{U: u, V: v}.Key()
			if _, dup := seen[k]; dup {
				continue
			}
			seen[k] = struct{}{}
			// Tree-ness is read post-insert, pre-delete — exactly the
			// forest BatchDelete will sever.
			if present, tree := e.c.EdgeInfo(u, v); present {
				res[i] = true
				batch = append(batch, graph.Edge{U: u, V: v})
				if tree {
					touched = append(touched, u, v)
				}
			}
		}
		e.c.BatchDelete(batch)
	}

	// Publish before the dispatcher resolves the epoch's futures (our
	// caller, coalesce.drain, closes them after we return): once any caller
	// observes its commit, the committed read tier already reflects the
	// epoch. A non-nil diff means this epoch changed the partition; tee the
	// transition to the connectivity-event subscribers (internal/pubsub's
	// hub) — still on the dispatcher, still before any future resolves, so
	// a caller that observes its commit can also already observe its
	// events.
	if d := e.snap.Publish(touched); d != nil {
		for _, s := range e.diffSubs {
			s.fn(epochSeq, d)
		}
	}

	// The epoch's queries read the labelling just published, which is
	// exact for the post-epoch graph.
	if len(qIdx) > 0 {
		lbl := e.snap.Current()
		for _, i := range qIdx {
			res[i] = lbl.Connected(ops[i].U, ops[i].V)
		}
	}

	if e.hook != nil {
		e.hook(ops, res)
	}
	// The epoch is fully applied and its snapshot published: readers that
	// sample AppliedSeq from here on may safely claim this position —
	// a claimed seq never exceeds the state a subsequent read reflects.
	e.applied.Store(epochSeq)
	return res, epochSeq
}

// ReadNowBatch answers k connectivity queries from one published labelling
// — the committed tier: every acknowledged epoch, never a partial one, two
// array loads per pair. Returns ErrClosed once Close has begun (Recent
// keeps answering from the final snapshot).
func (e *Engine) ReadNowBatch(qs []graph.Edge) ([]bool, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	l := e.snap.Current()
	out := make([]bool, len(qs))
	for i, q := range qs {
		out[i] = l.Connected(q.U, q.V)
	}
	return out, nil
}

// Read runs f against the live structure on the dispatcher, between
// epochs, and blocks until it returns: f sees every operation staged before
// the call, never a partial epoch, and may call AppliedSeq for the exact
// seq of the state it reads. f must use only read-only queries of
// core.Conn and must not retain the pointer. It is the path for what the
// labelling cannot answer — the adjacency and spanning-forest walks of
// internal/query traversals. A long f delays the next epoch, never the acks
// of its own. Returns ErrClosed once Close has begun; must not be called
// from a dispatcher callback (f included).
func (e *Engine) Read(f func(c *core.Conn)) error {
	if e.buf.Do(func() { f(e.c) }) != nil {
		return ErrClosed
	}
	return nil
}

// Recent returns the current published component labelling — the wait-free
// committed tier. Usable even after Close (answers from the final
// snapshot).
func (e *Engine) Recent() *snapshot.Labels { return e.snap.Current() }

// Flush forces an immediate epoch and blocks until every operation staged
// before the call has committed. Flush on a closed (or closing) Engine is
// graceful — never an error: Close's final sweep commits everything a
// racing Flush could have flushed, and Flush waits for that sweep before
// returning, so the barrier guarantee holds on both sides of the race.
func (e *Engine) Flush() {
	if err := e.buf.Flush(); err != nil {
		// ErrClosed: Close has begun but its final drain may not have run
		// yet. Buffer.Close is idempotent and blocks until the dispatcher
		// (final sweep included) has exited — ride it instead of failing.
		e.buf.Close()
	}
}

// Close commits everything still staged and stops the dispatcher. After
// Close returns the underlying core.Conn is quiesced and may be used
// directly. Close is idempotent. The returned error reports a failure to
// close the WAL file handle; the durable state itself is unaffected (every
// acknowledged epoch was fsynced before its future resolved).
func (e *Engine) Close() error {
	e.closed.Store(true)
	e.buf.Close()
	var err error
	if e.dur != nil {
		// The dispatcher has exited; every acknowledged epoch is already
		// fsynced, so closing the log handle loses no data — but the
		// error still surfaces to the caller.
		err = e.dur.log.Close()
	}
	return err
}

// Stats are dispatcher counters: how much traffic was coalesced and how
// large the epochs got. AvgEpoch is the realized average batch size — the Δ
// of Theorem 1 under the observed traffic. SnapshotPublishes counts
// publications of the committed tier's labelling (what ReadNowBatch,
// Recent and every committed read answer from), and SnapshotRebuilds how
// many of them fell back from walk-and-verify repair to a full
// relabelling.
type Stats struct {
	Epochs            int64
	Ops               int64
	MaxEpoch          int64
	SnapshotPublishes int64
	SnapshotRebuilds  int64

	// Durability counters (zero without durability): WAL records are
	// mutating epochs; WALFsyncs is how many fsyncs they cost (one per
	// record). WALBytes is the encoded bytes appended, WALRawBytes what the
	// same records would have cost fixed-width — the codec's compression
	// baseline. WALAppendTime is the total wall time spent in append +
	// fsync, the per-epoch durable overhead benchconn e14 measures.
	// Checkpoints counts snapshots written.
	WALRecords    int64
	WALBytes      int64
	WALRawBytes   int64
	WALFsyncs     int64
	WALAppendTime time.Duration
	Checkpoints   int64
}

// AvgEpoch returns the mean operations per committed epoch.
func (s Stats) AvgEpoch() float64 {
	if s.Epochs == 0 {
		return 0
	}
	return float64(s.Ops) / float64(s.Epochs)
}

// Stats returns pipeline counters accumulated since New.
func (e *Engine) Stats() Stats {
	s := e.buf.Stats()
	sn := e.snap.Stats()
	out := Stats{
		Epochs: s.Epochs, Ops: s.Ops, MaxEpoch: s.MaxEpoch,
		SnapshotPublishes: sn.Publishes, SnapshotRebuilds: sn.Rebuilds,
	}
	if e.dur != nil {
		out.WALRecords = e.dur.records.Load()
		out.WALBytes = e.dur.bytes.Load()
		out.WALRawBytes = e.dur.rawBytes.Load()
		out.WALFsyncs = int64(e.dur.log.Fsyncs())
		out.WALAppendTime = time.Duration(e.dur.appendNanos.Load())
		out.Checkpoints = e.dur.checkpoints.Load()
	}
	return out
}
