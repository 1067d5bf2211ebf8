// Package shard scales the write path across partitioned epoch pipelines.
// The vertex space [0, n) is hash-partitioned across k shards; each shard
// owns an internal/engine pipeline (its own dispatcher, WAL fsync stream,
// snapshot labelling and checkpoint cycle) holding exactly the edges whose
// two endpoints both hash to that shard. Edges that straddle partitions go
// to one extra pipeline, the boundary engine. Global connectivity is read
// from one composed labelling: the k+1 engines' published min-vertex
// labellings contracted by a union-find over vertices, composed once per
// acknowledged mutation and shared by every reader (see index.go). Pair
// connectivity is the only read: the coordinator has no structural query,
// no event feed and no replication stream.
//
// The paper's batch-dynamic structure makes this decomposition clean:
// every engine is a full dynamic-connectivity structure over the same
// vertex universe, just over a disjoint subset of the edges, so each shard
// retains the paper's per-batch cost bounds while the k WAL streams fsync
// concurrently — the group-commit latency that bounds a single Batcher's
// write throughput overlaps across shards (benchconn e17 measures the
// scaling).
//
// Durability lives per shard: <dir>/shard-<i>/ and <dir>/boundary/ are
// ordinary engine durability directories (wal.log + checkpoints), restored
// independently on open, plus a tiny "shards" meta file pinning the shard
// count and vertex universe — the partition function is deterministic in
// (vertex, k), so the layout is only valid for the k it was written with.
//
//conn:durable-files
package shard

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/coalesce"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/wal"
)

// ErrClosed is returned by the Coordinator's methods once Close has begun.
var ErrClosed = errors.New("shard: coordinator is closed")

// Partition returns the shard in [0, k) that owns vertex u. It is a pure
// function of (u, k) — clients, servers and restores must agree on it, and
// a durability directory written under one k is only valid for that k.
// Fibonacci multiplicative hashing spreads consecutive vertex ids evenly.
func Partition(u int32, k int) int {
	if k <= 1 {
		return 0
	}
	return int((uint32(u) * 0x9E3779B1) % uint32(k))
}

// Options configure a Coordinator; the zero value is memory-only.
type Options struct {
	// DurDir, when non-empty, roots the per-shard durability directories.
	// Existing state is restored; a fresh directory is initialized with a
	// meta file pinning (shards, n).
	DurDir string
}

// Coordinator hash-partitions a vertex universe across k shard engines
// plus one boundary engine and presents the combined edge set as a single
// connectivity structure. All methods are safe from any number of
// goroutines. Mutating batches are routed per edge (intra-shard edges to
// their shard, cross-shard edges to the boundary engine); queries read the
// published composition index, one global labelling.
//
// Consistency: every query is answered from one composed-labelling
// snapshot per coordinator version. A snapshot is composed from the k+1
// engines' published labellings, each of which covers every epoch its
// engine has acknowledged; it is recomposed only after a mutating batch
// has been acknowledged (or a Flush), so a quiesced Coordinator answers
// exactly and a batch's own queries see its own writes. All answers of
// one call come from the same snapshot, and under insert-only load the
// snapshots only coarsen: a pair once answered connected stays connected.
// Mutations racing a query may be partially visible across shards; a
// caller that needs its own writes visible orders its query after its
// mutating call returns, exactly as with the Batcher's ReadRecent tier.
type Coordinator struct {
	n int
	k int

	// engines[0..k-1] are the shard pipelines; engines[k] is the boundary
	// pipeline holding every cross-shard edge.
	engines []*engine.Engine

	// version advances on every acknowledged mutating batch and every
	// Flush; the composition index caches the version it was composed at
	// and is composed again when stale.
	version atomic.Uint64

	buildMu sync.Mutex // serializes index composes
	idx     atomic.Pointer[compIndex]

	closed atomic.Bool
}

// metaFileName pins (shards, n) inside a sharded durability directory.
const metaFileName = "shards"

// New opens a Coordinator over n vertices and k shards. With a durability
// directory it is open-or-create: per-shard state that exists is restored
// (checkpoint + WAL replay, exactly engine.Restore) and fresh shards start
// empty; the meta file must agree with (k, n) if present. Panics never —
// all failures are errors, and any engines already opened are closed on
// the way out.
func New(n, k int, o Options) (*Coordinator, error) {
	if n <= 0 {
		return nil, fmt.Errorf("shard: New(n=%d): vertex count must be positive", n)
	}
	if k < 1 {
		return nil, fmt.Errorf("shard: New(shards=%d): shard count must be at least 1", k)
	}
	if o.DurDir != "" {
		if err := os.MkdirAll(o.DurDir, 0o755); err != nil {
			return nil, fmt.Errorf("shard: %w", err)
		}
		mk, mn, found, err := ReadMeta(o.DurDir)
		if err != nil {
			return nil, err
		}
		if found && (mk != k || mn != n) {
			return nil, fmt.Errorf("shard: directory %s was written with shards=%d n=%d, opened with shards=%d n=%d",
				o.DurDir, mk, mn, k, n)
		}
		if !found {
			if err := writeMeta(o.DurDir, k, n); err != nil {
				return nil, err
			}
		}
	}
	c := &Coordinator{n: n, k: k, engines: make([]*engine.Engine, k+1)}
	for i := 0; i <= k; i++ {
		dir := ""
		if o.DurDir != "" {
			dir = filepath.Join(o.DurDir, dirName(i, k))
		}
		cc, err := openCore(dir, n)
		if err == nil {
			c.engines[i], err = engine.New(cc, engine.Options{DurDir: dir})
		}
		if err != nil {
			for _, e := range c.engines[:i] {
				// Best-effort unwind; the open error is the one that matters.
				_ = e.Close()
			}
			return nil, fmt.Errorf("shard: opening %s: %w", dirName(i, k), err)
		}
	}
	return c, nil
}

// dirName returns the durability subdirectory for engine i of a k-shard
// layout: shard-0 .. shard-<k-1>, then "boundary" for i == k.
func dirName(i, k int) string {
	if i == k {
		return "boundary"
	}
	return fmt.Sprintf("shard-%d", i)
}

// openCore restores the structure persisted in dir, or builds a fresh one
// when dir is empty/unset.
func openCore(dir string, n int) (*core.Conn, error) {
	if dir == "" {
		return core.New(n), nil
	}
	cc, err := engine.Restore(dir, func(n int) *core.Conn { return core.New(n) })
	if errors.Is(err, engine.ErrNoDurableState) {
		return core.New(n), nil
	}
	if err != nil {
		return nil, err
	}
	if cc.N() != n {
		return nil, fmt.Errorf("durable state has n=%d, want %d", cc.N(), n)
	}
	return cc, nil
}

// ReadMeta reports the (shards, n) a sharded durability directory was
// written with; found is false when the directory has no meta file (fresh,
// or written by an unsharded Batcher).
func ReadMeta(dir string) (k, n int, found bool, err error) {
	raw, err := os.ReadFile(filepath.Join(dir, metaFileName))
	if os.IsNotExist(err) {
		return 0, 0, false, nil
	}
	if err != nil {
		return 0, 0, false, fmt.Errorf("shard: reading meta: %w", err)
	}
	if _, err := fmt.Sscanf(string(raw), "shards %d n %d", &k, &n); err != nil || k < 1 || n < 1 {
		return 0, 0, false, fmt.Errorf("shard: corrupt meta file %s: %q", filepath.Join(dir, metaFileName), raw)
	}
	return k, n, true, nil
}

// writeMeta persists the (shards, n) pin with write-temp-then-rename so a
// crash never leaves a torn meta file.
func writeMeta(dir string, k, n int) error {
	path := filepath.Join(dir, metaFileName)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("shard: writing meta: %w", err)
	}
	if _, err = fmt.Fprintf(f, "shards %d n %d\n", k, n); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err == nil {
		err = wal.SyncDir(dir)
	}
	if err != nil {
		return fmt.Errorf("shard: writing meta: %w", err)
	}
	return nil
}

// N returns the vertex count.
func (c *Coordinator) N() int { return c.n }

// Engines returns the coordinator's pipelines: index 0..k-1 are the shard
// engines, index k the boundary engine. The slice is owned by the
// Coordinator and must not be mutated; the server sums stats per entry.
func (c *Coordinator) Engines() []*engine.Engine { return c.engines }

func (c *Coordinator) checkRange(u, v int32) error {
	if n := int32(c.n); u < 0 || u >= n || v < 0 || v >= n {
		return fmt.Errorf("shard: vertex pair {%d, %d} out of range [0, %d)", u, v, n)
	}
	return nil
}

// engineFor routes one edge: intra-shard edges to their shard's engine,
// cross-shard edges to the boundary engine.
func (c *Coordinator) engineFor(u, v int32) int {
	su, sv := Partition(u, c.k), Partition(v, c.k)
	if su == sv {
		return su
	}
	return c.k
}

// Apply stages a mixed batch of insertions, deletions and queries and
// blocks until every operation has committed; one result per op,
// index-aligned (insert/delete credit, or the query's answer). Each edge
// routes to the engine that owns it, so the within-batch insert-then-
// delete composition of the Batcher holds per edge; queries are answered
// after every mutation in the batch has been acknowledged, against the
// post-batch state. Atomicity is per engine: a batch that spans shards
// commits as one epoch on each engine it touches, not as one global epoch.
func (c *Coordinator) Apply(ops []coalesce.Op) ([]bool, error) {
	if c.closed.Load() {
		return nil, ErrClosed
	}
	res := make([]bool, len(ops))
	per := make([][]coalesce.Op, c.k+1)
	perIdx := make([][]int, c.k+1)
	var qIdx []int
	var qs []graph.Edge
	mutated := false
	for i, op := range ops {
		if err := c.checkRange(op.U, op.V); err != nil {
			return nil, err
		}
		switch op.Kind {
		case coalesce.OpInsert, coalesce.OpDelete:
			e := c.engineFor(op.U, op.V)
			per[e] = append(per[e], op)
			perIdx[e] = append(perIdx[e], i)
			mutated = true
		case coalesce.OpQuery:
			qIdx = append(qIdx, i)
			qs = append(qs, graph.Edge{U: op.U, V: op.V})
		default:
			return nil, fmt.Errorf("shard: unknown op kind %d", op.Kind)
		}
	}
	// Scatter the mutation sub-batches to their engines first, then wait:
	// the k WAL fsyncs run concurrently, which is the point of sharding.
	type inflight struct {
		eng int
		fut coalesce.Future
	}
	var subs []inflight
	for e, list := range per {
		if len(list) == 0 {
			continue
		}
		f, err := c.engines[e].Submit(list)
		if err != nil {
			// Close raced in. Sub-batches already submitted still commit
			// via the engines' final sweeps — per-engine atomicity, not
			// global, exactly as documented.
			return nil, ErrClosed
		}
		subs = append(subs, inflight{e, f})
	}
	for _, s := range subs {
		for j, ok := range s.fut.Wait() {
			res[perIdx[s.eng][j]] = ok
		}
	}
	if mutated {
		c.version.Add(1)
	}
	if len(qIdx) > 0 {
		ans, err := c.ConnectedBatch(qs)
		if err != nil {
			return nil, err
		}
		for j, i := range qIdx {
			res[i] = ans[j]
		}
	}
	return res, nil
}

// Flush forces an epoch on every engine and blocks until everything staged
// before the call has committed on its shard, then advances the version so
// the next query composes the flushed state.
func (c *Coordinator) Flush() {
	for _, e := range c.engines {
		e.Flush()
	}
	c.version.Add(1)
}

// Checkpoint snapshots every engine's edge set into its shard directory
// and truncates the per-shard WALs, in shard order then boundary. Each
// engine's checkpoint is transactionally consistent with its own log; the
// set is not a global atomic cut, which is fine — restore replays each
// shard independently and the union is exactly the acknowledged edge set.
// Returns the snapshot paths.
func (c *Coordinator) Checkpoint() ([]string, error) {
	if !c.engines[0].Durable() {
		return nil, errors.New("shard: Checkpoint on a Coordinator without durability")
	}
	paths := make([]string, 0, len(c.engines))
	for i, e := range c.engines {
		p, err := e.Checkpoint()
		if errors.Is(err, engine.ErrClosed) {
			return nil, ErrClosed
		}
		if err != nil {
			return nil, fmt.Errorf("shard: checkpoint %s: %w", dirName(i, c.k), err)
		}
		paths = append(paths, p)
	}
	return paths, nil
}

// Close commits everything staged, stops every dispatcher and closes the
// per-shard WALs. Idempotent; the joined error reports WAL-handle close
// failures (durable state is unaffected).
func (c *Coordinator) Close() error {
	c.closed.Store(true)
	var errs []error
	for i, e := range c.engines {
		if err := e.Close(); err != nil {
			errs = append(errs, fmt.Errorf("shard: closing %s: %w", dirName(i, c.k), err))
		}
	}
	return errors.Join(errs...)
}
