package engine

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/coalesce"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/unionfind"
)

// oracle mirrors the epoch semantics sequentially: inserts credit first
// staging, deletes run against the post-insert set, queries answer the
// epoch's post-update state.
type oracle struct {
	n     int
	edges map[[2]int32]bool
}

func newOracle(n int) *oracle { return &oracle{n: n, edges: map[[2]int32]bool{}} }

func canon(u, v int32) [2]int32 {
	if u > v {
		u, v = v, u
	}
	return [2]int32{u, v}
}

func (o *oracle) apply(ops []coalesce.Op) []bool {
	res := make([]bool, len(ops))
	for i, op := range ops {
		if op.Kind != coalesce.OpInsert || op.U == op.V {
			continue
		}
		if k := canon(op.U, op.V); !o.edges[k] {
			o.edges[k] = true
			res[i] = true
		}
	}
	for i, op := range ops {
		if op.Kind != coalesce.OpDelete || op.U == op.V {
			continue
		}
		if k := canon(op.U, op.V); o.edges[k] {
			delete(o.edges, k)
			res[i] = true
		}
	}
	var uf *unionfind.UF
	for i, op := range ops {
		if op.Kind != coalesce.OpQuery {
			continue
		}
		if uf == nil {
			uf = o.uf()
		}
		res[i] = uf.Connected(op.U, op.V)
	}
	return res
}

func (o *oracle) uf() *unionfind.UF {
	uf := unionfind.New(o.n)
	for k := range o.edges {
		uf.Union(k[0], k[1])
	}
	return uf
}

func randOps(rng *rand.Rand, n, count int) []coalesce.Op {
	ops := make([]coalesce.Op, count)
	for i := range ops {
		kind := coalesce.OpInsert
		switch r := rng.Intn(100); {
		case r < 45:
		case r < 75:
			kind = coalesce.OpDelete
		default:
			kind = coalesce.OpQuery
		}
		ops[i] = coalesce.Op{Kind: kind, U: int32(rng.Intn(n)), V: int32(rng.Intn(n))}
	}
	return ops
}

// checkAllPairs compares the engine's committed-tier answers for every
// vertex pair against the oracle.
func checkAllPairs(t *testing.T, e *Engine, o *oracle) {
	t.Helper()
	uf := o.uf()
	var qs []graph.Edge
	for u := int32(0); u < int32(o.n); u++ {
		for v := u + 1; v < int32(o.n); v++ {
			qs = append(qs, graph.Edge{U: u, V: v})
		}
	}
	bits, err := e.ReadNowBatch(qs)
	if err != nil {
		t.Fatalf("ReadNowBatch: %v", err)
	}
	for i, q := range qs {
		if want := uf.Connected(q.U, q.V); bits[i] != want {
			t.Fatalf("pair {%d,%d}: got %v, oracle says %v", q.U, q.V, bits[i], want)
		}
	}
}

// TestEngineEpochPipeline drives a memory engine through randomized mixed
// batches against a sequential oracle and checks every read path — Apply
// results, the committed tier (ReadNowBatch after every Apply, with no
// Flush: an ack implies the epoch is visible), the Read callback, the
// Recent labelling — plus the pipeline counters.
func TestEngineEpochPipeline(t *testing.T) {
	const n = 96
	rounds := 80
	if testing.Short() {
		rounds = 25
	}
	e, err := New(core.New(n), Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer func() { _ = e.Close() }()
	if e.N() != n || e.Durable() || e.Closed() {
		t.Fatalf("fresh engine: N=%d durable=%v closed=%v", e.N(), e.Durable(), e.Closed())
	}

	o := newOracle(n)
	rng := rand.New(rand.NewSource(7))
	var total int64
	for r := 0; r < rounds; r++ {
		ops := randOps(rng, n, 1+rng.Intn(24))
		total += int64(len(ops))
		got, _, err := e.Apply(ops)
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		want := o.apply(ops)
		for i := range ops {
			if got[i] != want[i] {
				t.Fatalf("round %d op %d (%+v): got %v, oracle says %v",
					r, i, ops[i], got[i], want[i])
			}
		}
		checkAllPairs(t, e, o)
	}

	// The live structure, walked on the dispatcher, agrees with the
	// labelling the committed tier answered from.
	uf := o.uf()
	if err := e.Read(func(c *core.Conn) {
		for u := int32(0); u < n; u += 7 {
			v := (u + 13) % n
			if got := c.Connected(u, v); got != uf.Connected(u, v) {
				t.Errorf("Read callback Connected(%d,%d) = %v, want %v", u, v, got, uf.Connected(u, v))
			}
		}
	}); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if lbl := e.Recent(); lbl == nil || lbl.Len() != n {
		t.Fatalf("Recent() = %v", lbl)
	}

	st := e.Stats()
	if st.Epochs == 0 || st.Ops != total || st.MaxEpoch == 0 || st.AvgEpoch() <= 0 {
		t.Fatalf("stats = %+v after %d ops", st, total)
	}
	if st.WALRecords != 0 || st.Checkpoints != 0 {
		t.Fatalf("memory engine has durability counters: %+v", st)
	}

	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, _, err := e.Apply(randOps(rng, n, 4)); err != ErrClosed {
		t.Fatalf("Apply after Close = %v, want ErrClosed", err)
	}
	if _, err := e.ReadNowBatch([]graph.Edge{{U: 0, V: 1}}); err != ErrClosed {
		t.Fatalf("ReadNowBatch after Close = %v, want ErrClosed", err)
	}
	// The wait-free tier keeps answering from the final snapshot.
	if got := e.Recent().Connected(0, 1); got != uf.Connected(0, 1) {
		t.Fatalf("Recent after Close: got %v want %v", got, uf.Connected(0, 1))
	}
}

// TestEngineDurableRestore exercises the durable pipeline end to end: WAL
// append + epoch subscription tee, a mid-stream checkpoint with WAL
// truncation, restore (checkpoint + WAL tail) into a fresh engine, and the
// epoch-record replay contract (replaying Ins then Del reproduces the
// state).
func TestEngineDurableRestore(t *testing.T) {
	const n = 64
	rounds := 40
	if testing.Short() {
		rounds = 12
	}
	dir := t.TempDir()
	e, err := New(core.New(n), Options{DurDir: dir})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if !e.Durable() {
		t.Fatal("engine with DurDir is not durable")
	}

	var mu sync.Mutex
	var shipped []EpochRecord
	cancel := e.SubscribeEpochs(func(rec EpochRecord) {
		mu.Lock()
		shipped = append(shipped, rec)
		mu.Unlock()
	})
	defer cancel()

	o := newOracle(n)
	rng := rand.New(rand.NewSource(11))
	run := func(eng *Engine, count int) {
		t.Helper()
		for r := 0; r < count; r++ {
			ops := randOps(rng, n, 1+rng.Intn(16))
			got, _, err := eng.Apply(ops)
			if err != nil {
				t.Fatalf("apply: %v", err)
			}
			want := o.apply(ops)
			for i := range ops {
				if got[i] != want[i] {
					t.Fatalf("op %d (%+v): got %v, oracle says %v", i, ops[i], got[i], want[i])
				}
			}
		}
	}

	run(e, rounds)
	if _, err := e.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	// Traffic after the checkpoint so restore replays a WAL tail too.
	run(e, rounds/2)
	e.Flush()

	seq, floor, applied := e.WALSeq(), e.WALFloor(), e.AppliedSeq()
	if applied != seq {
		t.Fatalf("quiescent engine: applied seq %d != WAL seq %d", applied, seq)
	}
	if floor == 0 || floor > seq+1 {
		t.Fatalf("WAL floor %d not raised by checkpoint (seq %d)", floor, seq)
	}
	st := e.Stats()
	if st.WALRecords == 0 || st.WALBytes == 0 || st.Checkpoints != 1 {
		t.Fatalf("durability stats = %+v", st)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// The subscription saw every mutating epoch since it was registered:
	// replaying each record's Ins then Del must reproduce the final state.
	mu.Lock()
	records := append([]EpochRecord(nil), shipped...)
	mu.Unlock()
	if len(records) == 0 {
		t.Fatal("no epoch records shipped")
	}
	replayed := core.New(n)
	last := uint64(0)
	for _, rec := range records {
		if rec.Seq <= last {
			t.Fatalf("epoch seqs not strictly increasing: %d after %d", rec.Seq, last)
		}
		last = rec.Seq
		replayed.BatchInsert(rec.Ins)
		replayed.BatchDelete(rec.Del)
	}
	uf := o.uf()
	for u := int32(0); u < n; u++ {
		for v := u + 1; v < n; v++ {
			if replayed.Connected(u, v) != uf.Connected(u, v) {
				t.Fatalf("replay {%d,%d}: got %v want %v", u, v, replayed.Connected(u, v), uf.Connected(u, v))
			}
		}
	}

	// Restore = newest checkpoint + WAL tail; every acked write is back.
	c, err := Restore(dir, func(n int) *core.Conn { return core.New(n) })
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	e2, err := New(c, Options{DurDir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer func() { _ = e2.Close() }()
	if got := e2.WALSeq(); got != seq {
		t.Fatalf("restored WAL seq = %d, want %d", got, seq)
	}
	checkAllPairs(t, e2, o)

	// The restored engine keeps accepting (and logging) traffic.
	run(e2, 5)
	checkAllPairs(t, e2, o)
}

// TestSnapshotRebuildBudget pins the publisher's count budget on the shape
// of a churn benchmark: a memory engine at n = 2¹⁴ preloaded with n random
// edges (a giant component of about 0.8 n, far over the walk threshold),
// then 200 seeded epochs of 16 ops each — 7 inserts of absent edges, 7
// deletes of the oldest live edges, 2 queries. After every Apply the
// committed tier must agree with union-find on every vertex, and at the end
// at most 5 % of the churn epochs' publishes may be full relabellings. The
// counts depend only on the seed, not on the host.
func TestSnapshotRebuildBudget(t *testing.T) {
	const n = 1 << 14
	e, err := New(core.New(n), Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer func() { _ = e.Close() }()
	o := newOracle(n)
	rng := rand.New(rand.NewSource(11))
	var fifo [][2]int32 // live edges, oldest first
	live := map[[2]int32]bool{}
	insert := func(ops []coalesce.Op) []coalesce.Op {
		for {
			u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
			if k := canon(u, v); u != v && !live[k] {
				live[k] = true
				fifo = append(fifo, k)
				return append(ops, coalesce.Op{Kind: coalesce.OpInsert, U: u, V: v})
			}
		}
	}
	apply := func(ops []coalesce.Op) {
		t.Helper()
		got, _, err := e.Apply(ops)
		if err != nil {
			t.Fatalf("Apply: %v", err)
		}
		want := o.apply(ops)
		for i := range ops {
			if got[i] != want[i] {
				t.Fatalf("op %d (%+v): got %v, oracle says %v", i, ops[i], got[i], want[i])
			}
		}
	}
	for len(fifo) < n {
		var ops []coalesce.Op
		for i := 0; i < 4096; i++ {
			ops = insert(ops)
		}
		apply(ops)
	}

	// Every vertex against its union-find class's minimum: ReadNowBatch
	// must put each vertex with that minimum, and the label must be it —
	// together, the published partition is exactly the oracle's.
	qs := make([]graph.Edge, n)
	check := func(epoch int) {
		t.Helper()
		uf := o.uf()
		least := make([]int32, n)
		for i := range least {
			least[i] = n
		}
		for v := int32(0); v < n; v++ {
			if r := uf.Find(v); v < least[r] {
				least[r] = v
			}
		}
		for v := int32(0); v < n; v++ {
			qs[v] = graph.Edge{U: v, V: least[uf.Find(v)]}
		}
		bits, err := e.ReadNowBatch(qs)
		if err != nil {
			t.Fatalf("ReadNowBatch: %v", err)
		}
		lbl := e.Recent()
		for v, q := range qs {
			if !bits[v] || lbl.Label(q.U) != q.V {
				t.Fatalf("epoch %d: vertex %d labelled %d, oracle's class minimum is %d", epoch, v, lbl.Label(q.U), q.V)
			}
		}
	}
	check(-1)

	st0 := e.Stats()
	const epochs = 200
	for ep := 0; ep < epochs; ep++ {
		ops := make([]coalesce.Op, 0, 16)
		for i := 0; i < 7; i++ {
			ops = insert(ops)
		}
		for _, k := range fifo[:7] {
			delete(live, k)
			ops = append(ops, coalesce.Op{Kind: coalesce.OpDelete, U: k[0], V: k[1]})
		}
		fifo = fifo[7:]
		for i := 0; i < 2; i++ {
			ops = append(ops, coalesce.Op{Kind: coalesce.OpQuery, U: int32(rng.Intn(n)), V: int32(rng.Intn(n))})
		}
		apply(ops)
		check(ep)
	}
	st := e.Stats()
	pubs, rebuilds := st.SnapshotPublishes-st0.SnapshotPublishes, st.SnapshotRebuilds-st0.SnapshotRebuilds
	t.Logf("%d churn epochs: %d publishes, %d full relabellings", epochs, pubs, rebuilds)
	if pubs == 0 {
		t.Fatal("no churn epoch changed the partition")
	}
	if rebuilds*20 > pubs {
		t.Fatalf("%d of %d publishes were full relabellings, budget is 5%%", rebuilds, pubs)
	}
}
