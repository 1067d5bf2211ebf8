package conn

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/coalesce"
	"repro/internal/graph"
	"repro/internal/unionfind"
)

func TestBatcherSequentialSemantics(t *testing.T) {
	g := New(8)
	b := NewBatcher(g)
	if !b.Insert(0, 1) {
		t.Fatal("Insert(0,1) = false on empty graph")
	}
	if b.Insert(1, 0) {
		t.Fatal("Insert(1,0) = true for a present edge")
	}
	if b.Insert(2, 2) {
		t.Fatal("Insert(2,2) = true for a self-loop")
	}
	if got := b.InsertEdges([]Edge{{U: 1, V: 2}, {U: 2, V: 3}, {U: 1, V: 2}}); got != 2 {
		t.Fatalf("InsertEdges = %d, want 2 (duplicate in batch)", got)
	}
	if !b.Connected(0, 3) || b.Connected(0, 4) {
		t.Fatal("Connected wrong")
	}
	ans := b.ConnectedBatch([]Edge{{U: 0, V: 2}, {U: 4, V: 5}})
	if !ans[0] || ans[1] {
		t.Fatalf("ConnectedBatch = %v", ans)
	}
	if !b.Delete(2, 1) {
		t.Fatal("Delete(2,1) = false for a present edge")
	}
	if b.Delete(1, 2) {
		t.Fatal("Delete(1,2) = true for an absent edge")
	}
	if got := b.DeleteEdges([]Edge{{U: 0, V: 1}, {U: 6, V: 7}}); got != 1 {
		t.Fatalf("DeleteEdges = %d, want 1", got)
	}
	b.Flush()
	b.Close()
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d after Close, want 1 ({2,3})", g.NumEdges())
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestBatcherEpochComposition pins the documented within-epoch order:
// inserts apply before deletes, and queries see the post-update state. Two
// goroutines land an insert and a delete of the same absent edge in one
// epoch (both staged while the dispatcher is held): both must be credited
// and the edge must end absent.
func TestBatcherEpochComposition(t *testing.T) {
	g := New(4)
	b := NewBatcher(g)
	release := holdDispatcher(b)
	var insOK, delOK bool
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); insOK = b.Insert(0, 1) }()
	go func() { defer wg.Done(); delOK = b.Delete(0, 1) }()
	waitStaged(t, b, 2)
	release()
	wg.Wait()
	b.Close()
	if !insOK || !delOK {
		t.Fatalf("insert=%v delete=%v, want both credited", insOK, delOK)
	}
	if g.NumEdges() != 0 {
		t.Fatalf("edge survived an insert+delete epoch: NumEdges = %d", g.NumEdges())
	}
}

// holdDispatcher parks b's dispatcher inside the test hook of one empty
// epoch (a Flush barrier), so operations submitted meanwhile stay staged
// until release is called. It takes over b.testHook.
func holdDispatcher(b *Batcher) (release func()) {
	entered, gate := make(chan struct{}), make(chan struct{})
	var once sync.Once
	b.testHook = func([]coalesce.Op, []bool) {
		once.Do(func() {
			close(entered)
			<-gate
		})
	}
	go b.Flush()
	<-entered
	return func() { close(gate) }
}

// waitStaged polls until b has want operations staged and not yet drained.
func waitStaged(t *testing.T, b *Batcher, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for b.e.Pending() != want {
		if time.Now().After(deadline) {
			t.Fatalf("staged ops = %d, want %d", b.e.Pending(), want)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestBatcherPanicsAfterClose(t *testing.T) {
	b := NewBatcher(New(4))
	b.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Insert after Close did not panic")
		}
	}()
	b.Insert(0, 1)
}

func TestBatcherRejectsOutOfRange(t *testing.T) {
	b := NewBatcher(New(4))
	defer b.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range vertex did not panic")
		}
	}()
	b.Insert(0, 4)
}

// epochRecord is one committed epoch as observed by the test hook.
type epochRecord struct {
	ops []coalesce.Op
	res []bool
}

// TestBatcherConcurrentOracle is the workhorse race test: G goroutines
// issue mixed single-op and batch traffic through a Batcher, the test hook
// records every committed epoch, and afterwards the epoch stream is
// replayed against a sequential oracle — an edge-set map for update credit
// and a fresh union-find per epoch for connectivity — checking every
// result the callers saw. Run with -race.
func TestBatcherConcurrentOracle(t *testing.T) {
	const n = 192
	goroutines := 8
	perG := 2500
	if testing.Short() {
		perG = 400
	}

	g := New(n)
	b := NewBatcher(g)
	var epochs []epochRecord
	b.testHook = func(ops []coalesce.Op, res []bool) {
		r := epochRecord{
			ops: append([]coalesce.Op(nil), ops...),
			res: append([]bool(nil), res...),
		}
		epochs = append(epochs, r) // dispatcher goroutine only; no lock needed
	}

	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			pair := func() (int32, int32) {
				return int32(rng.Intn(n)), int32(rng.Intn(n))
			}
			for i := 0; i < perG; i++ {
				u, v := pair()
				switch r := rng.Intn(100); {
				case r < 40:
					b.Insert(u, v)
				case r < 65:
					b.Delete(u, v)
				case r < 90:
					b.Connected(u, v)
				case r < 95:
					es := make([]Edge, 4)
					for j := range es {
						es[j].U, es[j].V = pair()
					}
					b.InsertEdges(es)
				default:
					es := make([]Edge, 4)
					for j := range es {
						es[j].U, es[j].V = pair()
					}
					b.DeleteEdges(es)
				}
			}
		}(w)
	}
	wg.Wait()
	b.Close() // quiesce: epochs is safe to read from here on

	// Replay the epoch stream sequentially and re-derive every result.
	edges := map[uint64]bool{}
	total := 0
	for ei, ep := range epochs {
		total += len(ep.ops)
		// Phase 1: inserts, first staging of an absent edge gets credit.
		for i, op := range ep.ops {
			if op.Kind != coalesce.OpInsert {
				continue
			}
			want := false
			if op.U != op.V {
				k := graph.Edge{U: op.U, V: op.V}.Key()
				if !edges[k] {
					edges[k] = true
					want = true
				}
			}
			if ep.res[i] != want {
				t.Fatalf("epoch %d op %d: insert {%d,%d} = %v, oracle says %v",
					ei, i, op.U, op.V, ep.res[i], want)
			}
		}
		// Phase 2: deletes, against the post-insert edge set.
		for i, op := range ep.ops {
			if op.Kind != coalesce.OpDelete {
				continue
			}
			want := false
			if op.U != op.V {
				k := graph.Edge{U: op.U, V: op.V}.Key()
				if edges[k] {
					delete(edges, k)
					want = true
				}
			}
			if ep.res[i] != want {
				t.Fatalf("epoch %d op %d: delete {%d,%d} = %v, oracle says %v",
					ei, i, op.U, op.V, ep.res[i], want)
			}
		}
		// Phase 3: queries see the post-update snapshot.
		uf := unionfind.New(n)
		for k := range edges {
			e := graph.FromKey(k)
			uf.Union(e.U, e.V)
		}
		for i, op := range ep.ops {
			if op.Kind != coalesce.OpQuery {
				continue
			}
			if want := uf.Connected(op.U, op.V); ep.res[i] != want {
				t.Fatalf("epoch %d op %d: connected {%d,%d} = %v, oracle says %v",
					ei, i, op.U, op.V, ep.res[i], want)
			}
		}
	}

	// Quiesced structure agrees with the oracle's final state.
	if g.NumEdges() != len(edges) {
		t.Fatalf("NumEdges = %d, oracle has %d", g.NumEdges(), len(edges))
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatalf("CheckInvariants after quiesce: %v", err)
	}
	s := b.Stats()
	if s.Ops != int64(total) {
		t.Fatalf("Stats.Ops = %d, epochs carried %d", s.Ops, total)
	}
	if s.Epochs > 0 && s.AvgEpoch() <= 1 && total > 1000 {
		t.Logf("warning: coalescing ineffective, avg epoch %.1f", s.AvgEpoch())
	}
	t.Logf("epochs=%d ops=%d avg=%.1f max=%d final edges=%d",
		s.Epochs, s.Ops, s.AvgEpoch(), s.MaxEpoch, len(edges))
}

// TestBatcherFlushCommitsStagedOps verifies Flush returns only once an op
// staged before it has committed: the insert is parked while the dispatcher
// is held, and the Flush issued behind it must wait it out.
func TestBatcherFlushCommitsStagedOps(t *testing.T) {
	g := New(4)
	b := NewBatcher(g)
	defer b.Close()
	release := holdDispatcher(b)
	done := make(chan bool, 1)
	go func() { done <- b.Insert(0, 1) }()
	waitStaged(t, b, 1)
	flushed := make(chan struct{})
	go func() { b.Flush(); close(flushed) }()
	release()
	<-flushed
	if p := b.e.Pending(); p != 0 {
		t.Fatalf("staged ops = %d after Flush", p)
	}
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("Insert = false")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Flush did not release the staged insert")
	}
}

// TestBatcherFlushCloseRace pins the repaired Flush/Close interaction: a
// Flush racing Close must be a graceful no-op, not a panic — Close's final
// sweep already commits everything that Flush could have flushed. Run with
// -race.
func TestBatcherFlushCloseRace(t *testing.T) {
	for round := 0; round < 50; round++ {
		g := New(64)
		b := NewBatcher(g)
		release := holdDispatcher(b)
		for i := 0; i < 4; i++ {
			go func(i int) {
				// Staged before Close begins, so committed by its final
				// sweep at the latest.
				b.Insert(int32(i), int32(i+1))
			}(i)
		}
		waitStaged(t, b, 4)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			b.Flush() // must not panic, before, during or after Close
		}()
		go func() {
			defer wg.Done()
			b.Close()
		}()
		release()
		wg.Wait()
		b.Flush() // definitely after Close: still a no-op
	}
}

// TestBatcherFlushAfterCloseIsNoOp is the deterministic half of the race
// test above.
func TestBatcherFlushAfterCloseIsNoOp(t *testing.T) {
	b := NewBatcher(New(4))
	b.Close()
	b.Flush() // must not panic
}

// TestBatcherReadRecentSurvivesClose: the wait-free tier keeps serving the
// final snapshot after Close.
func TestBatcherReadRecentSurvivesClose(t *testing.T) {
	g := New(8)
	b := NewBatcher(g)
	b.Insert(1, 2)
	b.Close()
	if !b.ReadRecent(1, 2) || b.ReadRecent(0, 1) {
		t.Fatal("ReadRecent wrong after Close")
	}
}

// TestReadTiersQuiescentAgree drives rounds of mixed updates, flushes, and
// then — with the pipeline drained and no writer in flight — checks both
// read tiers against a union-find oracle on every sampled pair. After a
// Flush the tiers must coincide exactly: Connected by linearization,
// ReadRecent because the snapshot is published before the flush's epoch
// resolves.
func TestReadTiersQuiescentAgree(t *testing.T) {
	const n = 128
	g := New(n)
	b := NewBatcher(g)
	defer b.Close()
	rng := rand.New(rand.NewSource(7))
	edges := map[uint64]bool{}
	rounds := 30
	if testing.Short() {
		rounds = 8
	}
	for round := 0; round < rounds; round++ {
		// Submissions are sequential on purpose: the oracle's edge map must
		// stay exact; concurrency is exercised by the companion test below.
		for w := 0; w < 4; w++ {
			ops := make([]Edge, 8)
			ins := rng.Intn(2) == 0
			for i := range ops {
				ops[i] = Edge{U: int32(rng.Intn(n)), V: int32(rng.Intn(n))}
				k := graph.Edge{U: ops[i].U, V: ops[i].V}.Key()
				if ops[i].U != ops[i].V {
					edges[k] = ins
				}
			}
			if ins {
				b.InsertEdges(ops)
			} else {
				b.DeleteEdges(ops)
			}
		}
		b.Flush()

		uf := unionfind.New(n)
		for k, present := range edges {
			if present {
				e := graph.FromKey(k)
				uf.Union(e.U, e.V)
			}
		}
		for s := 0; s < 200; s++ {
			u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
			want := uf.Connected(u, v)
			if got := b.Connected(u, v); got != want {
				t.Fatalf("round %d: Connected(%d,%d) = %v, oracle %v", round, u, v, got, want)
			}
			if got := b.ReadRecent(u, v); got != want {
				t.Fatalf("round %d: ReadRecent(%d,%d) = %v, oracle %v", round, u, v, got, want)
			}
		}
		qs := make([]Edge, 32)
		for i := range qs {
			qs[i] = Edge{U: int32(rng.Intn(n)), V: int32(rng.Intn(n))}
		}
		recent := b.ReadRecentBatch(qs)
		lin := b.ConnectedBatch(qs)
		for i := range qs {
			want := uf.Connected(qs[i].U, qs[i].V)
			if recent[i] != want || lin[i] != want {
				t.Fatalf("round %d: batch tiers disagree at %d: recent=%v lin=%v oracle=%v",
					round, i, recent[i], lin[i], want)
			}
		}
	}
}

// TestReadTiersConcurrentConsistency exercises both tiers, plus a
// live-structure path query, while writers are actively mutating — run
// with -race. The workload keeps connectivity monotone and class-stable so
// exact answers are checkable under full concurrency without stopping the
// world:
//
//   - the lower half of the vertices is pre-connected by a spanning path
//     (before any reader starts), so every reader must always answer true
//     for lower-half pairs;
//   - writers insert random edges only within the lower half, so the
//     isolated upper half stays isolated and every reader must always
//     answer false for distinct upper-half pairs.
//
// Staleness is checked too: the snapshot epoch observed by ReadRecent
// callers must be monotone per goroutine.
func TestReadTiersConcurrentConsistency(t *testing.T) {
	const n = 512
	const half = n / 2
	g := New(n)
	b := NewBatcher(g)

	base := make([]Edge, half-1)
	for i := range base {
		base[i] = Edge{U: int32(i), V: int32(i + 1)}
	}
	if got := b.InsertEdges(base); got != half-1 {
		t.Fatalf("base insert credited %d, want %d", got, half-1)
	}
	b.Flush()

	stop := make(chan struct{})
	var writers, readers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				u, v := int32(rng.Intn(half)), int32(rng.Intn(half))
				if rng.Intn(3) == 0 {
					b.Insert(u, v)
				} else {
					b.InsertEdges([]Edge{{U: u, V: v}, {U: v, V: u}})
				}
			}
		}(w)
	}
	perReader := 4000
	if testing.Short() {
		perReader = 800
	}
	for r := 0; r < 6; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(200 + r)))
			var lastEpoch uint64
			for i := 0; i < perReader; i++ {
				lo1, lo2 := int32(rng.Intn(half)), int32(rng.Intn(half))
				hi1, hi2 := int32(half+rng.Intn(half)), int32(half+rng.Intn(half))
				var gotLo, gotHi bool
				switch i % 3 {
				case 0:
					gotLo, gotHi = b.Connected(lo1, lo2), b.Connected(hi1, hi2)
				case 1:
					// A tree-path query walks the live forest on the
					// dispatcher, between the writers' epochs.
					lo, err1 := b.Query(QueryRequest{Kind: QueryPath, U: lo1, V: lo2})
					hi, err2 := b.Query(QueryRequest{Kind: QueryPath, U: hi1, V: hi2})
					if err1 != nil || err2 != nil {
						t.Errorf("reader %d op %d: path query: %v, %v", r, i, err1, err2)
						return
					}
					gotLo, gotHi = lo.Found, hi.Found
				default:
					ans := b.ReadRecentBatch([]Edge{{U: lo1, V: lo2}, {U: hi1, V: hi2}})
					gotLo, gotHi = ans[0], ans[1]
					if ep := b.RecentEpoch(); ep < lastEpoch {
						t.Errorf("reader %d: snapshot epoch went backwards %d -> %d", r, lastEpoch, ep)
						return
					} else {
						lastEpoch = ep
					}
				}
				if !gotLo {
					t.Errorf("reader %d op %d: lower-half pair (%d,%d) read disconnected", r, i, lo1, lo2)
					return
				}
				if gotHi && hi1 != hi2 {
					t.Errorf("reader %d op %d: isolated pair (%d,%d) read connected", r, i, hi1, hi2)
					return
				}
			}
		}(r)
	}
	readers.Wait()
	close(stop)
	writers.Wait()
	b.Close()
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	s := b.Stats()
	t.Logf("epochs=%d ops=%d avg=%.1f publishes=%d rebuilds=%d",
		s.Epochs, s.Ops, s.AvgEpoch(), s.SnapshotPublishes, s.SnapshotRebuilds)
}

// TestReadRecentReflectsFlushedEpoch pins the publish ordering: the
// snapshot is published before an epoch's futures resolve, so once any
// update call returns, ReadRecent reflects it.
func TestReadRecentReflectsFlushedEpoch(t *testing.T) {
	g := New(16)
	b := NewBatcher(g)
	defer b.Close()
	for i := int32(0); i < 15; i++ {
		if b.Insert(i, i+1) { // blocks until the epoch committed
			if !b.ReadRecent(0, i+1) {
				t.Fatalf("ReadRecent(0,%d) stale after Insert returned", i+1)
			}
		}
	}
	b.Delete(7, 8)
	if b.ReadRecent(0, 15) {
		t.Fatal("ReadRecent did not observe the committed delete")
	}
	if !b.ReadRecent(0, 7) || !b.ReadRecent(8, 15) {
		t.Fatal("ReadRecent split sides wrong")
	}
}

// TestSnapshotSkipsNoChangeEpochs pins the publish pre-filter: epochs whose
// applied updates provably preserve the partition (intra-component inserts,
// non-tree deletes) must not advance the snapshot epoch, while genuine
// merges and splits must.
func TestSnapshotSkipsNoChangeEpochs(t *testing.T) {
	g := New(8)
	b := NewBatcher(g)
	defer b.Close()

	b.Insert(0, 1)
	b.Insert(1, 2)
	ep := b.RecentEpoch()
	if ep == 0 {
		t.Fatal("merging inserts did not publish")
	}

	b.Insert(0, 2) // intra-component: closes a cycle, partition unchanged
	b.Flush()
	if got := b.RecentEpoch(); got != ep {
		t.Fatalf("intra-component insert advanced snapshot epoch %d -> %d", ep, got)
	}

	b.Delete(0, 2) // non-tree delete: partition unchanged
	b.Flush()
	if got := b.RecentEpoch(); got != ep {
		t.Fatalf("non-tree delete advanced snapshot epoch %d -> %d", ep, got)
	}

	b.Delete(0, 1) // tree delete with no replacement: splits {0} from {1,2}
	b.Flush()
	if got := b.RecentEpoch(); got <= ep {
		t.Fatalf("splitting delete did not publish (epoch still %d)", got)
	}
	if b.ReadRecent(0, 1) || !b.ReadRecent(1, 2) {
		t.Fatal("ReadRecent wrong after split")
	}
}
