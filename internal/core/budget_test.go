package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/graphgen"
	"repro/internal/hdt"
	"repro/internal/parallel"
)

// TestTreePushBudget pins the tree-edge push count of a sliding-window
// churn: n = 2^12 vertices, a preload of m = n random edges, then
// rounds that insert Δ new edges and delete the Δ oldest until 8192 edges
// have been deleted. Only components holding a level-i non-tree edge push
// their level-i tree edges, only where another piece of the same pre-batch
// tree holds one too, and of a group of exactly two such pieces only the
// smaller (meetingPieces). Pushing every searched component, as HDT's
// pseudocode does, costs 11.6–11.8 pushes per deleted edge at Δ ≤ 16 and
// 4.4–4.6 at Δ = 512 here, and fails this budget. So does Algorithm 4
// without the second condition: 4.75–5.08 at Δ = 1 and 4.58–4.86 at
// Δ = 16, and Algorithm 4 pushing both pieces of a two-piece group:
// 3.43–3.77 at Δ = 1 and 3.36–3.56 at Δ = 16.
//
// The count is not exact. With GOMAXPROCS > 1, spanning.Forest's parallel
// union sweep picks which of several equivalent edges becomes a tree edge
// in scheduling order, starting with the preload's, and every later search
// meets a different forest. Measured on go1.24.0 at GOMAXPROCS 1 and 2
// (seven runs each): Algorithm 4 gives 2.35–2.53 at Δ = 1, 2.58–2.64 at
// Δ = 16 and 1.28 at Δ = 512; Algorithm 5 gives 2.32–2.46, 2.28–2.36 and
// 0.93–0.95. GOMAXPROCS 1 repeats exactly. Each budget below is
// therefore 1.25× the largest value seen at its Δ, not an exact pin.
//
// After every batch it also checks the charging bound behind Theorem 1:
// every level decrease is paid by an insertion, so the cumulative
// Pushdowns + TreePushes never exceed Inserts · Top().
func TestTreePushBudget(t *testing.T) {
	const (
		n       = 1 << 12
		m       = n
		deletes = 8192
	)
	budgets := []struct {
		delta int
		max   float64 // TreePushes per deleted edge, both algorithms
	}{
		{1, 3.17},
		{16, 3.3},
		{512, 1.6},
	}
	es := graphgen.RandomGraph(n, m+deletes, 36)
	for _, b := range budgets {
		if testing.Short() && b.delta == 1 {
			continue // 8192 single-edge batches; the race job runs -short
		}
		for name, alg := range algs() {
			t.Run(fmt.Sprintf("%s/delta=%d", name, b.delta), func(t *testing.T) {
				c := New(n, WithAlgorithm(alg))
				c.BatchInsert(es[:m])
				for lo := 0; lo < deletes; lo += b.delta {
					c.BatchInsert(es[m+lo : m+lo+b.delta])
					c.BatchDelete(es[lo : lo+b.delta])
					s := c.Stats()
					if budget := s.Inserts * int64(c.Top()); s.Pushdowns+s.TreePushes > budget {
						t.Fatalf("after %d deletes: Pushdowns %d + TreePushes %d > Inserts·Top %d",
							lo+b.delta, s.Pushdowns, s.TreePushes, budget)
					}
				}
				s := c.Stats()
				if s.Deletes != deletes {
					t.Fatalf("deleted %d edges, want %d", s.Deletes, deletes)
				}
				got := float64(s.TreePushes) / float64(s.Deletes)
				t.Logf("TreePushes/delete = %.2f (Pushdowns/delete = %.2f)", got, float64(s.Pushdowns)/float64(s.Deletes))
				if got > b.max {
					t.Fatalf("TreePushes/delete = %.2f, budget %.2f", got, b.max)
				}
			})
		}
	}
}

// TestAllocBudget pins the allocations of two batch shapes the server runs,
// measured with testing.AllocsPerRun (which runs at GOMAXPROCS 1) and one
// parallel worker, so every count is exact and repeats:
//   - chords: a BatchInsert of 64 new chords of the path 0..n-1 at n = 1024,
//     all intra-component, so none is a tree edge (the chords of
//     engine.TestEpochAllocBudget);
//   - churn: a round of 7 inserts of new random edges and 7 deletes of the
//     oldest live ones at n = 4096 after a 2n-edge preload (the server's
//     16-op frame without its 2 queries), averaged over 50 rounds.
func TestAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("-race changes allocation counts")
	}
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	const runs = 50

	t.Run("chords", func(t *testing.T) {
		const n, batch = 1024, 64
		rounds := make([][]graph.Edge, runs+1)
		for r := range rounds {
			for i := 0; i < batch; i++ {
				k := r*batch + i
				u := int32(k % n)
				rounds[r] = append(rounds[r], graph.Edge{U: u, V: (u + 2 + int32(k/n)) % n})
			}
		}
		c := New(n)
		c.BatchInsert(graphgen.Path(n))
		r := 0
		got := testing.AllocsPerRun(runs, func() {
			if c.BatchInsert(rounds[r]) != batch {
				t.Fatalf("round %d: not every chord inserted", r)
			}
			r++
		})
		// Measured 188 on go1.24.0; the budget is 188 plus 25 %.
		const budget = 235
		t.Logf("64-chord BatchInsert: %v allocations", got)
		if got > budget {
			t.Fatalf("64-chord BatchInsert makes %v allocations, budget %v", got, budget)
		}
	})

	t.Run("churn", func(t *testing.T) {
		const n, m, delta = 4096, 2 * 4096, 7
		es := graphgen.RandomGraph(n, m+(runs+1)*delta, 43)
		c := New(n)
		c.BatchInsert(es[:m])
		lo := 0
		got := testing.AllocsPerRun(runs, func() {
			c.BatchInsert(es[m+lo : m+lo+delta])
			c.BatchDelete(es[lo : lo+delta])
			lo += delta
		})
		// Measured 540 on go1.24.0 (737 before the level searches skipped
		// pieces that cannot meet, 555 while they searched both of two);
		// the budget is 540 plus 25 %.
		const budget = 675
		t.Logf("7 + 7 churn round: %v allocations", got)
		if got > budget {
			t.Fatalf("a 7 + 7 churn round makes %v allocations, budget %v", got, budget)
		}
	})
}

// TestHeapBudget pins the heap the structure retains per live edge: n = 2^14,
// a 2n-edge preload, then 64 rounds that insert 256 new random edges and
// delete the 256 oldest, one parallel worker, then a forced GC. HeapAlloc
// over the baseline taken before New is divided by the live edge count.
func TestHeapBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("8 s under -race, which retains the same heap; the plain run checks it")
	}
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	const n, m, delta, rounds = 1 << 14, 2 << 14, 256, 64
	es := graphgen.RandomGraph(n, m+rounds*delta, 45)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := New(n)
	c.BatchInsert(es[:m])
	for r := 0; r < rounds; r++ {
		c.BatchInsert(es[m+r*delta : m+(r+1)*delta])
		c.BatchDelete(es[r*delta : (r+1)*delta])
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	got := float64(after.HeapAlloc-before.HeapAlloc) / float64(c.NumEdges())
	// Measured 518-519 B per edge on go1.24.0 (645-647 before the level
	// searches skipped pieces that cannot meet, 553-555 while they searched
	// both of two); the budget is 519 plus 25 %.
	const budget = 649
	t.Logf("%d live edges retain %.0f B each", c.NumEdges(), got)
	if got > budget {
		t.Fatalf("%.0f B retained per live edge, budget %d", got, budget)
	}
}

// TestWorkVsHDT runs one churn stream through the core (Algorithm 5, one
// parallel worker) and, one edge at a time, through internal/hdt, the
// sequential algorithm the core parallelizes, and pins the core/hdt ratio
// of five work counts. The stream: n = 2^12, a 2n-edge preload, then rounds
// that insert Δ new random edges and delete the Δ oldest until 4096 edges
// have been deleted. The counts are tree-edge pushes, non-tree pushdowns,
// their sum (all level decreases), candidates examined (EdgesExamined
// against hdt's EdgesSeen) and heap allocations per updated pair, all taken
// after the preload. They are counts, not clocks, and repeat exactly at one
// worker.
//
// Measured on go1.24.0 at Δ = 1, 7, 16 and 512, core/hdt: tree pushes 0.97,
// 0.91, 0.87 and 0.44; non-tree pushdowns 1.24, 1.33, 3.07 and 22.6; level
// decreases 0.97, 0.91, 0.87 and 0.58; candidates 0.95, 0.96, 1.00 and 1.88;
// allocations 9.82, 3.45, 2.40 and 1.19. The level-decrease caps are the
// measured ratio plus 10 %, the others plus 25 %, except that the caps on
// pushdowns and candidates at Δ ≤ 16 and on allocations at Δ = 512 stayed
// where they were. Searching only the smaller of two meeting pieces trades
// tree pushes for pushdowns at Δ = 512 (5 879 tree pushes and 1 946
// pushdowns against 6 435 and 1 152 when both were searched), so those two
// caps were re-pinned and the level-decrease cap holds the total. Searching
// every piece that holds a level-i non-tree edge, as before meetingPieces,
// gave tree-push ratios of 1.70, 1.83 and 1.59 at Δ ≤ 16.
func TestWorkVsHDT(t *testing.T) {
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	const n, m, deletes = 1 << 12, 2 << 12, 4096
	es := graphgen.RandomGraph(n, m+deletes, 47)
	caps := []struct {
		delta                                       int
		tree, pushdowns, decreases, examined, alloc float64
	}{
		{1, 1.22, 1.55, 1.08, 1.2, 12.28},
		{7, 1.14, 3.18, 1.01, 1.26, 4.32},
		{16, 1.09, 4.38, 0.97, 1.27, 3.0},
		{512, 0.55, 28.29, 0.64, 2.36, 1.43},
	}
	mallocs := func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.Mallocs
	}
	for _, b := range caps {
		if testing.Short() && b.delta == 1 {
			continue // 4096 single-edge batches; the race job runs -short
		}
		t.Run(fmt.Sprintf("delta=%d", b.delta), func(t *testing.T) {
			c := New(n)
			c.BatchInsert(es[:m])
			before, a0 := c.Stats(), mallocs()
			for lo := 0; lo+b.delta <= deletes; lo += b.delta {
				c.BatchInsert(es[m+lo : m+lo+b.delta])
				c.BatchDelete(es[lo : lo+b.delta])
			}
			cAllocs, cs := mallocs()-a0, c.Stats()

			h := hdt.New(n)
			for _, e := range es[:m] {
				h.Insert(e.U, e.V)
			}
			hBefore, a0 := h.Stats(), mallocs()
			for lo := 0; lo+b.delta <= deletes; lo += b.delta {
				for _, e := range es[m+lo : m+lo+b.delta] {
					h.Insert(e.U, e.V)
				}
				for _, e := range es[lo : lo+b.delta] {
					h.Delete(e.U, e.V)
				}
			}
			hAllocs, hs := mallocs()-a0, h.Stats()

			ratios := []struct {
				name      string
				core, hdt int64
				cap       float64
			}{
				{"tree pushes", cs.TreePushes - before.TreePushes, hs.TreePushes - hBefore.TreePushes, b.tree},
				{"non-tree pushdowns", cs.Pushdowns - before.Pushdowns, hs.Pushdowns - hBefore.Pushdowns, b.pushdowns},
				{"level decreases", cs.TreePushes + cs.Pushdowns - before.TreePushes - before.Pushdowns,
					hs.TreePushes + hs.Pushdowns - hBefore.TreePushes - hBefore.Pushdowns, b.decreases},
				{"candidates examined", cs.EdgesExamined - before.EdgesExamined, hs.EdgesSeen - hBefore.EdgesSeen, b.examined},
				{"allocations", int64(cAllocs), int64(hAllocs), b.alloc},
			}
			for _, r := range ratios {
				if r.name == "allocations" && raceEnabled {
					continue // -race changes allocation counts
				}
				got := float64(r.core) / float64(r.hdt)
				t.Logf("%s: core %d, hdt %d, ratio %.2f (cap %.2f)", r.name, r.core, r.hdt, got, r.cap)
				if got > r.cap {
					t.Errorf("%s: core/hdt = %.2f, cap %.2f", r.name, got, r.cap)
				}
			}
		})
	}
}
