package ett

import (
	"sync"
	"testing"

	"repro/internal/graph"
)

// TestForestConcurrentReadOnlyQueries enforces the read-only query contract
// under -race: with no mutation in flight, concurrent goroutines hammer
// every query method on a forest of several non-trivial components plus
// never-touched singletons, and answers must match a sequentially computed
// oracle. Any write on a query path (including lazy loop-element creation,
// which the contract forbids) is flagged by the race detector.
func TestForestConcurrentReadOnlyQueries(t *testing.T) {
	const n = 2048
	f := New(n)
	// Components: a path over [0,512), a star at 512 over [512,1024), and
	// vertices [1024,2048) left untouched (0-rep singletons).
	var es []graph.Edge
	for u := 1; u < 512; u++ {
		es = append(es, graph.Edge{U: graph.Vertex(u - 1), V: graph.Vertex(u)})
	}
	for u := 513; u < 1024; u++ {
		es = append(es, graph.Edge{U: 512, V: graph.Vertex(u)})
	}
	f.BatchLink(es)
	f.AddCounts(5, 2, 3)
	f.AddCounts(600, 1, 4)

	comp := func(u int) int {
		switch {
		case u < 512:
			return 0
		case u < 1024:
			return 1
		default:
			return u // untouched singletons
		}
	}

	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for u := g; u < n; u += goroutines {
				v := (u*7 + 13) % n
				want := comp(u) == comp(v)
				if got := f.Connected(graph.Vertex(u), graph.Vertex(v)); got != want {
					t.Errorf("Connected(%d,%d) = %v, want %v", u, v, got, want)
					return
				}
				var wantSize int64 = 512
				if u >= 1024 {
					wantSize = 1
				}
				if got := f.Size(graph.Vertex(u)); got != wantSize {
					t.Errorf("Size(%d) = %d, want %d", u, got, wantSize)
					return
				}
				r := f.Rep(graph.Vertex(u))
				if (r == 0) != (u >= 1024) {
					t.Errorf("Rep(%d) nil-ness wrong", u)
					return
				}
				if r != 0 && f.RepSize(r) != wantSize {
					t.Errorf("RepSize(Rep(%d)) = %d", u, f.RepSize(r))
					return
				}
			}
			// Component-aggregate and slot queries on the path component.
			if got := f.CompTree(5); got != 2 {
				t.Errorf("CompTree(5) = %d, want 2", got)
			}
			if got := f.CompNonTree(100); got != 3 {
				t.Errorf("CompNonTree(100) = %d, want 3", got)
			}
			slots := f.FetchNonTreeSlots(f.Rep(0), 3)
			if len(slots) != 1 || slots[0].V != 5 || slots[0].Cnt != 3 {
				t.Errorf("FetchNonTreeSlots = %v", slots)
			}
			if got := len(f.Vertices(f.Rep(512))); got != 512 {
				t.Errorf("Vertices(star) = %d vertices, want 512", got)
			}
			qs := []graph.Edge{{U: 0, V: 511}, {U: 0, V: 512}, {U: 1024, V: 1025}}
			ans := f.BatchConnected(qs)
			if !ans[0] || ans[1] || ans[2] {
				t.Errorf("BatchConnected = %v, want [true false false]", ans)
			}
			reps := f.BatchFindRep([]graph.Vertex{3, 300, 1500})
			if reps[0] != reps[1] || reps[0] == 0 || reps[2] != 0 {
				t.Error("BatchFindRep inconsistent")
			}
			tr, ntr := f.Counts(600)
			if tr != 1 || ntr != 4 {
				t.Errorf("Counts(600) = %d,%d, want 1,4", tr, ntr)
			}
			if !f.HasEdge(512, 600) || f.HasEdge(0, 2) {
				t.Error("HasEdge wrong")
			}
		}(g)
	}
	wg.Wait()
}
