package adjlist

import (
	"sync"
	"testing"

	"repro/internal/graph"
)

// TestConcurrentReadOnlyQueries enforces the package's read-only query
// contract under -race: with no batch mutation in flight, any number of
// goroutines may run Count, Fetch, All and CheckInvariants concurrently on
// the same store. The Batcher relies on this — execEpoch's credit pre-scans
// and the durable checkpoint's edge enumeration walk adjacency state while
// engine Read walks (k-hop and tree-path queries) are live. Any hidden
// write in these paths (lazy allocation, position repair, caching) would be
// flagged by the race detector.
func TestConcurrentReadOnlyQueries(t *testing.T) {
	const n = 512
	const levels = 4
	s := New(n, levels)
	var recs []*Rec
	for lvl := int32(0); lvl < levels; lvl++ {
		for i := int32(0); i < n-1; i += lvl + 1 {
			r := &Rec{E: graph.Edge{U: i, V: i + 1}, Level: lvl, IsTree: i%2 == 0}
			recs = append(recs, r)
		}
	}
	s.BatchInsert(recs)

	// Expected per-(vertex, level, tree) counts, computed up front.
	type cell struct {
		v    graph.Vertex
		lvl  int32
		tree bool
	}
	want := map[cell]int{}
	for _, r := range recs {
		want[cell{r.E.U, r.Level, r.IsTree}]++
		want[cell{r.E.V, r.Level, r.IsTree}]++
	}

	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for u := graph.Vertex(g); u < n; u += goroutines {
				for lvl := int32(0); lvl < levels; lvl++ {
					for _, isTree := range []bool{true, false} {
						w := want[cell{u, lvl, isTree}]
						if got := s.Count(u, lvl, isTree); got != w {
							t.Errorf("Count(%d,%d,%v) = %d, want %d", u, lvl, isTree, got, w)
							return
						}
						all := s.All(u, lvl, isTree)
						if len(all) != w {
							t.Errorf("All(%d,%d,%v) len %d, want %d", u, lvl, isTree, len(all), w)
							return
						}
						for _, r := range all {
							if r.E.U != u && r.E.V != u {
								t.Errorf("All(%d,...) returned foreign record %v", u, r.E)
								return
							}
						}
						if half := s.Fetch(u, lvl, isTree, w/2); len(half) != w/2 {
							t.Errorf("Fetch(%d,%d,%v,%d) len %d", u, lvl, isTree, w/2, len(half))
							return
						}
					}
				}
				if err := s.CheckInvariants(u); err != nil {
					t.Errorf("CheckInvariants(%d): %v", u, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
