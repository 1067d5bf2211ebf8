package treap

import (
	"sync"
	"testing"
)

// TestConcurrentReadOnlyQueries enforces the package's read-only query
// contract under -race: with no mutation in flight, any number of goroutines
// may run Root, Agg, Len, Index, At, First, Collect and Walk concurrently on
// the same treap. A write anywhere in those paths (lazy propagation,
// rebalancing, caching) would be flagged by the race detector.
func TestConcurrentReadOnlyQueries(t *testing.T) {
	const n = 4096
	s := NewSlab(n)
	nodes := make([]int32, n)
	var root int32
	for i := 0; i < n; i++ {
		nodes[i] = s.NewNode(Value{Cnt: 1, Size: 1, Tree: int32(i % 3)}, int32(i))
		root = s.Join(root, nodes[i])
	}
	wantAgg := s.Agg(root)

	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += goroutines {
				if s.Root(nodes[i]) != root {
					t.Errorf("Root(nodes[%d]) != root", i)
					return
				}
				if got := s.Agg(nodes[i]); got != wantAgg {
					t.Errorf("Agg(nodes[%d]) = %+v, want %+v", i, got, wantAgg)
					return
				}
				if got := s.Index(nodes[i]); got != int64(i) {
					t.Errorf("Index(nodes[%d]) = %d", i, got)
					return
				}
				if got := s.At(root, int64(i)); got != nodes[i] {
					t.Errorf("At(root, %d) wrong node", i)
					return
				}
				if s.Len(nodes[i]) != n {
					t.Errorf("Len = %d, want %d", s.Len(nodes[i]), n)
					return
				}
			}
			if s.First(root) != nodes[0] {
				t.Error("s.First(root) != nodes[0]")
			}
			var out []int32
			s.Collect(root, 16, func(v Value) int64 { return int64(v.Tree) }, &out)
			for _, nd := range out {
				if s.Val(nd).Tree == 0 {
					t.Error("Collect returned a zero-projection node")
				}
			}
			count := 0
			s.Walk(root, func(int32) { count++ })
			if count != n {
				t.Errorf("Walk visited %d nodes, want %d", count, n)
			}
			if msg := s.CheckInvariants(root); msg != "" {
				t.Errorf("CheckInvariants: %s", msg)
			}
		}(g)
	}
	wg.Wait()
}
