package levelcheck

import (
	"fmt"

	"repro/internal/adjlist"
	"repro/internal/ett"
	"repro/internal/graph"
	"repro/internal/treap"
	"repro/internal/unionfind"
)

// Check validates a level structure shared by the sequential HDT
// baseline and the parallel structure (which embeds the same shape):
//
//  1. every component of F_i has at most 2^i vertices (Invariant 1);
//  2. the forests are nested: each tree edge of F_i is present in F_{i+1};
//  3. each edge record's endpoints are connected in F_{level(e)}; tree
//     records appear in forests level..top, non-tree records in none;
//  4. per-vertex augmented counters in F_i equal the adjacency-list lengths
//     at level i;
//  5. F_top's connectivity equals union-find connectivity over all edges;
//  6. adjacency position back-pointers are intact;
//  7. every tour's treap has heap order, parent pointers and subtree
//     aggregates intact (treap.CheckInvariants on each distinct root).
//
// (7) is what makes (4) cover the component counters, not only the
// per-vertex ones: the level searches read a component's non-tree count off
// its root aggregate (ett.Forest.RepNonTree) and skip a component whose
// count is zero, so a counter write that misses the path repair would
// silently hide replacement edges.
func Check(n, top int, f []*ett.Forest, adj *adjlist.Store, edges []*adjlist.Rec) error {
	// (1) component size bounds, (7) treap invariants per tour.
	for i := 1; i <= top; i++ {
		bound := int64(1) << uint(i)
		seen := make(map[*treap.Node]bool)
		for v := 0; v < n; v++ {
			if s := f[i].Size(graph.Vertex(v)); s > bound {
				return fmt.Errorf("level %d: component of %d has size %d > 2^%d", i, v, s, i)
			}
			r := f[i].Rep(graph.Vertex(v))
			if r == nil || seen[r] {
				continue
			}
			seen[r] = true
			if msg := treap.CheckInvariants(r); msg != "" {
				return fmt.Errorf("level %d: tour of %d: treap %s", i, v, msg)
			}
		}
	}
	// (2) nesting + (3) per-edge placement.
	for _, r := range edges {
		if int(r.Level) < 1 || int(r.Level) > top {
			return fmt.Errorf("edge %v has level %d outside [1,%d]", r.E, r.Level, top)
		}
		if r.IsTree {
			for j := int(r.Level); j <= top; j++ {
				if !f[j].HasEdge(r.E.U, r.E.V) {
					return fmt.Errorf("tree edge %v (level %d) missing from F_%d", r.E, r.Level, j)
				}
			}
			if int(r.Level) > 1 && f[int(r.Level)-1].HasEdge(r.E.U, r.E.V) {
				return fmt.Errorf("tree edge %v present below its level %d", r.E, r.Level)
			}
		} else {
			if !f[r.Level].Connected(r.E.U, r.E.V) {
				return fmt.Errorf("non-tree edge %v endpoints not connected in F_%d", r.E, r.Level)
			}
			for j := 1; j <= top; j++ {
				if f[j].HasEdge(r.E.U, r.E.V) {
					return fmt.Errorf("non-tree edge %v present in F_%d", r.E, j)
				}
			}
		}
	}
	// (4) counters vs adjacency lists, (6) back-pointers.
	for v := 0; v < n; v++ {
		if err := adj.CheckInvariants(graph.Vertex(v)); err != nil {
			return err
		}
		for i := 1; i <= top; i++ {
			tr, nt := f[i].Counts(graph.Vertex(v))
			wantT := int64(adj.Count(graph.Vertex(v), int32(i), true))
			wantN := int64(adj.Count(graph.Vertex(v), int32(i), false))
			if tr != wantT || nt != wantN {
				return fmt.Errorf("v=%d level %d: counters (%d,%d) != lists (%d,%d)",
					v, i, tr, nt, wantT, wantN)
			}
		}
	}
	// (5) top-level connectivity agrees with union-find over all edges.
	uf := unionfind.New(n)
	for _, r := range edges {
		uf.Union(r.E.U, r.E.V)
	}
	for v := 1; v < n; v++ {
		want := uf.Connected(0, int32(v))
		if got := f[top].Connected(0, graph.Vertex(v)); got != want {
			return fmt.Errorf("connectivity(0,%d) = %v, oracle %v", v, got, want)
		}
	}
	// Spot-check some random-ish pairs beyond vertex 0.
	for v := 0; v+7 < n; v += 5 {
		want := uf.Connected(int32(v), int32(v+7))
		if got := f[top].Connected(graph.Vertex(v), graph.Vertex(v+7)); got != want {
			return fmt.Errorf("connectivity(%d,%d) = %v, oracle %v", v, v+7, got, want)
		}
	}
	return nil
}
