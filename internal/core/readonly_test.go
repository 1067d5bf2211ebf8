package core

import (
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/graphgen"
	"repro/internal/unionfind"
)

// TestConnConcurrentReadOnlyQueries enforces the structure-wide read-only
// query contract under -race: after a quiesced mix of inserts and deletes,
// concurrent goroutines run every query entry point and check answers
// against a union-find oracle. A write anywhere on a query path — in core,
// ett, treap, adjlist or the edge map — would be flagged.
func TestConnConcurrentReadOnlyQueries(t *testing.T) {
	const n = 4096
	c := New(n)
	es := graphgen.RandomGraph(n, 2*n, 7)
	c.BatchInsert(es)
	c.BatchDelete(es[:n/2])
	live := es[n/2:]

	// The union-find oracle path-compresses on Find, so flatten it into an
	// immutable representative array before the concurrent phase.
	uf := unionfind.New(n)
	edgeSet := make(map[uint64]bool)
	for _, e := range live {
		uf.Union(e.U, e.V)
		edgeSet[e.Key()] = true
	}
	rep := make([]int32, n)
	for u := 0; u < n; u++ {
		rep[u] = uf.Find(int32(u))
	}
	oracle := func(u, v int) bool { return rep[u] == rep[v] }

	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for u := g; u < n; u += goroutines {
				v := (u*31 + 17) % n
				if got, want := c.Connected(graph.Vertex(u), graph.Vertex(v)), oracle(u, v); got != want {
					t.Errorf("Connected(%d,%d) = %v, want %v", u, v, got, want)
					return
				}
				idU, idV := c.ComponentID(graph.Vertex(u)), c.ComponentID(graph.Vertex(v))
				if (idU == idV) != oracle(u, v) {
					t.Errorf("ComponentID(%d)==ComponentID(%d) disagrees with oracle", u, v)
					return
				}
				if c.ComponentSize(graph.Vertex(u)) != int64(len(c.ComponentVertices(graph.Vertex(u)))) {
					t.Errorf("ComponentSize(%d) != len(ComponentVertices)", u)
					return
				}
			}
			// Batch query slice, distinct per goroutine.
			qs := make([]graph.Edge, 64)
			for i := range qs {
				qs[i] = graph.Edge{U: graph.Vertex((g*64 + i) % n), V: graph.Vertex((g*64 + i*i) % n)}
			}
			for i, ok := range c.BatchConnected(qs) {
				if want := oracle(int(qs[i].U), int(qs[i].V)); ok != want {
					t.Errorf("BatchConnected[%d] = %v, want %v", i, ok, want)
					return
				}
			}
			lbl := make([]int32, n)
			c.ComponentLabels(lbl)
			for u := 0; u < n; u++ {
				if lbl[u] > int32(u) {
					t.Errorf("label %d of vertex %d exceeds min-vertex bound", lbl[u], u)
					return
				}
				if lbl[u] != lbl[lbl[u]] {
					t.Errorf("label of %d is %d but label of %d is %d (not canonical)",
						u, lbl[u], lbl[u], lbl[lbl[u]])
					return
				}
				v := (u * 131) % n
				if (lbl[u] == lbl[v]) != oracle(u, v) {
					t.Errorf("ComponentLabels disagrees with oracle on (%d,%d)", u, v)
					return
				}
			}
			for _, e := range live[:64] {
				if !c.HasEdge(e.U, e.V) {
					t.Errorf("HasEdge(%d,%d) = false for live edge", e.U, e.V)
					return
				}
			}
			if c.NumEdges() != len(edgeSet) {
				t.Errorf("NumEdges = %d, want %d", c.NumEdges(), len(edgeSet))
			}
		}(g)
	}
	wg.Wait()
}

// TestComponentLabelsCanonical pins the min-vertex labelling against
// Components' dense labelling on random graphs.
func TestComponentLabelsCanonical(t *testing.T) {
	for _, n := range []int{1, 5, 300} {
		c := New(n)
		if n > 1 {
			c.BatchInsert(graphgen.RandomGraph(n, n/2, int64(n)))
		}
		dense := c.Components()
		lbl := make([]int32, n)
		c.ComponentLabels(lbl)
		// Same partition.
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v += 7 {
				if (dense[u] == dense[v]) != (lbl[u] == lbl[v]) {
					t.Fatalf("n=%d: partitions differ at (%d,%d)", n, u, v)
				}
			}
			if int(lbl[u]) > u {
				t.Fatalf("n=%d: lbl[%d] = %d is not the component minimum", n, u, lbl[u])
			}
		}
	}
}
