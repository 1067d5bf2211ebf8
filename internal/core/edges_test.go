package core

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// TestEdgeMapReusesFreedSlotsLastFirst pins the record arena's slot reuse:
// a batch delete frees its edges' slots in batch order, and the next batch
// insert takes them back last freed first before growing the arena. The
// edge order of SpanningForest, NonTreeEdges and every checkpoint is arena
// order, so it depends on this and on nothing else.
func TestEdgeMapReusesFreedSlotsLastFirst(t *testing.T) {
	c := New(16)
	c.BatchInsert([]graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}, {U: 4, V: 5}, {U: 6, V: 7}})
	c.BatchDelete([]graph.Edge{{U: 2, V: 3}, {U: 9, V: 8}, {U: 6, V: 7}})
	c.BatchInsert([]graph.Edge{{U: 10, V: 11}, {U: 12, V: 13}, {U: 14, V: 15}})
	want := []graph.Edge{{U: 0, V: 1}, {U: 12, V: 13}, {U: 4, V: 5}, {U: 10, V: 11}, {U: 14, V: 15}}
	got := c.SpanningForest()
	if len(got) != len(want) {
		t.Fatalf("SpanningForest = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SpanningForest = %v, want %v (arena order)", got, want)
		}
	}
	if len(c.arena) != 5 || len(c.freed) != 0 {
		t.Fatalf("arena %d slots with %d free, want 5 and 0", len(c.arena), len(c.freed))
	}
}

// TestEdgeMapMatchesModel drives random insert and delete batches, growing
// from empty to a few thousand edges and shrinking again, against a map
// model. Batches mix new edges, earlier ones (present edges, which an
// insert must leave untouched, or deleted ones), reversed orientations,
// duplicates and self-loops. After every batch the count returned,
// NumEdges, HasEdge and EdgeInfo agree with the model, and SpanningForest ∪
// NonTreeEdges enumerates exactly the model's edges.
func TestEdgeMapMatchesModel(t *testing.T) {
	const n = 512
	rng := rand.New(rand.NewSource(45))
	c := New(n)
	model := make(map[uint64]bool)
	var earlier []graph.Edge
	randEdge := func() graph.Edge {
		return graph.Edge{U: graph.Vertex(rng.Intn(n)), V: graph.Vertex(rng.Intn(n))}
	}
	for round := 0; round < 120; round++ {
		grow := round < 80
		var batch []graph.Edge
		for i := rng.Intn(128); i >= 0; i-- {
			e := randEdge()
			if len(earlier) > 0 && rng.Intn(3) == 0 {
				e = earlier[rng.Intn(len(earlier))]
			}
			if rng.Intn(2) == 0 {
				e = graph.Edge{U: e.V, V: e.U}
			}
			batch = append(batch, e)
		}
		var changed []uint64
		seen := make(map[uint64]bool)
		for _, e := range batch {
			k := e.Key()
			if e.IsLoop() || seen[k] || model[k] == grow {
				continue
			}
			seen[k] = true
			changed = append(changed, k)
		}
		var got int
		if grow {
			got = c.BatchInsert(batch)
		} else {
			got = c.BatchDelete(batch)
		}
		if got != len(changed) {
			t.Fatalf("round %d: batch changed %d edges, model %d", round, got, len(changed))
		}
		for _, k := range changed {
			if grow {
				model[k] = true
				earlier = append(earlier, graph.FromKey(k))
			} else {
				delete(model, k)
			}
		}
		if c.NumEdges() != len(model) {
			t.Fatalf("round %d: NumEdges %d, model %d", round, c.NumEdges(), len(model))
		}
		tree := make(map[uint64]bool)
		for _, e := range c.SpanningForest() {
			tree[e.Key()] = true
		}
		listed := len(tree)
		for _, e := range c.NonTreeEdges() {
			if tree[e.Key()] {
				t.Fatalf("round %d: %v listed as tree and non-tree", round, e)
			}
			listed++
		}
		if listed != len(model) {
			t.Fatalf("round %d: forest lists %d edges, model %d", round, listed, len(model))
		}
		for k := range model {
			e := graph.FromKey(k)
			present, isTree := c.EdgeInfo(e.V, e.U)
			if !present || !c.HasEdge(e.U, e.V) || isTree != tree[k] {
				t.Fatalf("round %d: %v: EdgeInfo (%v, %v), tree listed %v", round, e, present, isTree, tree[k])
			}
		}
		if e := randEdge(); c.HasEdge(e.U, e.V) != model[e.Key()] {
			t.Fatalf("round %d: HasEdge(%d, %d) disagrees with the model", round, e.U, e.V)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// distinctEdges returns m distinct non-loop edges on n vertices: edge i
// joins u = i mod n to u + d with stride d = 1 + i/n, so m must stay below
// n·(n/2 - 1) for no pair to repeat.
func distinctEdges(n, m int) []graph.Edge {
	es := make([]graph.Edge, m)
	for i := range es {
		u, d := i%n, 1+i/n
		es[i] = graph.Edge{U: graph.Vertex(u), V: graph.Vertex((u + d) % n)}
	}
	return es
}

// TestEdgeMapPutGetDelete checks single-edge presence: an inserted edge is
// found in either orientation, an absent one is not, and a second delete
// of the same edge removes nothing.
func TestEdgeMapPutGetDelete(t *testing.T) {
	c := New(8)
	if got := c.BatchInsert([]graph.Edge{{U: 1, V: 2}}); got != 1 {
		t.Fatalf("insert {1,2} changed %d edges", got)
	}
	c.BatchInsert([]graph.Edge{{U: 3, V: 4}})
	if !c.HasEdge(1, 2) || !c.HasEdge(2, 1) || !c.HasEdge(4, 3) {
		t.Fatal("inserted edge missing")
	}
	if c.HasEdge(1, 3) {
		t.Fatal("HasEdge(1, 3) for an edge never inserted")
	}
	if got := c.BatchDelete([]graph.Edge{{U: 2, V: 1}}); got != 1 {
		t.Fatalf("delete {2,1} removed %d edges, want 1", got)
	}
	if got := c.BatchDelete([]graph.Edge{{U: 1, V: 2}}); got != 0 {
		t.Fatalf("second delete of {1,2} removed %d edges, want 0", got)
	}
	if present, _ := c.EdgeInfo(1, 2); present || c.HasEdge(1, 2) {
		t.Fatal("edge {1,2} survived its delete")
	}
	if c.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", c.NumEdges())
	}
}

// TestEdgeMapOverwriteSameKey re-inserts a present edge, once as given and
// once reversed: the insert changes nothing, and the edge keeps its arena
// slot and its tree status.
func TestEdgeMapOverwriteSameKey(t *testing.T) {
	c := New(4)
	c.BatchInsert([]graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}})
	key := graph.Edge{U: 0, V: 2}.Key()
	slot := c.edges[key]
	_, tree := c.EdgeInfo(0, 2)
	for _, e := range []graph.Edge{{U: 0, V: 2}, {U: 2, V: 0}} {
		if got := c.BatchInsert([]graph.Edge{e}); got != 0 {
			t.Fatalf("re-insert of %v changed %d edges", e, got)
		}
		if c.edges[key] != slot {
			t.Fatalf("re-insert of %v moved the edge from slot %d to %d", e, slot, c.edges[key])
		}
		if _, nowTree := c.EdgeInfo(0, 2); nowTree != tree {
			t.Fatalf("re-insert of %v flipped its tree status to %v", e, nowTree)
		}
	}
	if c.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d after re-inserts, want 3", c.NumEdges())
	}
}

// TestEdgeMapBatchInsertLookupDelete inserts thousands of edges in one
// batch, finds each, deletes half in one batch and checks that exactly the
// other half is left.
func TestEdgeMapBatchInsertLookupDelete(t *testing.T) {
	const n, m = 1024, 6000
	es := distinctEdges(n, m)
	c := New(n)
	if got := c.BatchInsert(es); got != m {
		t.Fatalf("batch insert changed %d edges, want %d", got, m)
	}
	for _, e := range es {
		if !c.HasEdge(e.V, e.U) {
			t.Fatalf("inserted edge %v missing", e)
		}
	}
	if got := c.BatchDelete(es[:m/2]); got != m/2 {
		t.Fatalf("batch delete removed %d edges, want %d", got, m/2)
	}
	if c.NumEdges() != m/2 {
		t.Fatalf("NumEdges = %d after half delete, want %d", c.NumEdges(), m/2)
	}
	for i, e := range es {
		if c.HasEdge(e.U, e.V) != (i >= m/2) {
			t.Fatalf("edge %d %v: HasEdge = %v after deleting the first half", i, e, !(i >= m/2))
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestEdgeMapGrowthPreservesContents grows the edge map and the record
// arena one edge per batch from empty and checks that every earlier edge is
// still found, in arena order.
func TestEdgeMapGrowthPreservesContents(t *testing.T) {
	const n, m = 256, 3000
	es := distinctEdges(n, m)
	c := New(n)
	for i, e := range es {
		if got := c.BatchInsert([]graph.Edge{e}); got != 1 {
			t.Fatalf("insert %d %v changed %d edges", i, e, got)
		}
	}
	if c.NumEdges() != m || len(c.arena) != m {
		t.Fatalf("NumEdges %d, arena %d slots, want %d", c.NumEdges(), len(c.arena), m)
	}
	for i, e := range es {
		if c.edges[e.Key()] != int32(i) || !c.HasEdge(e.U, e.V) {
			t.Fatalf("edge %d %v lost or moved to slot %d after growth", i, e, c.edges[e.Key()])
		}
	}
}

// TestEdgeMapKeysEnumeration checks that SpanningForest and NonTreeEdges
// together list exactly the live edges, leaving out a deleted one.
func TestEdgeMapKeysEnumeration(t *testing.T) {
	c := New(8)
	want := map[uint64]bool{}
	for _, e := range []graph.Edge{{U: 1, V: 0}, {U: 2, V: 1}, {U: 0, V: 2}} {
		want[e.Key()] = true
	}
	c.BatchInsert([]graph.Edge{{U: 1, V: 0}, {U: 2, V: 1}, {U: 0, V: 2}, {U: 4, V: 0}})
	c.BatchDelete([]graph.Edge{{U: 0, V: 4}})
	got := append(c.SpanningForest(), c.NonTreeEdges()...)
	if len(got) != len(want) {
		t.Fatalf("enumerated %v, want %d edges", got, len(want))
	}
	for _, e := range got {
		if !want[e.Key()] {
			t.Fatalf("unexpected edge %v in %v", e, got)
		}
		delete(want, e.Key())
	}
}

// TestEdgeMapDuplicateKeysInBatch inserts one edge four times in one batch,
// in both orientations: it is stored once, in one arena slot.
func TestEdgeMapDuplicateKeysInBatch(t *testing.T) {
	c := New(8)
	got := c.BatchInsert([]graph.Edge{{U: 5, V: 6}, {U: 6, V: 5}, {U: 5, V: 6}, {U: 6, V: 5}})
	if got != 1 || c.NumEdges() != 1 || len(c.arena) != 1 {
		t.Fatalf("inserted %d, NumEdges %d, arena %d slots; want 1 each", got, c.NumEdges(), len(c.arena))
	}
	if got := c.BatchDelete([]graph.Edge{{U: 6, V: 5}, {U: 5, V: 6}}); got != 1 {
		t.Fatalf("duplicate delete removed %d edges, want 1", got)
	}
	if c.NumEdges() != 0 || len(c.freed) != 1 {
		t.Fatalf("NumEdges %d with %d free slots, want 0 and 1", c.NumEdges(), len(c.freed))
	}
}

// TestEdgeMapQuickMatchesMap runs arbitrary insert/delete scripts over a
// handful of vertices, so the same edges churn in and out and freed slots
// are reused over and over, and compares the edge map with a map model.
func TestEdgeMapQuickMatchesMap(t *testing.T) {
	const n = 12
	f := func(ops []uint16) bool {
		c := New(n)
		ref := map[uint64]bool{}
		for i, raw := range ops {
			e := graph.Edge{U: graph.Vertex(raw % n), V: graph.Vertex(raw / n % n)}
			if e.IsLoop() {
				continue
			}
			if i%3 == 2 {
				if c.BatchDelete([]graph.Edge{e}) != b2i(ref[e.Key()]) {
					return false
				}
				delete(ref, e.Key())
			} else {
				if c.BatchInsert([]graph.Edge{e}) != b2i(!ref[e.Key()]) {
					return false
				}
				ref[e.Key()] = true
			}
		}
		if c.NumEdges() != len(ref) || len(c.arena)-len(c.freed) != len(ref) {
			return false
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				e := graph.Edge{U: graph.Vertex(u), V: graph.Vertex(v)}
				if u != v && c.HasEdge(e.U, e.V) != ref[e.Key()] {
					return false
				}
			}
		}
		return c.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestEdgeMapConcurrentReadOnlyQueries enforces the edge map's read-only
// contract under -race: with no batch in flight, goroutines probe present
// and absent edges through HasEdge and EdgeInfo and enumerate the edges
// concurrently. A write anywhere on those paths would be flagged.
func TestEdgeMapConcurrentReadOnlyQueries(t *testing.T) {
	const n, m = 512, 2048
	es := distinctEdges(n, m+n)
	c := New(n)
	c.BatchInsert(es)
	c.BatchDelete(es[m:])
	live, gone := es[:m], es[m:]

	const goroutines = 6
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < m; i += goroutines {
				if e := live[i]; !c.HasEdge(e.V, e.U) {
					t.Errorf("HasEdge(%d, %d) = false for a live edge", e.V, e.U)
					return
				}
			}
			for i := g; i < len(gone); i += goroutines {
				if present, _ := c.EdgeInfo(gone[i].U, gone[i].V); present {
					t.Errorf("EdgeInfo(%d, %d) present for a deleted edge", gone[i].U, gone[i].V)
					return
				}
			}
			if got := len(c.SpanningForest()) + len(c.NonTreeEdges()); got != m {
				t.Errorf("enumerated %d edges, want %d", got, m)
			}
			if c.NumEdges() != m {
				t.Errorf("NumEdges = %d, want %d", c.NumEdges(), m)
			}
		}(g)
	}
	wg.Wait()
}
