package ett

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

func TestBatchLinkDisjointParallelGroups(t *testing.T) {
	// 64 disjoint paths, linked as 64 groups in one parallel call.
	groups, length := 64, 16
	n := groups * length
	f := New(n)
	batch := make([][]graph.Edge, groups)
	for g := 0; g < groups; g++ {
		base := graph.Vertex(g * length)
		for i := 1; i < length; i++ {
			batch[g] = append(batch[g], graph.Edge{U: base + graph.Vertex(i-1), V: base + graph.Vertex(i)})
		}
	}
	f.BatchLinkDisjoint(batch)
	if f.NumEdges() != groups*(length-1) {
		t.Fatalf("NumEdges = %d", f.NumEdges())
	}
	for g := 0; g < groups; g++ {
		base := graph.Vertex(g * length)
		if !f.Connected(base, base+graph.Vertex(length-1)) {
			t.Fatalf("group %d not linked", g)
		}
		if g > 0 && f.Connected(base, 0) {
			t.Fatalf("groups %d and 0 merged", g)
		}
		if f.Size(base) != int64(length) {
			t.Fatalf("group %d size %d", g, f.Size(base))
		}
	}
}

func TestBatchLinkDisjointCycleDetection(t *testing.T) {
	f := New(4)
	f.Link(0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("cycle within a group should panic")
		}
	}()
	f.BatchLinkDisjoint([][]graph.Edge{{{U: 1, V: 0}}})
}

func TestNumEdgesTracksLinkCut(t *testing.T) {
	f := New(8)
	f.Link(0, 1)
	f.Link(1, 2)
	if f.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d", f.NumEdges())
	}
	f.Cut(0, 1)
	if f.NumEdges() != 1 {
		t.Fatalf("NumEdges after cut = %d", f.NumEdges())
	}
	f.BatchCut([]graph.Edge{{U: 1, V: 2}})
	if f.NumEdges() != 0 {
		t.Fatalf("NumEdges after batch cut = %d", f.NumEdges())
	}
}

func TestConcurrentQueriesDuringNoMutation(t *testing.T) {
	n := 1 << 12
	f := New(n)
	for i := 1; i < n; i++ {
		f.Link(graph.Vertex(rand.New(rand.NewSource(int64(i))).Intn(i)), graph.Vertex(i))
	}
	// Heavy parallel read traffic must be safe and consistent.
	qs := make([]graph.Edge, 1<<14)
	rng := rand.New(rand.NewSource(9))
	for i := range qs {
		qs[i] = graph.Edge{U: graph.Vertex(rng.Intn(n)), V: graph.Vertex(rng.Intn(n))}
	}
	res := f.BatchConnected(qs)
	for i := range res {
		if !res[i] {
			t.Fatalf("single tree: query %d false", i)
		}
	}
	vs := make([]graph.Vertex, n)
	for i := range vs {
		vs[i] = graph.Vertex(i)
	}
	reps := f.BatchFindRep(vs)
	for i := 1; i < n; i++ {
		if reps[i] != reps[0] {
			t.Fatalf("rep mismatch at %d", i)
		}
	}
}

func TestFetchSlotsTourOrderStability(t *testing.T) {
	// Slots must come back in tour order so the doubling search's "first
	// csz edges" is deterministic between fetches with no interleaved
	// mutation.
	n := 32
	f := New(n)
	for i := 1; i < n; i++ {
		f.Link(graph.Vertex(i-1), graph.Vertex(i))
	}
	rng := rand.New(rand.NewSource(4))
	for v := 0; v < n; v++ {
		f.AddCounts(graph.Vertex(v), 0, int64(rng.Intn(3)))
	}
	rep := f.Rep(0)
	a := f.FetchNonTreeSlots(rep, 10)
	b := f.FetchNonTreeSlots(rep, 10)
	if len(a) != len(b) {
		t.Fatalf("fetch lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fetch not stable at %d: %v vs %v", i, a[i], b[i])
		}
	}
	// Prefix property: fetching more extends, not reorders.
	c := f.FetchNonTreeSlots(rep, 20)
	if len(c) < len(a) {
		t.Fatal("larger fetch returned fewer slots")
	}
	for i := range a {
		if c[i] != a[i] {
			t.Fatalf("larger fetch reordered prefix at %d", i)
		}
	}
}

func TestSetCountsIdempotent(t *testing.T) {
	f := New(4)
	f.AddCounts(2, 3, 5)
	f.SetCounts(2, 1, 1)
	tr, nt := f.Counts(2)
	if tr != 1 || nt != 1 {
		t.Fatalf("Counts = %d,%d", tr, nt)
	}
	if f.CompTree(2) != 1 || f.CompNonTree(2) != 1 {
		t.Fatal("component aggregates wrong after SetCounts")
	}
}

func TestRepInvalidationAcrossLinkCut(t *testing.T) {
	f := New(4)
	f.Link(0, 1)
	r1 := f.Rep(0)
	f.Link(2, 3)
	f.Link(1, 2)
	r2 := f.Rep(0)
	if f.Rep(3) != r2 {
		t.Fatal("all vertices must share the merged rep")
	}
	_ = r1 // old rep may or may not coincide; only current equality matters
	f.Cut(1, 2)
	if f.Rep(0) == f.Rep(2) {
		t.Fatal("reps equal after cut")
	}
}

// TestReleaseIsolatedLoop checks that a loop element is dropped exactly when
// its vertex is a singleton with zero counters, and that the forest answers
// for it as for a never-touched vertex.
func TestReleaseIsolatedLoop(t *testing.T) {
	f := New(8)
	f.Link(0, 1)
	f.Link(1, 2)
	f.AddCounts(2, 0, 1)
	f.Cut(0, 1) // 0 is isolated with zero counters
	f.Cut(1, 2) // 2 is isolated but holds a non-tree count
	if f.Rep(0) != 0 {
		t.Fatal("isolated zero-counter vertex kept its loop element")
	}
	if f.Rep(2) == 0 {
		t.Fatal("vertex with a non-tree count lost its loop element")
	}
	if f.Rep(1) != 0 {
		t.Fatal("vertex isolated by its last cut kept its loop element")
	}
	f.AddCounts(2, 0, -1)
	if f.Rep(2) != 0 {
		t.Fatal("vertex whose counters reached zero kept its loop element")
	}
	if f.Size(0) != 1 || f.Connected(0, 1) || !f.Connected(0, 0) {
		t.Fatal("released vertex does not answer as a singleton")
	}
	if tr, nt := f.Counts(0); tr != 0 || nt != 0 {
		t.Fatalf("released vertex counts = %d, %d", tr, nt)
	}
	f.Link(0, 2)
	f.Link(3, 4)
	f.BatchCut([]graph.Edge{{U: 0, V: 2}, {U: 3, V: 4}})
	for _, v := range []graph.Vertex{0, 2, 3, 4} {
		if f.Rep(v) != 0 {
			t.Fatalf("BatchCut kept vertex %d's isolated zero-counter loop element", v)
		}
	}
	f.Link(0, 1)
	if !f.Connected(0, 1) || f.Size(1) != 2 {
		t.Fatal("relinking a released vertex failed")
	}
}
