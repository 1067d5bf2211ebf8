package ett

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/parallel"
)

// TestBatchLinkDisjointAllocatesAcrossChunks links 16 disjoint paths of 256
// vertices in one BatchLinkDisjoint call on 8 workers. Every splice
// allocates slots, so the groups allocate from the forest's slab
// concurrently while it grows through a dozen chunks; under -race this
// checks that a chunk allocation never races a worker's reads and writes
// of the slots it already holds.
func TestBatchLinkDisjointAllocatesAcrossChunks(t *testing.T) {
	defer parallel.SetWorkers(parallel.SetWorkers(8))
	const groups, length = 16, 256
	f := New(groups * length)
	batch := make([][]graph.Edge, groups)
	for g := range batch {
		base := graph.Vertex(g * length)
		for i := 1; i < length; i++ {
			batch[g] = append(batch[g], graph.Edge{U: base + graph.Vertex(i-1), V: base + graph.Vertex(i)})
		}
	}
	f.BatchLinkDisjoint(batch)
	seen := make(map[int32]bool)
	for g := 0; g < groups; g++ {
		base := graph.Vertex(g * length)
		r := f.Rep(base)
		if seen[r] {
			t.Fatalf("group %d shares a tour with another group", g)
		}
		seen[r] = true
		if msg := f.CheckTour(r); msg != "" {
			t.Fatalf("group %d: %s", g, msg)
		}
		if f.Size(base) != length || f.s.Len(r) != 3*length-2 {
			t.Fatalf("group %d: size %d, tour length %d", g, f.Size(base), f.s.Len(r))
		}
		vs := f.Vertices(r)
		for _, v := range vs {
			if v/length != graph.Vertex(g) {
				t.Fatalf("group %d's tour holds vertex %d", g, v)
			}
		}
	}
}

// TestReclaimRecyclesRetiredSlots pins the life of a released loop slot: no
// other element gets it before Reclaim (a caller may still hold it as a
// representative), its own vertex takes it back if touched again, and
// after Reclaim the slab hands it out again.
func TestReclaimRecyclesRetiredSlots(t *testing.T) {
	f := New(8)
	f.AddCounts(0, 0, 1)
	r0 := f.Rep(0)
	f.AddCounts(0, 0, -1)
	if f.Rep(0) != 0 {
		t.Fatal("zero-counter singleton kept its loop element")
	}
	f.AddCounts(1, 0, 1)
	if f.Rep(1) == r0 {
		t.Fatal("a retired slot was reused before Reclaim")
	}
	f.AddCounts(0, 1, 0)
	if f.Rep(0) != r0 {
		t.Fatal("a vertex touched again did not take its retired slot back")
	}
	f.Reclaim()
	if f.Rep(0) != r0 || f.RepTree(r0) != 1 {
		t.Fatal("Reclaim freed a live slot")
	}
	f.AddCounts(0, -1, 0)
	f.Reclaim()
	f.AddCounts(2, 0, 1)
	if f.Rep(2) != r0 {
		t.Fatalf("after Reclaim the slab handed out %d, want the reclaimed slot %d", f.Rep(2), r0)
	}
	if f.Rep(0) != 0 || f.Size(0) != 1 {
		t.Fatal("reclaimed vertex does not answer as an untouched singleton")
	}
}
