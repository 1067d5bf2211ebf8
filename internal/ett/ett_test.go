package ett

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// dsu is a reference union-find used as the connectivity oracle.
type dsu struct{ p []int }

func newDSU(n int) *dsu {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return &dsu{p}
}
func (d *dsu) find(x int) int {
	for d.p[x] != x {
		d.p[x] = d.p[d.p[x]]
		x = d.p[x]
	}
	return x
}
func (d *dsu) union(a, b int) { d.p[d.find(a)] = d.find(b) }

func TestSingletons(t *testing.T) {
	f := New(5)
	for u := graph.Vertex(0); u < 5; u++ {
		if f.Size(u) != 1 {
			t.Fatalf("Size(%d) = %d", u, f.Size(u))
		}
		for v := graph.Vertex(0); v < 5; v++ {
			if (u == v) != f.Connected(u, v) {
				t.Fatalf("Connected(%d,%d) wrong", u, v)
			}
		}
	}
	if f.NumEdges() != 0 {
		t.Fatalf("NumEdges = %d", f.NumEdges())
	}
}

func TestLinkCutRoundTrip(t *testing.T) {
	f := New(4)
	f.Link(0, 1)
	if !f.Connected(0, 1) || f.Connected(0, 2) {
		t.Fatal("link 0-1 wrong")
	}
	if f.Size(0) != 2 || f.Size(2) != 1 {
		t.Fatal("sizes wrong after link")
	}
	f.Link(2, 3)
	f.Link(1, 2)
	if !f.Connected(0, 3) || f.Size(3) != 4 {
		t.Fatal("path 0-1-2-3 not connected")
	}
	f.Cut(1, 2)
	if f.Connected(0, 2) || !f.Connected(0, 1) || !f.Connected(2, 3) {
		t.Fatal("cut 1-2 wrong")
	}
	if f.Size(0) != 2 || f.Size(2) != 2 {
		t.Fatal("sizes wrong after cut")
	}
	f.Cut(0, 1)
	f.Cut(2, 3)
	for u := graph.Vertex(0); u < 4; u++ {
		if f.Size(u) != 1 {
			t.Fatalf("Size(%d) = %d after all cuts", u, f.Size(u))
		}
	}
}

func TestLinkCycleDetection(t *testing.T) {
	f := New(3)
	f.Link(0, 1)
	f.Link(1, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("Link creating a cycle should panic")
		}
	}()
	f.Link(0, 2)
}

func TestCutAbsentPanics(t *testing.T) {
	f := New(3)
	f.Link(0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Cut of absent edge should panic")
		}
	}()
	f.Cut(1, 2)
}

func TestCutEitherOrientation(t *testing.T) {
	f := New(2)
	f.Link(0, 1)
	f.Cut(1, 0) // reverse orientation must work
	if f.Connected(0, 1) {
		t.Fatal("cut by reversed orientation failed")
	}
}

func TestRepStableWithinComponent(t *testing.T) {
	f := New(6)
	f.Link(0, 1)
	f.Link(1, 2)
	f.Link(3, 4)
	r0 := f.Rep(0)
	if f.Rep(1) != r0 || f.Rep(2) != r0 {
		t.Fatal("component members disagree on rep")
	}
	if f.Rep(3) == r0 || f.Rep(5) == r0 {
		t.Fatal("distinct components share rep")
	}
	if f.RepSize(r0) != 3 {
		t.Fatalf("RepSize = %d", f.RepSize(r0))
	}
}

func TestAugmentedCounts(t *testing.T) {
	f := New(5)
	f.Link(0, 1)
	f.Link(1, 2)
	f.AddCounts(0, 0, 2) // two non-tree edges at vertex 0
	f.AddCounts(2, 1, 1)
	if f.CompNonTree(1) != 3 {
		t.Fatalf("CompNonTree = %d", f.CompNonTree(1))
	}
	if f.CompTree(1) != 1 {
		t.Fatalf("CompTree = %d", f.CompTree(1))
	}
	// Counts travel with the component under cuts.
	f.Cut(1, 2)
	if f.CompNonTree(0) != 2 || f.CompNonTree(2) != 1 {
		t.Fatalf("counts after cut: %d / %d", f.CompNonTree(0), f.CompNonTree(2))
	}
	tr, nt := f.Counts(2)
	if tr != 1 || nt != 1 {
		t.Fatalf("Counts(2) = %d,%d", tr, nt)
	}
	f.SetCounts(2, 0, 0)
	if f.CompNonTree(2) != 0 || f.CompTree(2) != 0 {
		t.Fatal("SetCounts did not clear")
	}
}

func TestFetchSlots(t *testing.T) {
	f := New(10)
	for v := graph.Vertex(1); v < 6; v++ {
		f.Link(v-1, v) // path 0..5
	}
	f.AddCounts(1, 0, 3)
	f.AddCounts(4, 0, 2)
	f.AddCounts(5, 2, 0)
	rep := f.Rep(0)
	slots := f.FetchNonTreeSlots(rep, 4)
	total := int64(0)
	for _, s := range slots {
		total += s.Cnt
		if s.V != 1 && s.V != 4 {
			t.Fatalf("unexpected slot vertex %d", s.V)
		}
	}
	if total < 4 {
		t.Fatalf("slots covered %d, want >= 4", total)
	}
	// Requesting more than available returns everything.
	slots = f.FetchNonTreeSlots(rep, 100)
	total = 0
	for _, s := range slots {
		total += s.Cnt
	}
	if total != 5 {
		t.Fatalf("total non-tree slots = %d, want 5", total)
	}
	ts := f.FetchTreeSlots(rep, 100)
	if len(ts) != 1 || ts[0].V != 5 || ts[0].Cnt != 2 {
		t.Fatalf("tree slots = %v", ts)
	}
	if got := f.FetchNonTreeSlots(rep, 0); got != nil {
		t.Fatal("limit 0 should fetch nothing")
	}
}

func TestVerticesEnumeratesComponent(t *testing.T) {
	f := New(6)
	f.Link(2, 4)
	f.Link(4, 0)
	vs := f.Vertices(f.Rep(2))
	if len(vs) != 3 {
		t.Fatalf("Vertices = %v", vs)
	}
	seen := map[graph.Vertex]bool{}
	for _, v := range vs {
		seen[v] = true
	}
	if !seen[0] || !seen[2] || !seen[4] {
		t.Fatalf("Vertices = %v", vs)
	}
}

func TestBatchConnectedAndFindRep(t *testing.T) {
	f := New(8)
	f.BatchLink([]graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 4, V: 5}})
	got := f.BatchConnected([]graph.Edge{{U: 0, V: 2}, {U: 0, V: 4}, {U: 4, V: 5}, {U: 6, V: 7}})
	want := []bool{true, false, true, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("BatchConnected[%d] = %v", i, got[i])
		}
	}
	reps := f.BatchFindRep([]graph.Vertex{0, 1, 2, 4, 6})
	if reps[0] != reps[1] || reps[1] != reps[2] {
		t.Fatal("reps of one component differ")
	}
	if reps[0] == reps[3] || reps[3] == reps[4] {
		t.Fatal("reps of distinct components collide")
	}
}

func TestBatchCutParallelAcrossTrees(t *testing.T) {
	// Many disjoint paths; batch-cut one edge from each.
	trees, length := 32, 8
	n := trees * length
	f := New(n)
	var cuts []graph.Edge
	for tr := 0; tr < trees; tr++ {
		base := graph.Vertex(tr * length)
		for i := 1; i < length; i++ {
			f.Link(base+graph.Vertex(i-1), base+graph.Vertex(i))
		}
		cuts = append(cuts, graph.Edge{U: base + 3, V: base + 4})
	}
	f.BatchCut(cuts)
	for tr := 0; tr < trees; tr++ {
		base := graph.Vertex(tr * length)
		if f.Connected(base+3, base+4) {
			t.Fatalf("tree %d not cut", tr)
		}
		if !f.Connected(base, base+3) || !f.Connected(base+4, base+7) {
			t.Fatalf("tree %d halves broken", tr)
		}
		if f.Size(base) != 4 || f.Size(base+4) != 4 {
			t.Fatalf("tree %d sizes wrong", tr)
		}
	}
}

func TestBatchCutManyInSameTree(t *testing.T) {
	n := 64
	f := New(n)
	for i := 1; i < n; i++ {
		f.Link(graph.Vertex(i-1), graph.Vertex(i))
	}
	var cuts []graph.Edge
	for i := 8; i < n; i += 8 {
		cuts = append(cuts, graph.Edge{U: graph.Vertex(i - 1), V: graph.Vertex(i)})
	}
	f.BatchCut(cuts)
	for i := 0; i < n; i += 8 {
		base := graph.Vertex(i)
		if f.Size(base) != 8 {
			t.Fatalf("segment at %d has size %d", i, f.Size(base))
		}
	}
}

func TestRandomLinkCutAgainstDSU(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	n := 60
	for trial := 0; trial < 20; trial++ {
		f := New(n)
		var live []graph.Edge
		for step := 0; step < 200; step++ {
			if len(live) == 0 || rng.Intn(3) != 0 {
				u := graph.Vertex(rng.Intn(n))
				v := graph.Vertex(rng.Intn(n))
				if u != v && !f.Connected(u, v) {
					f.Link(u, v)
					live = append(live, graph.Edge{U: u, V: v})
				}
			} else {
				i := rng.Intn(len(live))
				e := live[i]
				f.Cut(e.U, e.V)
				live = append(live[:i], live[i+1:]...)
			}
		}
		// Oracle: rebuild connectivity from surviving edges.
		d := newDSU(n)
		for _, e := range live {
			d.union(int(e.U), int(e.V))
		}
		for q := 0; q < 200; q++ {
			u, v := rng.Intn(n), rng.Intn(n)
			want := d.find(u) == d.find(v)
			if got := f.Connected(graph.Vertex(u), graph.Vertex(v)); got != want {
				t.Fatalf("trial %d: Connected(%d,%d) = %v, want %v", trial, u, v, got, want)
			}
		}
		// Sizes must sum to n. Untouched vertices report a 0 rep and
		// are singletons.
		sum := int64(0)
		reps := map[any]bool{}
		for u := 0; u < n; u++ {
			r := f.Rep(graph.Vertex(u))
			if r == 0 {
				sum++
				continue
			}
			if !reps[r] {
				reps[r] = true
				sum += f.RepSize(r)
			}
		}
		if sum != int64(n) {
			t.Fatalf("component sizes sum to %d, want %d", sum, n)
		}
	}
}

func TestQuickForestMatchesDSU(t *testing.T) {
	type op struct {
		U, V uint8
	}
	f := func(ops []op) bool {
		n := 24
		fo := New(n)
		var live []graph.Edge
		for _, o := range ops {
			u := graph.Vertex(int(o.U) % n)
			v := graph.Vertex(int(o.V) % n)
			if u == v {
				continue
			}
			if fo.HasEdge(u, v) {
				fo.Cut(u, v)
				for i, e := range live {
					if e.Key() == (graph.Edge{U: u, V: v}).Key() {
						live = append(live[:i], live[i+1:]...)
						break
					}
				}
			} else if !fo.Connected(u, v) {
				fo.Link(u, v)
				live = append(live, graph.Edge{U: u, V: v}.Canon())
			}
		}
		d := newDSU(n)
		for _, e := range live {
			d.union(int(e.U), int(e.V))
		}
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if fo.Connected(graph.Vertex(u), graph.Vertex(v)) != (d.find(u) == d.find(v)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestAugCountsSurviveRestructuring(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 40
	f := New(n)
	want := make([]int64, n)
	var live []graph.Edge
	for step := 0; step < 400; step++ {
		switch rng.Intn(3) {
		case 0:
			u := graph.Vertex(rng.Intn(n))
			delta := int64(rng.Intn(3))
			f.AddCounts(u, 0, delta)
			want[u] += delta
		case 1:
			u := graph.Vertex(rng.Intn(n))
			v := graph.Vertex(rng.Intn(n))
			if u != v && !f.Connected(u, v) {
				f.Link(u, v)
				live = append(live, graph.Edge{U: u, V: v})
			}
		case 2:
			if len(live) > 0 {
				i := rng.Intn(len(live))
				f.Cut(live[i].U, live[i].V)
				live = append(live[:i], live[i+1:]...)
			}
		}
	}
	// Per-component sums must equal the sum of per-vertex wants.
	comps := map[any][]graph.Vertex{}
	for u := 0; u < n; u++ {
		r := f.Rep(graph.Vertex(u))
		comps[r] = append(comps[r], graph.Vertex(u))
	}
	for r, vs := range comps {
		var sum int64
		for _, v := range vs {
			sum += want[v]
		}
		if got := f.CompNonTree(vs[0]); got != sum {
			t.Fatalf("component %v: CompNonTree = %d, want %d", r, got, sum)
		}
	}
}
