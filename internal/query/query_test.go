package query

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/coalesce"
	"repro/internal/core"
	"repro/internal/engine"
)

// newEngine builds a memory-only engine with eager epochs over n vertices.
func newEngine(t *testing.T, n int) *engine.Engine {
	t.Helper()
	e, err := engine.New(core.New(n), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func apply(t *testing.T, e *engine.Engine, kind coalesce.Kind, edges [][2]int32) {
	t.Helper()
	ops := make([]coalesce.Op, len(edges))
	for i, ed := range edges {
		ops[i] = coalesce.Op{Kind: kind, U: ed[0], V: ed[1]}
	}
	if _, _, err := e.Apply(ops); err != nil {
		t.Fatal(err)
	}
}

func run(t *testing.T, e *engine.Engine, req Request) Result {
	t.Helper()
	res, err := Run(e, req)
	if err != nil {
		t.Fatalf("Run(%+v): %v", req, err)
	}
	return res
}

func TestRunKindsAgainstEngine(t *testing.T) {
	// Path 0-1-2-3, pair {4,5}, singletons 6..9.
	e := newEngine(t, 10)
	apply(t, e, coalesce.OpInsert, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {4, 5}})

	for _, lin := range []bool{false, true} {
		if got := run(t, e, Request{Kind: KindKHop, U: 0, K: 1, Linearized: lin}).Verts; !reflect.DeepEqual(got, []int32{0, 1}) {
			t.Fatalf("khop(0,1) lin=%v = %v", lin, got)
		}
		if got := run(t, e, Request{Kind: KindMembers, U: 2, Linearized: lin}).Verts; !reflect.DeepEqual(got, []int32{0, 1, 2, 3}) {
			t.Fatalf("members(2) lin=%v = %v", lin, got)
		}
		if got := run(t, e, Request{Kind: KindSize, U: 4, Linearized: lin}).Size; got != 2 {
			t.Fatalf("size(4) lin=%v = %d", lin, got)
		}
		res := run(t, e, Request{Kind: KindPath, U: 0, V: 3, Linearized: lin})
		if !res.Found || !reflect.DeepEqual(res.Verts, []int32{0, 1, 2, 3}) {
			t.Fatalf("path(0,3) lin=%v = %v found=%v", lin, res.Verts, res.Found)
		}
		res = run(t, e, Request{Kind: KindPath, U: 0, V: 7, Linearized: lin})
		if res.Found {
			t.Fatalf("path(0,7) lin=%v found a path %v", lin, res.Verts)
		}
		res = run(t, e, Request{Kind: KindAggregate, Linearized: lin})
		// Components: one of 4, one of 2, four singletons.
		if res.Count != 6 || !reflect.DeepEqual(res.Hist, []uint64{4, 1, 1}) {
			t.Fatalf("aggregate lin=%v = count %d hist %v", lin, res.Count, res.Hist)
		}
	}
}

func TestRunKHopRadii(t *testing.T) {
	// A star: 0 at the center of 1..4, plus a tail 4-5.
	e := newEngine(t, 7)
	apply(t, e, coalesce.OpInsert, [][2]int32{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {4, 5}})
	cases := []struct {
		k    uint32
		want []int32
	}{
		{0, []int32{0}},
		{1, []int32{0, 1, 2, 3, 4}},
		{2, []int32{0, 1, 2, 3, 4, 5}},
		{99, []int32{0, 1, 2, 3, 4, 5}},
	}
	for _, c := range cases {
		if got := run(t, e, Request{Kind: KindKHop, U: 0, K: c.k}).Verts; !reflect.DeepEqual(got, c.want) {
			t.Fatalf("khop(0,%d) = %v, want %v", c.k, got, c.want)
		}
	}
}

func TestRunValidation(t *testing.T) {
	e := newEngine(t, 4)
	bad := []Request{
		{Kind: KindKHop, U: -1},
		{Kind: KindKHop, U: 4},
		{Kind: KindPath, U: 0, V: 4},
		{Kind: KindPath, U: 0, V: -1},
		{Kind: Kind(42)},
	}
	for _, req := range bad {
		if _, err := Run(e, req); err == nil {
			t.Fatalf("Run(%+v) accepted an invalid request", req)
		}
	}
	// Aggregate takes no vertex; out-of-range U must not matter.
	if _, err := Run(e, Request{Kind: KindAggregate, U: 99}); err != nil {
		t.Fatalf("aggregate rejected: %v", err)
	}
}

// TestRecentTierStaleness pins the two-tier contract: a recent label query
// is served wait-free from the last PUBLISHED labelling, while a linearized
// one flushes the pipeline first and reads the labelling that flush
// published.
func TestRecentTierStaleness(t *testing.T) {
	e := newEngine(t, 4)
	apply(t, e, coalesce.OpInsert, [][2]int32{{0, 1}})
	// Apply acks after the epoch committed, which includes the publish — so
	// recent and linearized agree here.
	if got := run(t, e, Request{Kind: KindSize, U: 0}).Size; got != 2 {
		t.Fatalf("recent size = %d, want 2", got)
	}
	if got := run(t, e, Request{Kind: KindSize, U: 0, Linearized: true}).Size; got != 2 {
		t.Fatalf("linearized size = %d, want 2", got)
	}
	// Seq must be the applied frontier the answer reflects.
	if got := run(t, e, Request{Kind: KindSize, U: 0}).Seq; got != e.AppliedSeq() {
		t.Fatalf("seq = %d, want %d", got, e.AppliedSeq())
	}
}

func TestTreePathRandomDifferential(t *testing.T) {
	// Random forests: every returned path must be a real path over tree
	// edges with the right endpoints and no repeated vertex, and found must
	// exactly match connectivity.
	rng := rand.New(rand.NewSource(11))
	const n = 64
	e := newEngine(t, n)
	edges := make(map[[2]int32]bool)
	var batch [][2]int32
	for i := 0; i < 120; i++ {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		batch = append(batch, [2]int32{u, v})
		edges[[2]int32{u, v}] = true
	}
	apply(t, e, coalesce.OpInsert, batch)

	adj := func(u int32) []int32 {
		var out []int32
		for ed := range edges {
			if ed[0] == u {
				out = append(out, ed[1])
			} else if ed[1] == u {
				out = append(out, ed[0])
			}
		}
		return out
	}
	connected := func(u, v int32) bool {
		seen := map[int32]bool{u: true}
		stack := []int32{u}
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, y := range adj(x) {
				if !seen[y] {
					seen[y] = true
					stack = append(stack, y)
				}
			}
		}
		return seen[v]
	}

	for i := 0; i < 200; i++ {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		res := run(t, e, Request{Kind: KindPath, U: u, V: v})
		want := connected(u, v)
		if res.Found != want {
			t.Fatalf("path(%d,%d) found=%v, oracle %v", u, v, res.Found, want)
		}
		if !res.Found {
			continue
		}
		p := res.Verts
		if p[0] != u || p[len(p)-1] != v {
			t.Fatalf("path(%d,%d) endpoints %v", u, v, p)
		}
		seen := map[int32]bool{}
		for j, x := range p {
			if seen[x] {
				t.Fatalf("path(%d,%d) repeats %d: %v", u, v, x, p)
			}
			seen[x] = true
			if j > 0 && !edges[canonEdge(p[j-1], x)] {
				t.Fatalf("path(%d,%d) uses non-edge %d-%d", u, v, p[j-1], x)
			}
		}
	}
}

func canonEdge(u, v int32) [2]int32 {
	if u > v {
		u, v = v, u
	}
	return [2]int32{u, v}
}

func TestAggregateHistogram(t *testing.T) {
	// Sizes 1,1,2,4,8 → hist[0]=2, hist[1]=1, hist[2]=1, hist[3]=1.
	lbl := []int32{0, 1, 2, 2, 4, 4, 4, 4, 8, 8, 8, 8, 8, 8, 8, 8}
	count, hist := Aggregate(lbl)
	if count != 5 || !reflect.DeepEqual(hist, []uint64{2, 1, 1, 1}) {
		t.Fatalf("count=%d hist=%v", count, hist)
	}
}

func TestExportedHelpersMatchRun(t *testing.T) {
	e := newEngine(t, 8)
	apply(t, e, coalesce.OpInsert, [][2]int32{{0, 1}, {1, 2}, {3, 4}})
	var got []int32
	if err := e.Read(func(c *core.Conn) {
		got = KHop(c.Neighbors, 8, 1, 1)
	}); err != nil {
		t.Fatal(err)
	}
	want := run(t, e, Request{Kind: KindKHop, U: 1, K: 1}).Verts
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("exported KHop %v, Run %v", got, want)
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("KHop output not ascending: %v", got)
	}
}
