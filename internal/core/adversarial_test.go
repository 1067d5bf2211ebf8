package core

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/graphgen"
	"repro/internal/unionfind"
)

// TestDeepLevelDescent forces edges down many levels: a dense cluster whose
// tree edges are repeatedly deleted makes non-tree edges descend as failed
// replacement candidates. Afterwards every edge must still be at a level
// where its endpoints are G_level-connected (checked by CheckInvariants),
// and connectivity must match the oracle.
func TestDeepLevelDescent(t *testing.T) {
	for name, alg := range algs() {
		n := 64
		c := New(n, WithAlgorithm(alg))
		// Dense cluster on 16 vertices + sparse periphery.
		var cluster []graph.Edge
		for u := 0; u < 16; u++ {
			for v := u + 1; v < 16; v++ {
				cluster = append(cluster, graph.Edge{U: graph.Vertex(u), V: graph.Vertex(v)})
			}
		}
		c.BatchInsert(cluster)
		rng := rand.New(rand.NewSource(3))
		for round := 0; round < 30; round++ {
			// Delete the current spanning forest edges of the cluster (the
			// tree edges), forcing replacement searches each round.
			var del []graph.Edge
			for _, e := range c.SpanningForest() {
				if e.U < 16 && e.V < 16 && rng.Intn(2) == 0 {
					del = append(del, e)
				}
			}
			c.BatchDelete(del)
			c.BatchInsert(del)
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("%s round %d: %v", name, round, err)
			}
		}
		// The histogram should show edges below the top level.
		h := c.LevelHistogram()
		below := int64(0)
		for i := 1; i < len(h)-1; i++ {
			below += h[i]
		}
		if below == 0 {
			t.Logf("%s: warning: no edges descended (histogram %v)", name, h)
		}
	}
}

// TestGridStormAgainstOracle deletes about a quarter of a 12x12 grid's live
// edges in each of ten storms, checks 300 random pairs against a union-find
// oracle, and re-inserts half of each storm's edges. The storms are picked
// from a slice by a seeded rng, so every run plays the same batches.
func TestGridStormAgainstOracle(t *testing.T) {
	for name, alg := range algs() {
		r, cdim := 12, 12
		n := r * cdim
		g := New(n, WithAlgorithm(alg))
		live := graphgen.Grid(r, cdim)
		g.BatchInsert(live)
		rng := rand.New(rand.NewSource(8))
		for storm := 0; storm < 10; storm++ {
			var dead, repair []graph.Edge
			dead, live = pickStorm(rng, live)
			g.BatchDelete(dead)
			uf := unionfind.New(n)
			for _, e := range live {
				uf.Union(e.U, e.V)
			}
			for q := 0; q < 300; q++ {
				a := graph.Vertex(rng.Intn(n))
				b := graph.Vertex(rng.Intn(n))
				if g.Connected(a, b) != uf.Connected(int32(a), int32(b)) {
					t.Fatalf("%s storm %d: query (%d,%d) wrong", name, storm, a, b)
				}
			}
			repair, live = halfRepair(dead, live)
			g.BatchInsert(repair)
			if err := g.CheckInvariants(); err != nil {
				t.Fatalf("%s storm %d: %v", name, storm, err)
			}
		}
	}
}

// pickStorm splits live, in its order, into about a quarter chosen by rng
// (the storm) and the rest.
func pickStorm(rng *rand.Rand, live []graph.Edge) (dead, kept []graph.Edge) {
	for _, e := range live {
		if rng.Intn(4) == 0 {
			dead = append(dead, e)
		} else {
			kept = append(kept, e)
		}
	}
	return dead, kept
}

// halfRepair returns every other edge of a storm, from the first, and live
// with them appended.
func halfRepair(dead, live []graph.Edge) (repair, grown []graph.Edge) {
	for i := 0; i < len(dead); i += 2 {
		repair = append(repair, dead[i])
	}
	return repair, append(live, repair...)
}

func TestSpanningForestIsValidCertificate(t *testing.T) {
	n := 128
	c := New(n)
	es := graphgen.RandomGraph(n, 300, 21)
	c.BatchInsert(es)
	c.BatchDelete(es[:100])
	sf := c.SpanningForest()
	// Forest must be acyclic and induce exactly the structure's components.
	uf := unionfind.New(n)
	for _, e := range sf {
		if !uf.Union(e.U, e.V) {
			t.Fatalf("spanning forest contains a cycle at %v", e)
		}
	}
	full := unionfind.New(n)
	for _, e := range es[100:] {
		full.Union(e.U, e.V)
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v += 7 {
			if uf.Connected(int32(u), int32(v)) != full.Connected(int32(u), int32(v)) {
				t.Fatalf("forest connectivity differs from graph at (%d,%d)", u, v)
			}
		}
	}
}

func TestComponentSizes(t *testing.T) {
	c := New(10)
	c.BatchInsert([]graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 3, V: 4}})
	if c.ComponentSize(0) != 3 || c.ComponentSize(2) != 3 {
		t.Fatalf("ComponentSize of triangle-path = %d", c.ComponentSize(0))
	}
	if c.ComponentSize(3) != 2 || c.ComponentSize(9) != 1 {
		t.Fatal("ComponentSize wrong for pair/singleton")
	}
	// Sizes sum to n across distinct components.
	lbl := c.Components()
	seen := map[int32]bool{}
	total := int64(0)
	for u := 0; u < 10; u++ {
		if !seen[lbl[u]] {
			seen[lbl[u]] = true
			total += c.ComponentSize(graph.Vertex(u))
		}
	}
	if total != 10 {
		t.Fatalf("component sizes sum to %d", total)
	}
}

func TestLevelHistogramAccountsAllEdges(t *testing.T) {
	n := 64
	c := New(n)
	es := graphgen.RandomGraph(n, 200, 5)
	c.BatchInsert(es)
	c.BatchDelete(es[:80])
	h := c.LevelHistogram()
	var sum int64
	for _, v := range h {
		sum += v
	}
	if sum != int64(c.NumEdges()) {
		t.Fatalf("histogram sums to %d, NumEdges %d", sum, c.NumEdges())
	}
}

// TestPowerLawChurn exercises heavy-tailed degree distributions (hub
// vertices have huge adjacency lists at one level).
func TestPowerLawChurn(t *testing.T) {
	for name, alg := range algs() {
		n := 300
		es := graphgen.PowerLaw(n, 3, 9)
		c := New(n, WithAlgorithm(alg))
		c.BatchInsert(es)
		rng := rand.New(rand.NewSource(10))
		live := map[uint64]graph.Edge{}
		for _, e := range es {
			live[e.Key()] = e
		}
		for round := 0; round < 8; round++ {
			var del []graph.Edge
			for _, e := range live {
				if rng.Intn(3) == 0 {
					del = append(del, e)
				}
			}
			c.BatchDelete(del)
			for _, e := range del {
				delete(live, e.Key())
			}
			uf := unionfind.New(n)
			for _, e := range live {
				uf.Union(e.U, e.V)
			}
			for q := 0; q < 200; q++ {
				a := graph.Vertex(rng.Intn(n))
				b := graph.Vertex(rng.Intn(n))
				if c.Connected(a, b) != uf.Connected(int32(a), int32(b)) {
					t.Fatalf("%s round %d: query wrong", name, round)
				}
			}
			c.BatchInsert(del[:len(del)/2])
			for _, e := range del[:len(del)/2] {
				live[e.Key()] = e
			}
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestAlternatingAlgorithmsSameAnswers runs the identical workload through
// both algorithms and cross-checks all query answers (they may maintain
// different internal levels but must agree on connectivity).
func TestAlternatingAlgorithmsSameAnswers(t *testing.T) {
	n := 96
	a := New(n, WithAlgorithm(SearchSimple))
	b := New(n, WithAlgorithm(SearchInterleaved))
	rng := rand.New(rand.NewSource(12))
	live := map[uint64]graph.Edge{}
	for step := 0; step < 25; step++ {
		var ins []graph.Edge
		for j := 0; j < 30; j++ {
			u := graph.Vertex(rng.Intn(n))
			v := graph.Vertex(rng.Intn(n))
			if u != v {
				ins = append(ins, graph.Edge{U: u, V: v}.Canon())
			}
		}
		a.BatchInsert(ins)
		b.BatchInsert(ins)
		for _, e := range ins {
			live[e.Key()] = e
		}
		var del []graph.Edge
		for _, e := range live {
			if rng.Intn(3) == 0 {
				del = append(del, e)
			}
		}
		a.BatchDelete(del)
		b.BatchDelete(del)
		for _, e := range del {
			delete(live, e.Key())
		}
		qs := graphgen.QueryBatch(n, 150, int64(step))
		ra := a.BatchConnected(qs)
		rb := b.BatchConnected(qs)
		for i := range qs {
			if ra[i] != rb[i] {
				t.Fatalf("step %d: algorithms disagree on %v", step, qs[i])
			}
		}
	}
}
