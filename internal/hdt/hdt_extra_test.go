package hdt

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/graphgen"
)

func TestEdgesDescendLevels(t *testing.T) {
	// Two cliques joined by a bridge: deleting the bridge searches the
	// smaller clique, whose intra-clique non-tree edges are all failed
	// candidates — each must be pushed down a level (the charging
	// mechanism in action).
	n := 16
	c := New(n)
	for u := 0; u < 6; u++ { // clique A: 0..5
		for v := u + 1; v < 6; v++ {
			c.Insert(graph.Vertex(u), graph.Vertex(v))
		}
	}
	for u := 6; u < 16; u++ { // clique B: 6..15
		for v := u + 1; v < 16; v++ {
			c.Insert(graph.Vertex(u), graph.Vertex(v))
		}
	}
	c.Insert(2, 9) // the bridge (a tree edge: it connected the cliques)
	if !c.Connected(0, 15) {
		t.Fatal("bridge did not connect the cliques")
	}
	c.Delete(2, 9)
	if c.Connected(0, 15) {
		t.Fatal("bridge deletion must disconnect")
	}
	s := c.Stats()
	if s.Pushdowns == 0 {
		t.Fatalf("no pushdowns while exhausting clique A's candidates: %+v", s)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWorkBoundedByBudget(t *testing.T) {
	// Total level decreases never exceed (inserted edges) × L.
	n := 128
	c := New(n)
	es := graphgen.RandomGraph(n, 512, 3)
	for _, e := range es {
		c.Insert(e.U, e.V)
	}
	graphgen.Shuffle(es, 4)
	for _, e := range es {
		c.Delete(e.U, e.V)
	}
	s := c.Stats()
	budget := s.Inserts * int64(graph.Levels(n))
	if s.Pushdowns+s.TreePushes > budget {
		t.Fatalf("pushes %d exceed budget %d", s.Pushdowns+s.TreePushes, budget)
	}
	if c.NumEdges() != 0 {
		t.Fatalf("residual edges: %d", c.NumEdges())
	}
}

func TestGridWorkload(t *testing.T) {
	r, cols := 8, 8
	n := r * cols
	c := New(n)
	for _, e := range graphgen.Grid(r, cols) {
		c.Insert(e.U, e.V)
	}
	// Cut all but one of the horizontal links crossing the column-3/4
	// seam: the grid must stay connected through the survivor.
	for i := 1; i < r; i++ {
		c.Delete(graph.Vertex(i*cols+3), graph.Vertex(i*cols+4))
	}
	if !c.Connected(0, graph.Vertex(n-1)) {
		t.Fatal("grid disconnected while one seam link survives")
	}
	// Cut the survivor: the grid bisects into columns [0..3] and [4..7].
	c.Delete(3, 4)
	if c.Connected(0, 4) {
		t.Fatal("seam fully cut but blocks still connected")
	}
	if !c.Connected(0, 3) || !c.Connected(4, graph.Vertex(n-1)) {
		t.Fatal("blocks internally disconnected")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLongSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rng := rand.New(rand.NewSource(42))
	n := 96
	c := New(n)
	live := map[uint64]graph.Edge{}
	for step := 0; step < 6000; step++ {
		u := graph.Vertex(rng.Intn(n))
		v := graph.Vertex(rng.Intn(n))
		if u == v {
			continue
		}
		e := graph.Edge{U: u, V: v}.Canon()
		if _, ok := live[e.Key()]; ok {
			c.Delete(u, v)
			delete(live, e.Key())
		} else {
			c.Insert(u, v)
			live[e.Key()] = e
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if c.NumEdges() != len(live) {
		t.Fatalf("edge count drifted: %d vs %d", c.NumEdges(), len(live))
	}
}
