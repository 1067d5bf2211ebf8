package hdt

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/unionfind"
)

func TestInsertQueryBasic(t *testing.T) {
	c := New(5)
	if !c.Insert(0, 1) || !c.Insert(1, 2) {
		t.Fatal("inserts failed")
	}
	if c.Insert(0, 1) || c.Insert(1, 0) {
		t.Fatal("duplicate insert accepted")
	}
	if c.Insert(3, 3) {
		t.Fatal("self-loop accepted")
	}
	if !c.Connected(0, 2) || c.Connected(0, 3) {
		t.Fatal("connectivity wrong")
	}
	if c.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d", c.NumEdges())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteNonTreeEdge(t *testing.T) {
	c := New(3)
	c.Insert(0, 1)
	c.Insert(1, 2)
	c.Insert(0, 2) // closes a cycle: non-tree
	if !c.Delete(0, 2) {
		t.Fatal("delete failed")
	}
	if !c.Connected(0, 2) {
		t.Fatal("deleting non-tree edge changed connectivity")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteTreeEdgeWithReplacement(t *testing.T) {
	c := New(4)
	c.Insert(0, 1)
	c.Insert(1, 2)
	c.Insert(2, 3)
	c.Insert(0, 3) // cycle closer
	if !c.Delete(1, 2) {
		t.Fatal("delete failed")
	}
	if !c.Connected(1, 2) {
		t.Fatal("replacement edge not found")
	}
	if c.Stats().Replaced != 1 {
		t.Fatalf("Replaced = %d", c.Stats().Replaced)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteTreeEdgeNoReplacement(t *testing.T) {
	c := New(4)
	c.Insert(0, 1)
	c.Insert(2, 3)
	c.Delete(0, 1)
	if c.Connected(0, 1) {
		t.Fatal("still connected after bridge removal")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteAbsent(t *testing.T) {
	c := New(3)
	if c.Delete(0, 1) {
		t.Fatal("deleting absent edge returned true")
	}
}

func TestCycleChurn(t *testing.T) {
	// Repeatedly break a ring and verify a replacement keeps it connected.
	n := 16
	c := New(n)
	for i := 0; i < n; i++ {
		c.Insert(graph.Vertex(i), graph.Vertex((i+1)%n))
	}
	rng := rand.New(rand.NewSource(2))
	for round := 0; round < 12; round++ {
		u := graph.Vertex(rng.Intn(n))
		v := graph.Vertex((int(u) + 1) % n)
		if !c.HasEdge(u, v) {
			continue
		}
		c.Delete(u, v)
		if !c.Connected(u, v) {
			t.Fatalf("round %d: ring disconnected after single deletion", round)
		}
		c.Insert(u, v)
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// TestRandomAgainstOracle drives random insert/delete/query traffic and
// compares against recomputed union-find connectivity after every step.
func TestRandomAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	n := 32
	c := New(n)
	live := map[uint64]graph.Edge{}
	for step := 0; step < 1200; step++ {
		u := graph.Vertex(rng.Intn(n))
		v := graph.Vertex(rng.Intn(n))
		if u == v {
			continue
		}
		e := graph.Edge{U: u, V: v}.Canon()
		if _, ok := live[e.Key()]; ok && rng.Intn(2) == 0 {
			c.Delete(u, v)
			delete(live, e.Key())
		} else if !ok {
			c.Insert(u, v)
			live[e.Key()] = e
		}
		if step%50 == 0 {
			uf := unionfind.New(n)
			for _, le := range live {
				uf.Union(le.U, le.V)
			}
			for q := 0; q < 40; q++ {
				a, b := int32(rng.Intn(n)), int32(rng.Intn(n))
				want := uf.Connected(a, b)
				if got := c.Connected(graph.Vertex(a), graph.Vertex(b)); got != want {
					t.Fatalf("step %d: Connected(%d,%d)=%v want %v", step, a, b, got, want)
				}
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
}

func TestQuickSmallGraphs(t *testing.T) {
	type op struct{ U, V, Del uint8 }
	f := func(ops []op) bool {
		n := 12
		c := New(n)
		live := map[uint64]graph.Edge{}
		for _, o := range ops {
			u := graph.Vertex(int(o.U) % n)
			v := graph.Vertex(int(o.V) % n)
			if u == v {
				continue
			}
			e := graph.Edge{U: u, V: v}.Canon()
			if o.Del%2 == 0 {
				c.Insert(u, v)
				live[e.Key()] = e
			} else {
				c.Delete(u, v)
				delete(live, e.Key())
			}
		}
		uf := unionfind.New(n)
		for _, e := range live {
			uf.Union(e.U, e.V)
		}
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if c.Connected(graph.Vertex(a), graph.Vertex(b)) != uf.Connected(int32(a), int32(b)) {
					return false
				}
			}
		}
		return c.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsAccumulate(t *testing.T) {
	c := New(8)
	c.Insert(0, 1)
	c.Insert(1, 2)
	c.Insert(0, 2)
	c.Delete(0, 1)
	s := c.Stats()
	if s.Inserts != 3 || s.Deletes != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Replaced != 1 {
		t.Fatalf("expected one replacement, stats = %+v", s)
	}
}

func TestDenseThenDismantle(t *testing.T) {
	// Complete graph on 10 vertices, then delete every edge; connectivity
	// must degrade exactly when the last path disappears.
	n := 10
	c := New(n)
	var all []graph.Edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			e := graph.Edge{U: graph.Vertex(u), V: graph.Vertex(v)}
			c.Insert(e.U, e.V)
			all = append(all, e)
		}
	}
	rng := rand.New(rand.NewSource(4))
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	uf := func(rem []graph.Edge) *unionfind.UF {
		u := unionfind.New(n)
		for _, e := range rem {
			u.Union(e.U, e.V)
		}
		return u
	}
	for i, e := range all {
		c.Delete(e.U, e.V)
		rem := all[i+1:]
		oracle := uf(rem)
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if c.Connected(graph.Vertex(a), graph.Vertex(b)) != oracle.Connected(int32(a), int32(b)) {
					t.Fatalf("after %d deletions: connectivity(%d,%d) wrong", i+1, a, b)
				}
			}
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
