package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/unionfind"
)

func algs() map[string]Algorithm {
	return map[string]Algorithm{"simple": SearchSimple, "interleaved": SearchInterleaved}
}

func oracleCheck(t *testing.T, c *Conn, live map[uint64]graph.Edge, tag string) {
	t.Helper()
	uf := unionfind.New(c.N())
	for _, e := range live {
		uf.Union(e.U, e.V)
	}
	n := c.N()
	var qs []graph.Edge
	for a := 0; a < n; a++ {
		for b := a + 1; b < n && b < a+9; b++ {
			qs = append(qs, graph.Edge{U: graph.Vertex(a), V: graph.Vertex(b)})
		}
	}
	got := c.BatchConnected(qs)
	for i, q := range qs {
		want := uf.Connected(q.U, q.V)
		if got[i] != want {
			t.Fatalf("%s: Connected(%d,%d) = %v, want %v", tag, q.U, q.V, got[i], want)
		}
	}
}

func TestBatchInsertBasic(t *testing.T) {
	for name, alg := range algs() {
		c := New(6, WithAlgorithm(alg))
		got := c.BatchInsert([]graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 3, V: 4}})
		if got != 3 {
			t.Fatalf("%s: inserted %d, want 3", name, got)
		}
		if !c.Connected(0, 2) || c.Connected(0, 3) || !c.Connected(3, 4) {
			t.Fatalf("%s: connectivity wrong after insert", name)
		}
		if c.NumEdges() != 3 {
			t.Fatalf("%s: NumEdges = %d", name, c.NumEdges())
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestBatchInsertDedupAndLoops(t *testing.T) {
	c := New(4)
	got := c.BatchInsert([]graph.Edge{{U: 0, V: 1}, {U: 1, V: 0}, {U: 2, V: 2}, {U: 0, V: 1}})
	if got != 1 {
		t.Fatalf("inserted %d, want 1", got)
	}
	if got := c.BatchInsert([]graph.Edge{{U: 0, V: 1}}); got != 0 {
		t.Fatalf("re-insert accepted %d edges", got)
	}
}

func TestBatchInsertCycleEdges(t *testing.T) {
	c := New(3)
	c.BatchInsert([]graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}})
	if c.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d", c.NumEdges())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBatchDeleteNonTree(t *testing.T) {
	for name, alg := range algs() {
		c := New(3, WithAlgorithm(alg))
		c.BatchInsert([]graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}})
		// One of the three is non-tree; delete it specifically by finding it.
		var nonTree graph.Edge
		for _, e := range []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}} {
			if r := c.recFor(e.Key()); !r.IsTree {
				nonTree = e
			}
		}
		if got := c.BatchDelete([]graph.Edge{nonTree}); got != 1 {
			t.Fatalf("%s: deleted %d", name, got)
		}
		if !c.Connected(0, 2) {
			t.Fatalf("%s: non-tree delete broke connectivity", name)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestBatchDeleteWithReplacement(t *testing.T) {
	for name, alg := range algs() {
		c := New(4, WithAlgorithm(alg))
		c.BatchInsert([]graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 0, V: 3}})
		c.BatchDelete([]graph.Edge{{U: 1, V: 2}})
		if !c.Connected(1, 2) {
			t.Fatalf("%s: replacement not found", name)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestBatchDeleteDisconnects(t *testing.T) {
	for name, alg := range algs() {
		c := New(6, WithAlgorithm(alg))
		c.BatchInsert([]graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 3, V: 4}, {U: 4, V: 5}})
		c.BatchDelete([]graph.Edge{{U: 1, V: 2}, {U: 4, V: 5}})
		if c.Connected(1, 2) || c.Connected(4, 5) || !c.Connected(0, 1) {
			t.Fatalf("%s: wrong connectivity after disconnecting batch", name)
		}
		if c.NumComponents() != 4 {
			t.Fatalf("%s: NumComponents = %d, want 4", name, c.NumComponents())
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestDeleteAbsentAndDup(t *testing.T) {
	c := New(4)
	c.BatchInsert([]graph.Edge{{U: 0, V: 1}})
	if got := c.BatchDelete([]graph.Edge{{U: 2, V: 3}}); got != 0 {
		t.Fatalf("deleted %d absent edges", got)
	}
	if got := c.BatchDelete([]graph.Edge{{U: 0, V: 1}, {U: 1, V: 0}}); got != 1 {
		t.Fatalf("dup delete counted %d", got)
	}
}

func TestShatterStar(t *testing.T) {
	// Deleting all spokes of a star in one batch shatters one component
	// into n singletons — the many-pieces case the paper highlights.
	for name, alg := range algs() {
		n := 64
		c := New(n, WithAlgorithm(alg))
		var spokes []graph.Edge
		for v := 1; v < n; v++ {
			spokes = append(spokes, graph.Edge{U: 0, V: graph.Vertex(v)})
		}
		c.BatchInsert(spokes)
		if c.NumComponents() != 1 {
			t.Fatalf("%s: star not connected", name)
		}
		c.BatchDelete(spokes)
		if c.NumComponents() != n {
			t.Fatalf("%s: components = %d, want %d", name, c.NumComponents(), n)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestShatterStarWithBackbone(t *testing.T) {
	// Star plus a path through all leaves: deleting the spokes must fall
	// back to the path edges as replacements, keeping everything connected.
	for name, alg := range algs() {
		n := 48
		c := New(n, WithAlgorithm(alg))
		var spokes, path []graph.Edge
		for v := 1; v < n; v++ {
			spokes = append(spokes, graph.Edge{U: 0, V: graph.Vertex(v)})
		}
		for v := 2; v < n; v++ {
			path = append(path, graph.Edge{U: graph.Vertex(v - 1), V: graph.Vertex(v)})
		}
		c.BatchInsert(spokes)
		c.BatchInsert(path)
		c.BatchDelete(spokes[1:]) // keep spoke 0-1 so vertex 0 stays attached
		if c.NumComponents() != 1 {
			t.Fatalf("%s: components = %d, want 1", name, c.NumComponents())
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestInsertDeleteSameBatchTwice(t *testing.T) {
	for name, alg := range algs() {
		c := New(10, WithAlgorithm(alg))
		batch := []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 4, V: 5}}
		for round := 0; round < 5; round++ {
			if got := c.BatchInsert(batch); got != len(batch) {
				t.Fatalf("%s round %d: inserted %d", name, round, got)
			}
			if got := c.BatchDelete(batch); got != len(batch) {
				t.Fatalf("%s round %d: deleted %d", name, round, got)
			}
			if c.NumEdges() != 0 || c.NumComponents() != 10 {
				t.Fatalf("%s round %d: residue", name, round)
			}
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestRandomBatchesAgainstOracle(t *testing.T) {
	for name, alg := range algs() {
		for _, seed := range []int64{1, 2, 3} {
			rng := rand.New(rand.NewSource(seed))
			n := 48
			c := New(n, WithAlgorithm(alg))
			live := map[uint64]graph.Edge{}
			for step := 0; step < 40; step++ {
				if rng.Intn(3) != 0 || len(live) == 0 {
					// Insert a batch.
					k := 1 + rng.Intn(20)
					var batch []graph.Edge
					for j := 0; j < k; j++ {
						u := graph.Vertex(rng.Intn(n))
						v := graph.Vertex(rng.Intn(n))
						if u == v {
							continue
						}
						e := graph.Edge{U: u, V: v}.Canon()
						batch = append(batch, e)
					}
					c.BatchInsert(batch)
					for _, e := range batch {
						live[e.Key()] = e
					}
				} else {
					// Delete a random subset of live edges.
					var batch []graph.Edge
					for _, e := range live {
						if rng.Intn(3) == 0 {
							batch = append(batch, e)
						}
					}
					c.BatchDelete(batch)
					for _, e := range batch {
						delete(live, e.Key())
					}
				}
				oracleCheck(t, c, live, name)
				if err := c.CheckInvariants(); err != nil {
					t.Fatalf("%s seed %d step %d: %v", name, seed, step, err)
				}
			}
		}
	}
}

func TestLargeRandomChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for name, alg := range algs() {
		rng := rand.New(rand.NewSource(7))
		n := 256
		c := New(n, WithAlgorithm(alg))
		live := map[uint64]graph.Edge{}
		for step := 0; step < 30; step++ {
			k := 1 + rng.Intn(120)
			var ins []graph.Edge
			for j := 0; j < k; j++ {
				u := graph.Vertex(rng.Intn(n))
				v := graph.Vertex(rng.Intn(n))
				if u != v {
					ins = append(ins, graph.Edge{U: u, V: v}.Canon())
				}
			}
			c.BatchInsert(ins)
			for _, e := range ins {
				live[e.Key()] = e
			}
			var del []graph.Edge
			for _, e := range live {
				if rng.Intn(4) == 0 {
					del = append(del, e)
				}
			}
			c.BatchDelete(del)
			for _, e := range del {
				delete(live, e.Key())
			}
			// Full oracle comparison every few steps.
			if step%5 == 0 {
				uf := unionfind.New(n)
				for _, e := range live {
					uf.Union(e.U, e.V)
				}
				for q := 0; q < 500; q++ {
					a := graph.Vertex(rng.Intn(n))
					b := graph.Vertex(rng.Intn(n))
					if c.Connected(a, b) != uf.Connected(int32(a), int32(b)) {
						t.Fatalf("%s step %d: Connected(%d,%d) wrong", name, step, a, b)
					}
				}
				if err := c.CheckInvariants(); err != nil {
					t.Fatalf("%s step %d: %v", name, step, err)
				}
			}
		}
	}
}

func TestComponentsLabelling(t *testing.T) {
	c := New(6)
	c.BatchInsert([]graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	lbl := c.Components()
	if lbl[0] != lbl[1] || lbl[2] != lbl[3] {
		t.Fatal("components mislabelled")
	}
	if lbl[0] == lbl[2] || lbl[4] == lbl[5] || lbl[4] == lbl[0] {
		t.Fatal("distinct components share labels")
	}
	// A dense label is the rank of its component's minimum vertex.
	if want := []int32{0, 0, 1, 1, 2, 3}; !slices.Equal(lbl, want) {
		t.Fatalf("Components = %v, want %v", lbl, want)
	}
	if c.NumComponents() != 4 {
		t.Fatalf("NumComponents = %d", c.NumComponents())
	}
	if c.ComponentID(0) != c.ComponentID(1) {
		t.Fatal("ComponentID disagrees within component")
	}
	if c.ComponentID(4) == c.ComponentID(5) {
		t.Fatal("ComponentID collides across singletons")
	}
}

func TestStatsProgression(t *testing.T) {
	c := New(16)
	c.BatchInsert([]graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}})
	c.BatchDelete([]graph.Edge{{U: 0, V: 1}})
	s := c.Stats()
	if s.Inserts != 3 || s.Deletes != 1 || s.InsertBatches != 1 || s.DeleteBatches != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Replaced != 1 {
		t.Fatalf("expected a replacement, stats = %+v", s)
	}
}

func TestSingleVertexAndTinyGraphs(t *testing.T) {
	for _, n := range []int{1, 2, 3} {
		c := New(n)
		if n >= 2 {
			c.BatchInsert([]graph.Edge{{U: 0, V: 1}})
			if !c.Connected(0, 1) {
				t.Fatalf("n=%d: not connected", n)
			}
			c.BatchDelete([]graph.Edge{{U: 0, V: 1}})
			if c.Connected(0, 1) {
				t.Fatalf("n=%d: still connected", n)
			}
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}
