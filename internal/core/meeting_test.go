package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/hdt"
)

// TestMeetingPiecesIsolatedEndpoint deletes both tree edges of the path
// A–u–B in one batch while the non-tree edge a–b still joins A's side {a, A}
// to B's side {B, b}. The cut leaves u an isolated vertex with
// representative 0, and the only link between the deleted edges' two pieces
// runs through it: grouping pieces without u puts A's and B's pieces in
// groups of one piece each, skips both, and loses the replacement a–b.
func TestMeetingPiecesIsolatedEndpoint(t *testing.T) {
	const a, A, u, B, b = 0, 1, 2, 3, 4
	for name, alg := range algs() {
		t.Run(name, func(t *testing.T) {
			c := New(5, WithAlgorithm(alg))
			c.BatchInsert([]graph.Edge{{U: a, V: A}, {U: A, V: u}, {U: u, V: B}, {U: B, V: b}})
			c.BatchInsert([]graph.Edge{{U: a, V: b}})
			for _, e := range []graph.Edge{{U: A, V: u}, {U: u, V: B}, {U: a, V: b}} {
				r := c.recFor(e.Key())
				if wantTree := e.U != a; r.IsTree != wantTree || r.Level != c.top {
					t.Fatalf("edge %v: tree %v at level %d, want tree %v at level %d", e, r.IsTree, r.Level, wantTree, c.top)
				}
			}
			if got := c.BatchDelete([]graph.Edge{{U: A, V: u}, {U: u, V: B}}); got != 2 {
				t.Fatalf("BatchDelete = %d, want 2", got)
			}
			if !c.Connected(A, B) || !c.Connected(a, b) {
				t.Fatal("A and B are disconnected, but a–b reconnects them")
			}
			if c.Connected(u, A) {
				t.Fatal("u is still connected after both its edges were deleted")
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSmallGraphsMatchHDT runs 3 000 random seeds (300 under -short) of
// mixed batches over fewer than 32 vertices through both search algorithms
// and the sequential HDT baseline, one edge at a time. After every batch
// each vertex must agree with HDT on its component: small graphs with batch
// deletes reach the level searches' rare groupings (an isolated endpoint,
// several pieces of one tree) that larger streams seldom produce.
func TestSmallGraphsMatchHDT(t *testing.T) {
	seeds := 3000
	if testing.Short() {
		seeds = 300
	}
	for seed := 0; seed < seeds; seed++ {
		if err := matchHDT(int64(seed)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// matchHDT plays one seed's batches; see TestSmallGraphsMatchHDT.
func matchHDT(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(30)
	cs := map[string]*Conn{}
	for name, alg := range algs() {
		cs[name] = New(n, WithAlgorithm(alg))
	}
	h := hdt.New(n)
	var live []graph.Edge
	for bi := 0; bi < 24; bi++ {
		es := make([]graph.Edge, 1+rng.Intn(8))
		if rng.Intn(5) < 3 || len(live) == 0 {
			for k := range es {
				es[k] = graph.Edge{U: graph.Vertex(rng.Intn(n)), V: graph.Vertex(rng.Intn(n))}
				if h.Insert(es[k].U, es[k].V) {
					live = append(live, es[k])
				}
			}
			for _, c := range cs {
				c.BatchInsert(es)
			}
		} else {
			for k := range es {
				j := rng.Intn(len(live))
				es[k] = live[j]
				h.Delete(es[k].U, es[k].V)
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
				if len(live) == 0 {
					es = es[:k+1]
					break
				}
			}
			for _, c := range cs {
				c.BatchDelete(es)
			}
		}
		for name, c := range cs {
			if err := agreesWithHDT(c, h); err != nil {
				return fmt.Errorf("%s, batch %d: %v", name, bi, err)
			}
			if err := c.CheckInvariants(); err != nil {
				return fmt.Errorf("%s, batch %d: %v", name, bi, err)
			}
		}
	}
	return nil
}

// agreesWithHDT checks that c and h have the same edge count and components:
// each vertex is connected in h to the first vertex of its c component, and
// no two of those first vertices are connected in h.
func agreesWithHDT(c *Conn, h *hdt.Conn) error {
	if c.NumEdges() != h.NumEdges() {
		return fmt.Errorf("NumEdges = %d, HDT has %d", c.NumEdges(), h.NumEdges())
	}
	first := map[uint64]graph.Vertex{}
	var firsts []graph.Vertex
	for v := graph.Vertex(0); int(v) < c.N(); v++ {
		id := c.ComponentID(v)
		f, ok := first[id]
		if !ok {
			first[id] = v
			firsts = append(firsts, v)
			continue
		}
		if !h.Connected(f, v) {
			return fmt.Errorf("%d and %d are connected, HDT says not", f, v)
		}
	}
	for x, f := range firsts {
		for _, g := range firsts[x+1:] {
			if h.Connected(f, g) {
				return fmt.Errorf("%d and %d are not connected, HDT says they are", f, g)
			}
		}
	}
	return nil
}

// TestSmallerOfTwoPieces cuts the bridge 2–3 between the path A = 0–1–2
// (chord 0–2) and the path B = 3–4–5–6–7 (chord 3–7) at n = 16. Every edge
// sits at the top level, whose pieces are searched up to 8 vertices, so A
// and B are both small enough and both hold a level-top non-tree edge: one
// group of exactly two holders. Only A, the smaller, is pushed and searched.
//   - (a) With the chord 0–7 the only replacement, A's search finds it, and
//     B's tree edges stay at the top level.
//   - (b) Without it, A's search exhausts, B is untouched and the components
//     split.
func TestSmallerOfTwoPieces(t *testing.T) {
	const n = 16
	forest := []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 5}, {U: 5, V: 6}, {U: 6, V: 7}}
	bridge := graph.Edge{U: 2, V: 3}
	treeA, treeB := forest[:2], forest[3:]
	for name, alg := range algs() {
		for _, replace := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/replacement=%v", name, replace), func(t *testing.T) {
				c := New(n, WithAlgorithm(alg))
				top := c.top
				if half := 1 << (top - 1); half < 5 {
					t.Fatalf("pieces of 3 and 5 vertices must both be searchable at level %d", top)
				}
				c.BatchInsert(forest)
				chords := []graph.Edge{{U: 0, V: 2}, {U: 3, V: 7}}
				if replace {
					chords = append(chords, graph.Edge{U: 0, V: 7})
				}
				c.BatchInsert(chords)
				c.BatchDelete([]graph.Edge{bridge})
				levels := func(es []graph.Edge, tree bool, want int32, what string) {
					t.Helper()
					for _, e := range es {
						if r := c.recFor(e.Key()); r.IsTree != tree || r.Level != want {
							t.Errorf("%s %v: tree %v at level %d, want tree %v at level %d", what, e, r.IsTree, r.Level, tree, want)
						}
					}
				}
				levels(treeA, true, top-1, "A's tree edge")
				levels(treeB, true, top, "B's tree edge")
				if got := c.Connected(2, 3); got != replace {
					t.Errorf("Connected(2, 3) = %v, want %v", got, replace)
				}
				if replace && !c.recFor(graph.Edge{U: 0, V: 7}.Key()).IsTree {
					t.Error("the replacement 0–7 is not a tree edge")
				}
				if !replace {
					levels([]graph.Edge{{U: 3, V: 7}}, false, top, "B's chord")
				}
				if err := c.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
