// Package adjlist implements the adjacency structure of Appendix 8: for each
// vertex and each level, two resizable arrays (tree edges and non-tree edges)
// supporting batch insertion, batch deletion and fetching the first l edges,
// at O(1) amortized work per edge. Each edge record stores its positions in
// the arrays of both endpoints so deletion is a swap-with-last.
package adjlist

import (
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/parallel"
)

// Rec is the shared record for one edge at one level. A Rec lives in exactly
// two arrays: the (Level, IsTree) list of E.U and of E.V. PosU/PosV are its
// indices there.
type Rec struct {
	E      graph.Edge // canonical orientation (U < V)
	Level  int32
	IsTree bool
	PosU   int32
	PosV   int32
}

func (r *Rec) pos(x graph.Vertex) int32 {
	if x == r.E.U {
		return r.PosU
	}
	return r.PosV
}

func (r *Rec) setPos(x graph.Vertex, p int32) {
	if x == r.E.U {
		r.PosU = p
	} else {
		r.PosV = p
	}
}

// lists holds the two per-(vertex, level) arrays.
type lists struct {
	tree    []*Rec
	nonTree []*Rec
}

func (l *lists) arr(isTree bool) *[]*Rec {
	if isTree {
		return &l.tree
	}
	return &l.nonTree
}

// cell is one level's lists of one vertex.
type cell struct {
	level int32
	lists
}

// Store is the full adjacency structure: n vertices × levels levels. Each
// vertex holds a cell only for the levels where it has records, sorted by
// level; a cell whose two lists empty is dropped, and so is a vertex's
// cell slice once it has no cells. Most vertices have edges at one or two
// of the lg n levels, so a dense per-level array would be mostly empty.
type Store struct {
	levels int
	verts  [][]cell
}

// New creates a Store for n vertices and the given number of levels.
func New(n int, levels int) *Store {
	return &Store{levels: levels, verts: make([][]cell, n)}
}

// Levels reports the number of levels the store was created with.
func (s *Store) Levels() int { return s.levels }

// find returns the index of u's cell at lvl, or where it would be inserted
// and false.
func (s *Store) find(u graph.Vertex, lvl int32) (int, bool) {
	cs := s.verts[u]
	for i := range cs {
		if cs[i].level >= lvl {
			return i, cs[i].level == lvl
		}
	}
	return len(cs), false
}

// lookup returns u's lists at lvl, or nil if u has no records there.
func (s *Store) lookup(u graph.Vertex, lvl int32) *lists {
	if i, ok := s.find(u, lvl); ok {
		return &s.verts[u][i].lists
	}
	return nil
}

// cell returns u's lists at lvl, creating the cell if absent.
func (s *Store) cell(u graph.Vertex, lvl int32) *lists {
	i, ok := s.find(u, lvl)
	if !ok {
		s.verts[u] = slices.Insert(s.verts[u], i, cell{level: lvl})
	}
	return &s.verts[u][i].lists
}

// insertAt appends r to x's (level, tree) list.
func (s *Store) insertAt(x graph.Vertex, r *Rec) {
	arr := s.cell(x, r.Level).arr(r.IsTree)
	r.setPos(x, int32(len(*arr)))
	*arr = append(*arr, r)
}

// deleteAt removes r from x's list by swapping with the last element, and
// drops x's cell at r's level once both its lists are empty.
func (s *Store) deleteAt(x graph.Vertex, r *Rec) {
	ci, _ := s.find(x, r.Level)
	c := &s.verts[x][ci]
	arr := c.arr(r.IsTree)
	i := r.pos(x)
	last := int32(len(*arr) - 1)
	if i != last {
		moved := (*arr)[last]
		(*arr)[i] = moved
		moved.setPos(x, i)
	}
	(*arr)[last] = nil
	*arr = (*arr)[:last]
	r.setPos(x, -1)
	if len(c.tree) == 0 && len(c.nonTree) == 0 {
		s.drop(x, ci)
	}
}

// drop removes x's cell ci, and x's cell slice if that was its last cell.
func (s *Store) drop(x graph.Vertex, ci int) {
	cs := slices.Delete(s.verts[x], ci, ci+1)
	if len(cs) == 0 {
		cs = nil // release the backing array with the last cell
	}
	s.verts[x] = cs
}

// Insert adds r to the lists of both endpoints (sequential; see BatchInsert).
func (s *Store) Insert(r *Rec) {
	s.insertAt(r.E.U, r)
	s.insertAt(r.E.V, r)
}

// Delete removes r from the lists of both endpoints.
func (s *Store) Delete(r *Rec) {
	s.deleteAt(r.E.U, r)
	s.deleteAt(r.E.V, r)
}

// Count returns the length of u's (lvl, isTree) list.
func (s *Store) Count(u graph.Vertex, lvl int32, isTree bool) int {
	l := s.lookup(u, lvl)
	if l == nil {
		return 0
	}
	return len(*l.arr(isTree))
}

// Fetch returns up to l records from the front of u's (lvl, isTree) list.
// The returned slice aliases the store; callers must not mutate it.
func (s *Store) Fetch(u graph.Vertex, lvl int32, isTree bool, l int) []*Rec {
	c := s.lookup(u, lvl)
	if c == nil {
		return nil
	}
	arr := *c.arr(isTree)
	if l > len(arr) {
		l = len(arr)
	}
	return arr[:l]
}

// All returns every record in u's (lvl, isTree) list.
func (s *Store) All(u graph.Vertex, lvl int32, isTree bool) []*Rec {
	return s.Fetch(u, lvl, isTree, 1<<31-1)
}

// Neighbors appends to dst the endpoint opposite u of every record in u's
// lists across all levels — the tree lists always, the non-tree lists unless
// treeOnly. Each live edge holds exactly one record, so the result is
// duplicate-free. O(degree); read-only.
//
//conn:readonly
func (s *Store) Neighbors(u graph.Vertex, treeOnly bool, dst []graph.Vertex) []graph.Vertex {
	cs := s.verts[u]
	for i := range cs {
		for _, r := range cs[i].tree {
			dst = append(dst, r.E.Other(u))
		}
		if treeOnly {
			continue
		}
		for _, r := range cs[i].nonTree {
			dst = append(dst, r.E.Other(u))
		}
	}
	return dst
}

// Delta reports the per-(vertex, level) change in list lengths produced by a
// batch operation, so the caller can repair ETT augmented values.
type Delta struct {
	V       graph.Vertex
	Level   int32
	Tree    int64
	NonTree int64
}

// endpointGroups semisorts records by endpoint so each vertex's mutations can
// run sequentially while distinct vertices proceed in parallel. Each record
// appears in exactly two groups (once per endpoint): index i stands for
// endpoint i%2 of recs[i/2]. Groups are laid out as parallel.GroupBy returns
// them.
func endpointGroups(recs []*Rec) (order, start []int) {
	keys := make([]uint64, 2*len(recs))
	parallel.For(len(recs), 2048, func(i int) {
		keys[2*i] = uint64(uint32(recs[i].E.U))
		keys[2*i+1] = uint64(uint32(recs[i].E.V))
	})
	return parallel.GroupBy(keys)
}

// BatchInsert inserts all records (each into both endpoint lists) and
// returns the per-(vertex, level) count deltas. O(1) amortized work per edge,
// parallel across vertices.
func (s *Store) BatchInsert(recs []*Rec) []Delta {
	return s.batch(recs, true)
}

// BatchDelete removes all records and returns count deltas.
func (s *Store) BatchDelete(recs []*Rec) []Delta {
	return s.batch(recs, false)
}

func (s *Store) batch(recs []*Rec, insert bool) []Delta {
	if len(recs) == 0 {
		return nil
	}
	// Grouping by endpoint gives each goroutine its own vertices, so the
	// cells it creates and drops are never shared.
	order, start := endpointGroups(recs)
	// A vertex's group of k records touches at most k levels, so group g
	// accumulates its deltas in out[start[g]:start[g+1]] and marks the
	// slots it leaves over with Level -1; one pass then compacts.
	out := make([]Delta, len(order))
	parallel.For(len(start)-1, 0, func(g int) {
		grp := order[start[g]:start[g+1]]
		r0 := recs[grp[0]/2]
		u := r0.E.U
		if grp[0]%2 == 1 {
			u = r0.E.V
		}
		dl := out[start[g]:start[g+1]]
		used := 0
		for _, idx := range grp {
			r := recs[idx/2]
			d := -1
			for i := 0; i < used; i++ {
				if dl[i].Level == r.Level {
					d = i
					break
				}
			}
			if d < 0 {
				d = used
				dl[d] = Delta{V: u, Level: r.Level}
				used++
			}
			sign := int64(1)
			if insert {
				s.insertAt(u, r)
			} else {
				s.deleteAt(u, r)
				sign = -1
			}
			if r.IsTree {
				dl[d].Tree += sign
			} else {
				dl[d].NonTree += sign
			}
		}
		for i := used; i < len(dl); i++ {
			dl[i].Level = -1
		}
	})
	n := 0
	for _, d := range out {
		if d.Level >= 0 {
			out[n] = d
			n++
		}
	}
	return out[:n]
}

// CheckInvariants verifies position back-pointers for vertex u, and that
// its cells are sorted by level and none is empty; for tests.
func (s *Store) CheckInvariants(u graph.Vertex) error {
	cs := s.verts[u]
	for ci := range cs {
		lvl := cs[ci].level
		if lvl < 0 || int(lvl) >= s.levels {
			return fmt.Errorf("v=%d cell level %d out of range [0, %d)", u, lvl, s.levels)
		}
		if ci > 0 && cs[ci-1].level >= lvl {
			return fmt.Errorf("v=%d cells out of order at level %d", u, lvl)
		}
		if len(cs[ci].tree) == 0 && len(cs[ci].nonTree) == 0 {
			return fmt.Errorf("v=%d holds an empty cell at level %d", u, lvl)
		}
		for _, isTree := range []bool{true, false} {
			arr := *cs[ci].arr(isTree)
			for i, r := range arr {
				if r == nil {
					return fmt.Errorf("nil rec at v=%d lvl=%d i=%d", u, lvl, i)
				}
				if r.Level != lvl || r.IsTree != isTree {
					return fmt.Errorf("rec %v in wrong list (lvl=%d tree=%v)", r.E, lvl, isTree)
				}
				if r.pos(u) != int32(i) {
					return fmt.Errorf("rec %v pos=%d want %d", r.E, r.pos(u), i)
				}
				if r.E.U != u && r.E.V != u {
					return fmt.Errorf("rec %v not incident on %d", r.E, u)
				}
			}
		}
	}
	return nil
}
