package adjlist

import (
	"slices"
	"testing"

	"repro/internal/graph"
)

// FuzzAdjlist decodes bytes into Insert / Delete / re-level / re-tree
// sequences (singly and in batches) over a few vertices and compares the
// store after every step with a map model: Count, Fetch, All, Neighbors,
// CheckInvariants, and that a vertex with no records holds no cell.
func FuzzAdjlist(f *testing.F) {
	f.Add([]byte{0, 0x01, 0x00, 0, 0x12, 0x21, 2, 0x01, 0x03, 3, 0x12, 0x00, 1, 0x01, 0x00})
	f.Add([]byte{4, 0x34, 0x15, 4, 0x05, 0x26, 5, 0x34, 0x00, 0, 0x23, 0x31, 1, 0x23, 0x00})
	f.Add([]byte{0, 0x01, 0x30, 0, 0x02, 0x30, 0, 0x03, 0x21, 2, 0x02, 0x00, 2, 0x03, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		const n, levels = 6, 4
		s := New(n, levels)
		model := map[uint64]*Rec{}
		var pendIns, pendDel []*Rec
		flush := func() {
			s.BatchInsert(pendIns)
			s.BatchDelete(pendDel)
			pendIns, pendDel = pendIns[:0], pendDel[:0]
		}
		pending := func(k uint64) bool {
			for _, r := range append(pendIns, pendDel...) {
				if r.E.Key() == k {
					return true
				}
			}
			return false
		}
		for ; len(data) >= 3; data = data[3:] {
			u, v := graph.Vertex(data[1]>>4%n), graph.Vertex(data[1]&0xf%n)
			lvl, tree := int32(data[2]>>4%levels), data[2]&1 == 1
			if u == v {
				continue
			}
			e := graph.Edge{U: u, V: v}.Canon()
			k := e.Key()
			op := data[0] % 6
			if op < 4 {
				flush() // single ops see the store and the model agree
			}
			r := model[k]
			switch op {
			case 0: // insert
				if r == nil {
					r = &Rec{E: e, Level: lvl, IsTree: tree}
					model[k] = r
					s.Insert(r)
				}
			case 1: // delete
				if r != nil {
					delete(model, k)
					s.Delete(r)
				}
			case 2: // re-level
				if r != nil {
					s.Delete(r)
					r.Level = lvl
					s.Insert(r)
				}
			case 3: // re-tree
				if r != nil {
					s.Delete(r)
					r.IsTree = !r.IsTree
					s.Insert(r)
				}
			case 4: // stage a batch insert
				if r == nil && !pending(k) {
					r = &Rec{E: e, Level: lvl, IsTree: tree}
					model[k] = r
					pendIns = append(pendIns, r)
				}
			case 5: // stage a batch delete, then apply the batch
				if r != nil && !pending(k) {
					delete(model, k)
					pendDel = append(pendDel, r)
				}
				flush()
			}
			if len(pendIns)+len(pendDel) == 0 {
				check(t, s, model, n, levels)
			}
		}
		flush()
		check(t, s, model, n, levels)
	})
}

// check compares every vertex of s against the model edge set.
func check(t *testing.T, s *Store, model map[uint64]*Rec, n int, levels int32) {
	t.Helper()
	for u := graph.Vertex(0); u < graph.Vertex(n); u++ {
		if err := s.CheckInvariants(u); err != nil {
			t.Fatal(err)
		}
		var want, wantTree []graph.Vertex
		held := 0
		for lvl := int32(0); lvl < levels; lvl++ {
			for _, isTree := range []bool{true, false} {
				var recs []*Rec
				for _, r := range model {
					if (r.E.U == u || r.E.V == u) && r.Level == lvl && r.IsTree == isTree {
						recs = append(recs, r)
					}
				}
				held += len(recs)
				for _, r := range recs {
					want = append(want, r.E.Other(u))
					if isTree {
						wantTree = append(wantTree, r.E.Other(u))
					}
				}
				if got := s.Count(u, lvl, isTree); got != len(recs) {
					t.Fatalf("Count(%d, %d, %v) = %d, want %d", u, lvl, isTree, got, len(recs))
				}
				all := s.All(u, lvl, isTree)
				if !sameRecs(all, recs) {
					t.Fatalf("All(%d, %d, %v) = %d recs, want %d", u, lvl, isTree, len(all), len(recs))
				}
				for l := 0; l <= len(recs)+1; l++ {
					got := s.Fetch(u, lvl, isTree, l)
					if len(got) != min(l, len(recs)) || !slices.Equal(got, all[:len(got)]) {
						t.Fatalf("Fetch(%d, %d, %v, %d) is not the first %d of All", u, lvl, isTree, l, min(l, len(recs)))
					}
				}
			}
		}
		if got := s.Neighbors(u, false, nil); !sameVerts(got, want) {
			t.Fatalf("Neighbors(%d) = %v, want %v", u, got, want)
		}
		if got := s.Neighbors(u, true, nil); !sameVerts(got, wantTree) {
			t.Fatalf("tree Neighbors(%d) = %v, want %v", u, got, wantTree)
		}
		if held == 0 && s.verts[u] != nil {
			t.Fatalf("vertex %d holds no records but keeps %d cells", u, len(s.verts[u]))
		}
	}
}

func sameRecs(a, b []*Rec) bool {
	if len(a) != len(b) {
		return false
	}
	for _, r := range b {
		if !slices.Contains(a, r) {
			return false
		}
	}
	return true
}

func sameVerts(a, b []graph.Vertex) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}
