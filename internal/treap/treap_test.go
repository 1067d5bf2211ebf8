package treap

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// build constructs a sequence whose elements carry Data = their build index
// and Size = that index (so aggregate checks catch reordering).
func build(n int) (*Slab, int32) {
	s := NewSlab(n)
	var root int32
	for i := 0; i < n; i++ {
		nd := s.NewNode(Value{Cnt: 1, Size: int32(i)}, int32(i))
		root = s.Join(root, nd)
	}
	return s, root
}

func contents(s *Slab, t int32) []int {
	var out []int
	s.Walk(t, func(n int32) { out = append(out, int(s.Data(n))) })
	return out
}

func assertSeq(t *testing.T, s *Slab, root int32, want []int) {
	t.Helper()
	got := contents(s, root)
	if len(got) != len(want) {
		t.Fatalf("sequence length %d, want %d (%v vs %v)", len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sequence[%d] = %d, want %d (%v)", i, got[i], want[i], want)
		}
	}
	if err := s.CheckInvariants(root); err != "" {
		t.Fatalf("invariants: %s", err)
	}
}

func TestJoinBuildsOrderedSequence(t *testing.T) {
	s, root := build(10)
	assertSeq(t, s, root, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if s.Len(root) != 10 {
		t.Fatalf("Len = %d", s.Len(root))
	}
}

func TestSplitAtEveryPosition(t *testing.T) {
	for k := int64(0); k <= 8; k++ {
		s, root := build(8)
		a, b := s.SplitAt(root, k)
		var want1, want2 []int
		for i := 0; i < 8; i++ {
			if int64(i) < k {
				want1 = append(want1, i)
			} else {
				want2 = append(want2, i)
			}
		}
		assertSeq(t, s, a, want1)
		assertSeq(t, s, b, want2)
		back := s.Join(a, b)
		assertSeq(t, s, back, []int{0, 1, 2, 3, 4, 5, 6, 7})
	}
}

func TestIndexAndAt(t *testing.T) {
	s, root := build(100)
	for i := int64(0); i < 100; i++ {
		nd := s.At(root, i)
		if nd == 0 || int(s.Data(nd)) != int(i) {
			t.Fatalf("At(%d) wrong", i)
		}
		if s.Index(nd) != i {
			t.Fatalf("Index(At(%d)) = %d", i, s.Index(nd))
		}
	}
	if s.At(root, 100) != 0 || s.At(root, -1) != 0 {
		t.Fatal("At out of range should be nil")
	}
}

func TestRootSharedWithinSequence(t *testing.T) {
	s, root := build(50)
	r0 := s.Root(s.At(root, 0))
	for i := int64(1); i < 50; i++ {
		if s.Root(s.At(root, i)) != r0 {
			t.Fatalf("element %d has different root", i)
		}
	}
	a, b := s.SplitAt(root, 25)
	if s.Root(s.First(a)) == s.Root(s.First(b)) {
		t.Fatal("split halves share a root")
	}
}

func TestSplitBefore(t *testing.T) {
	s, root := build(10)
	x := s.At(root, 4)
	a, b := s.SplitBefore(x)
	assertSeq(t, s, a, []int{0, 1, 2, 3})
	assertSeq(t, s, b, []int{4, 5, 6, 7, 8, 9})
	if s.First(b) != x {
		t.Fatal("suffix does not start at x")
	}
}

func TestRemove(t *testing.T) {
	s, root := build(6)
	x := s.At(root, 3)
	rest := s.Remove(x)
	assertSeq(t, s, rest, []int{0, 1, 2, 4, 5})
	if n := s.nd(x); s.par(x) != 0 || n.l != 0 || n.r != 0 {
		t.Fatal("removed node not detached")
	}
	if s.Agg(x) != s.Val(x) {
		t.Fatal("removed node aggregate not reset")
	}
	// Removing the only element yields nil.
	single := s.NewNode(Value{Cnt: 1}, 0)
	if s.Remove(single) != 0 {
		t.Fatal("removing a singleton should return nil")
	}
}

func TestSetValPropagates(t *testing.T) {
	s, root := build(20)
	before := s.Agg(s.First(root)).Size
	x := s.At(root, 7)
	s.SetVal(x, Value{Cnt: 1, Size: 1000})
	after := s.Agg(s.First(s.Root(x))).Size
	if after != before-7+1000 {
		t.Fatalf("aggregate after SetVal = %d, want %d", after, before-7+1000)
	}
	if err := s.CheckInvariants(s.Root(x)); err != "" {
		t.Fatalf("invariants: %s", err)
	}
}

func TestAddVal(t *testing.T) {
	s, root := build(5)
	x := s.At(root, 2)
	s.AddVal(x, Value{NonTree: 3})
	if s.Agg(x).NonTree != 3 {
		t.Fatalf("NonTree aggregate = %d", s.Agg(x).NonTree)
	}
	s.AddVal(x, Value{NonTree: -3})
	if s.Agg(x).NonTree != 0 {
		t.Fatalf("NonTree aggregate = %d after undo", s.Agg(x).NonTree)
	}
}

func TestCollectFindsMarkedNodes(t *testing.T) {
	s, root := build(100)
	// Mark nodes 10, 40, 70 with NonTree counts 2, 3, 4.
	marks := map[int]int32{10: 2, 40: 3, 70: 4}
	for idx, c := range marks {
		nd := s.At(root, int64(idx))
		s.AddVal(nd, Value{NonTree: c})
		root = s.Root(nd)
	}
	proj := func(v Value) int64 { return int64(v.NonTree) }
	var out []int32
	got := s.Collect(root, 4, proj, &out)
	if got < 4 {
		t.Fatalf("Collect accumulated %d, want >= 4", got)
	}
	if len(out) != 2 || s.Data(out[0]) != 10 || s.Data(out[1]) != 40 {
		t.Fatalf("Collect chose wrong nodes: %v", out)
	}
	// Asking for more than available returns everything.
	out = nil
	got = s.Collect(root, 100, proj, &out)
	if got != 9 || len(out) != 3 {
		t.Fatalf("Collect(all) got %d over %d nodes", got, len(out))
	}
}

func TestCollectEmptyAndZeroLimit(t *testing.T) {
	s, root := build(10)
	proj := func(v Value) int64 { return int64(v.NonTree) }
	var out []int32
	if got := s.Collect(root, 5, proj, &out); got != 0 || len(out) != 0 {
		t.Fatal("Collect on zero-projection tree should gather nothing")
	}
	if got := s.Collect(root, 0, proj, &out); got != 0 {
		t.Fatal("Collect with limit 0 should gather nothing")
	}
	if got := s.Collect(0, 5, proj, &out); got != 0 {
		t.Fatal("Collect(nil) should gather nothing")
	}
}

// TestQuickSplitJoinModel drives random split/join/remove operations against
// a plain slice model.
func TestQuickSplitJoinModel(t *testing.T) {
	type op struct {
		Kind uint8
		Pos  uint16
	}
	f := func(ops []op) bool {
		s := NewSlab(len(ops))
		model := []int{}
		var root int32
		next := 0
		for _, o := range ops {
			switch o.Kind % 3 {
			case 0: // append new element
				nd := s.NewNode(Value{Cnt: 1}, int32(next))
				model = append(model, next)
				next++
				root = s.Join(root, nd)
			case 1: // split and rejoin swapped (rotate)
				if len(model) == 0 {
					continue
				}
				k := int64(int(o.Pos) % (len(model) + 1))
				a, b := s.SplitAt(root, k)
				root = s.Join(b, a)
				model = append(model[k:], model[:k]...)
			case 2: // remove element at pos
				if len(model) == 0 {
					continue
				}
				i := int(o.Pos) % len(model)
				nd := s.At(root, int64(i))
				root = s.Remove(nd)
				model = append(model[:i], model[i+1:]...)
			}
			if root == 0 {
				if len(model) != 0 {
					return false
				}
				continue
			}
			if s.CheckInvariants(root) != "" {
				return false
			}
			got := contents(s, root)
			if len(got) != len(model) {
				return false
			}
			for i := range model {
				if got[i] != model[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestExpectedDepthLogarithmic(t *testing.T) {
	s, root := build(1 << 14)
	var maxDepth int
	var walk func(x int32, d int)
	walk = func(x int32, d int) {
		if x == 0 {
			return
		}
		if d > maxDepth {
			maxDepth = d
		}
		walk(s.nd(x).l, d+1)
		walk(s.nd(x).r, d+1)
	}
	walk(root, 1)
	// Expected depth ~ 3 lg n; fail only on gross degradation.
	if maxDepth > 9*14 {
		t.Fatalf("treap depth %d on 2^14 elements suggests broken priorities", maxDepth)
	}
}

func TestJoinNilCases(t *testing.T) {
	s := NewSlab(1)
	if s.Join(0, 0) != 0 {
		t.Fatal("Join(nil,nil) != nil")
	}
	n := s.NewNode(Value{Cnt: 1}, 0)
	if s.Join(n, 0) != n || s.Join(0, n) != n {
		t.Fatal("Join with nil should return the other root")
	}
}

func TestLargeRandomSplitJoinStress(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s, root := build(5000)
	for iter := 0; iter < 500; iter++ {
		k := rng.Int63n(s.Len(root) + 1)
		a, b := s.SplitAt(root, k)
		if rng.Intn(2) == 0 {
			root = s.Join(a, b)
		} else {
			root = s.Join(b, a)
		}
	}
	if s.Len(root) != 5000 {
		t.Fatalf("lost elements: %d", s.Len(root))
	}
	if err := s.CheckInvariants(root); err != "" {
		t.Fatalf("invariants: %s", err)
	}
}
