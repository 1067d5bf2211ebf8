package treap

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// build constructs a sequence whose elements carry Data = their build index
// and Size = that index (so aggregate checks catch reordering).
func build(n int) *Node {
	var root *Node
	for i := 0; i < n; i++ {
		nd := NewNode(Value{Cnt: 1, Size: int32(i)}, int32(i))
		root = Join(root, nd)
	}
	return root
}

func contents(t *Node) []int {
	var out []int
	Walk(t, func(n *Node) { out = append(out, int(n.Data)) })
	return out
}

func assertSeq(t *testing.T, root *Node, want []int) {
	t.Helper()
	got := contents(root)
	if len(got) != len(want) {
		t.Fatalf("sequence length %d, want %d (%v vs %v)", len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sequence[%d] = %d, want %d (%v)", i, got[i], want[i], want)
		}
	}
	if err := CheckInvariants(root); err != "" {
		t.Fatalf("invariants: %s", err)
	}
}

func TestJoinBuildsOrderedSequence(t *testing.T) {
	root := build(10)
	assertSeq(t, root, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if Len(root) != 10 {
		t.Fatalf("Len = %d", Len(root))
	}
}

func TestSplitAtEveryPosition(t *testing.T) {
	for k := int64(0); k <= 8; k++ {
		root := build(8)
		a, b := SplitAt(root, k)
		var want1, want2 []int
		for i := 0; i < 8; i++ {
			if int64(i) < k {
				want1 = append(want1, i)
			} else {
				want2 = append(want2, i)
			}
		}
		assertSeq(t, a, want1)
		assertSeq(t, b, want2)
		back := Join(a, b)
		assertSeq(t, back, []int{0, 1, 2, 3, 4, 5, 6, 7})
	}
}

func TestIndexAndAt(t *testing.T) {
	root := build(100)
	for i := int64(0); i < 100; i++ {
		nd := At(root, i)
		if nd == nil || int(nd.Data) != int(i) {
			t.Fatalf("At(%d) wrong", i)
		}
		if Index(nd) != i {
			t.Fatalf("Index(At(%d)) = %d", i, Index(nd))
		}
	}
	if At(root, 100) != nil || At(root, -1) != nil {
		t.Fatal("At out of range should be nil")
	}
}

func TestRootSharedWithinSequence(t *testing.T) {
	root := build(50)
	r0 := Root(At(root, 0))
	for i := int64(1); i < 50; i++ {
		if Root(At(root, i)) != r0 {
			t.Fatalf("element %d has different root", i)
		}
	}
	a, b := SplitAt(root, 25)
	if Root(First(a)) == Root(First(b)) {
		t.Fatal("split halves share a root")
	}
}

func TestSplitBefore(t *testing.T) {
	root := build(10)
	x := At(root, 4)
	a, b := SplitBefore(x)
	assertSeq(t, a, []int{0, 1, 2, 3})
	assertSeq(t, b, []int{4, 5, 6, 7, 8, 9})
	if First(b) != x {
		t.Fatal("suffix does not start at x")
	}
}

func TestRemove(t *testing.T) {
	root := build(6)
	x := At(root, 3)
	rest := Remove(x)
	assertSeq(t, rest, []int{0, 1, 2, 4, 5})
	if x.p != nil || x.l != nil || x.r != nil {
		t.Fatal("removed node not detached")
	}
	if x.sum != x.Val() {
		t.Fatal("removed node aggregate not reset")
	}
	// Removing the only element yields nil.
	single := NewNode(Value{Cnt: 1}, 0)
	if Remove(single) != nil {
		t.Fatal("removing a singleton should return nil")
	}
}

func TestSetValPropagates(t *testing.T) {
	root := build(20)
	before := Agg(First(root)).Size
	x := At(root, 7)
	SetVal(x, Value{Cnt: 1, Size: 1000})
	after := Agg(First(Root(x))).Size
	if after != before-7+1000 {
		t.Fatalf("aggregate after SetVal = %d, want %d", after, before-7+1000)
	}
	if err := CheckInvariants(Root(x)); err != "" {
		t.Fatalf("invariants: %s", err)
	}
}

func TestAddVal(t *testing.T) {
	root := build(5)
	x := At(root, 2)
	AddVal(x, Value{NonTree: 3})
	if Agg(x).NonTree != 3 {
		t.Fatalf("NonTree aggregate = %d", Agg(x).NonTree)
	}
	AddVal(x, Value{NonTree: -3})
	if Agg(x).NonTree != 0 {
		t.Fatalf("NonTree aggregate = %d after undo", Agg(x).NonTree)
	}
}

func TestCollectFindsMarkedNodes(t *testing.T) {
	root := build(100)
	// Mark nodes 10, 40, 70 with NonTree counts 2, 3, 4.
	marks := map[int]int32{10: 2, 40: 3, 70: 4}
	for idx, c := range marks {
		nd := At(root, int64(idx))
		AddVal(nd, Value{NonTree: c})
		root = Root(nd)
	}
	proj := func(v Value) int64 { return int64(v.NonTree) }
	var out []*Node
	got := Collect(root, 4, proj, &out)
	if got < 4 {
		t.Fatalf("Collect accumulated %d, want >= 4", got)
	}
	if len(out) != 2 || out[0].Data != 10 || out[1].Data != 40 {
		t.Fatalf("Collect chose wrong nodes: %v", out)
	}
	// Asking for more than available returns everything.
	out = nil
	got = Collect(root, 100, proj, &out)
	if got != 9 || len(out) != 3 {
		t.Fatalf("Collect(all) got %d over %d nodes", got, len(out))
	}
}

func TestCollectEmptyAndZeroLimit(t *testing.T) {
	root := build(10)
	proj := func(v Value) int64 { return int64(v.NonTree) }
	var out []*Node
	if got := Collect(root, 5, proj, &out); got != 0 || len(out) != 0 {
		t.Fatal("Collect on zero-projection tree should gather nothing")
	}
	if got := Collect(root, 0, proj, &out); got != 0 {
		t.Fatal("Collect with limit 0 should gather nothing")
	}
	if got := Collect(nil, 5, proj, &out); got != 0 {
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
		model := []int{}
		var root *Node
		next := 0
		for _, o := range ops {
			switch o.Kind % 3 {
			case 0: // append new element
				nd := NewNode(Value{Cnt: 1}, int32(next))
				model = append(model, next)
				next++
				root = Join(root, nd)
			case 1: // split and rejoin swapped (rotate)
				if len(model) == 0 {
					continue
				}
				k := int64(int(o.Pos) % (len(model) + 1))
				a, b := SplitAt(root, k)
				root = Join(b, a)
				model = append(model[k:], model[:k]...)
			case 2: // remove element at pos
				if len(model) == 0 {
					continue
				}
				i := int(o.Pos) % len(model)
				nd := At(root, int64(i))
				root = Remove(nd)
				model = append(model[:i], model[i+1:]...)
			}
			if root == nil {
				if len(model) != 0 {
					return false
				}
				continue
			}
			if CheckInvariants(root) != "" {
				return false
			}
			got := contents(root)
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
	root := build(1 << 14)
	var maxDepth int
	var walk func(n *Node, d int)
	walk = func(n *Node, d int) {
		if n == nil {
			return
		}
		if d > maxDepth {
			maxDepth = d
		}
		walk(n.l, d+1)
		walk(n.r, d+1)
	}
	walk(root, 1)
	// Expected depth ~ 3 lg n; fail only on gross degradation.
	if maxDepth > 9*14 {
		t.Fatalf("treap depth %d on 2^14 elements suggests broken priorities", maxDepth)
	}
}

func TestJoinNilCases(t *testing.T) {
	if Join(nil, nil) != nil {
		t.Fatal("Join(nil,nil) != nil")
	}
	n := NewNode(Value{Cnt: 1}, 0)
	if Join(n, nil) != n || Join(nil, n) != n {
		t.Fatal("Join with nil should return the other root")
	}
}

func TestLargeRandomSplitJoinStress(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	root := build(5000)
	for iter := 0; iter < 500; iter++ {
		k := rng.Int63n(Len(root) + 1)
		a, b := SplitAt(root, k)
		if rng.Intn(2) == 0 {
			root = Join(a, b)
		} else {
			root = Join(b, a)
		}
	}
	if Len(root) != 5000 {
		t.Fatalf("lost elements: %d", Len(root))
	}
	if err := CheckInvariants(root); err != "" {
		t.Fatalf("invariants: %s", err)
	}
}
