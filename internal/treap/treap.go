// Package treap implements the augmented sequence structure underlying the
// batch-parallel Euler-tour trees: an ordered sequence with O(lg n) expected
// split, join, positional access and root-finding, and subtree aggregates
// (element count, vertex count, level-i tree-edge count, level-i non-tree
// edge count).
//
// The paper (following Tseng et al.) stores Euler tours in concurrent skip
// lists; we substitute a randomized treap with parent pointers. It has the
// same expected work bounds for every operation the connectivity algorithm
// uses, and the batch algorithms obtain their parallelism one level up, by
// processing distinct tours concurrently (see internal/ett). The treap keeps
// the sequence semantics simple and makes split/join — the operations Euler
// tour trees stress — straightforward to verify.
//
// # Read-only query contract
//
// Root, Agg, Len, Index, At, First, Collect, Walk, ID, Val and
// CheckInvariants are pure root/child walks: they write no node field,
// keep no lazy state, and perform no rebalancing (a treap has no splaying
// or path compression to tempt them). Any number of goroutines may therefore run them
// concurrently with each other on the same treap, provided no mutation
// (NewNode on a shared pool aside, Join, SplitAt, SplitBefore, SetVal,
// AddVal, Remove, Free) is in flight. Every walk of a live structure runs
// on its engine's dispatcher, so the contract guards the parallel workers
// inside one batch operation (a batch query or lookup fanned out over
// parallel.For), not concurrent readers. It is enforced by
// TestConcurrentReadOnlyQueries under -race.
package treap

import (
	"sync"
	"sync/atomic"
)

// Value is the augmented payload aggregated over subtrees. The counters are
// int32 so that a Node fits the 64-byte allocation class: the level
// structure keeps one node per vertex and two per tree edge at every level
// it reaches, which makes nodes most of the live heap. A sequence therefore
// holds fewer than 2³¹ elements (an Euler tour of n vertices has under 3n)
// and fewer than 2³¹ incident edges of each kind.
type Value struct {
	Cnt     int32 // sequence elements (every node contributes 1)
	Size    int32 // vertices (vertex-loop nodes contribute 1, arcs 0)
	Tree    int32 // incident tree edges at the owning forest's level
	NonTree int32 // incident non-tree edges at the owning forest's level
}

// Add returns the component-wise sum of two Values.
func (v Value) Add(o Value) Value {
	return Value{
		Cnt:     v.Cnt + o.Cnt,
		Size:    v.Size + o.Size,
		Tree:    v.Tree + o.Tree,
		NonTree: v.NonTree + o.NonTree,
	}
}

// Node is one sequence element. Fields l, r, p form the treap; pri is the
// heap priority (and, through unmix, the node's creation id); size, tree
// and nonTree are this element's own contribution (see Val) and sum the
// aggregate over the node's subtree, including it.
type Node struct {
	l, r, p *Node
	pri     uint64
	sum     Value

	size, tree, nonTree int32
	// Data identifies the Euler-tour element this node represents (a
	// vertex id); the treap never inspects it.
	Data int32
}

var idCtr atomic.Uint64

// mix is the splitmix64 finalizer: a bijection on uint64, so distinct ids
// give distinct priorities and unmix recovers the id from the priority.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// unmix inverts mix: each xor-shift is undone by its geometric series and
// each multiplication by the constant's inverse mod 2⁶⁴.
func unmix(x uint64) uint64 {
	x ^= x>>31 ^ x>>62
	x *= 0x319642b2d24d8ec3
	x ^= x>>27 ^ x>>54
	x *= 0x96de1b173f119089
	x ^= x>>30 ^ x>>60
	return x
}

// nodePool recycles detached nodes: Euler-tour trees churn through two arc
// elements per link/cut, and the level structure performs O(m lg n) of those
// over its lifetime, so pooling removes the dominant allocation source.
var nodePool = sync.Pool{New: func() any { return new(Node) }}

// NewNode returns a fresh single-element sequence with the given value.
// val.Cnt is ignored: every element counts as one.
func NewNode(val Value, data int32) *Node {
	id := idCtr.Add(1)
	n := nodePool.Get().(*Node)
	n.l, n.r, n.p = nil, nil, nil
	n.pri = mix(id)
	n.size, n.tree, n.nonTree = val.Size, val.Tree, val.NonTree
	n.sum = n.Val()
	n.Data = data
	return n
}

// Val returns the element's own contribution. Read-only.
//
//conn:readonly
func (n *Node) Val() Value {
	return Value{Cnt: 1, Size: n.size, Tree: n.tree, NonTree: n.nonTree}
}

// Free returns a node to the allocation pool. The caller must guarantee the
// node is detached (removed from its sequence) and no longer referenced; the
// Euler-tour tree calls this for the arc elements discarded by a cut.
func Free(n *Node) {
	n.l, n.r, n.p = nil, nil, nil
	nodePool.Put(n)
}

// ID returns the node's unique creation identifier, usable as a stable hash
// key (e.g. to group operations by tour root).
func (n *Node) ID() uint64 { return unmix(n.pri) }

func cnt(t *Node) int64 {
	if t == nil {
		return 0
	}
	return int64(t.sum.Cnt)
}

func sum(t *Node) Value {
	if t == nil {
		return Value{}
	}
	return t.sum
}

func update(t *Node) {
	t.sum = t.Val().Add(sum(t.l)).Add(sum(t.r))
}

// Root returns the root of the treap containing x. Two nodes are in the same
// sequence iff they have the same root, so the root serves as the sequence
// representative (invalidated by any split or join). Read-only: safe for
// concurrent callers under the package's query contract.
func Root(x *Node) *Node {
	for x.p != nil {
		x = x.p
	}
	return x
}

// Agg returns the aggregate over the whole sequence containing x. Read-only.
func Agg(x *Node) Value { return Root(x).sum }

// Len returns the number of elements in the sequence containing x.
func Len(x *Node) int64 { return int64(Root(x).sum.Cnt) }

// Join concatenates sequences a then b and returns the new root. Either may
// be nil. The inputs must be roots of distinct treaps.
func Join(a, b *Node) *Node {
	if a == nil {
		if b != nil {
			b.p = nil
		}
		return b
	}
	if b == nil {
		a.p = nil
		return a
	}
	if a.pri >= b.pri {
		nr := Join(a.r, b)
		a.r = nr
		nr.p = a
		update(a)
		a.p = nil
		return a
	}
	nl := Join(a, b.l)
	b.l = nl
	nl.p = b
	update(b)
	b.p = nil
	return b
}

// SplitAt splits the sequence rooted at t into its first k elements and the
// remainder, returning the two roots (either may be nil).
func SplitAt(t *Node, k int64) (*Node, *Node) {
	if t == nil {
		return nil, nil
	}
	lc := cnt(t.l)
	if k <= lc {
		lt := t.l
		if lt != nil {
			lt.p = nil
			t.l = nil
		}
		a, b := SplitAt(lt, k)
		t.l = b
		if b != nil {
			b.p = t
		}
		update(t)
		t.p = nil
		return a, t
	}
	rt := t.r
	if rt != nil {
		rt.p = nil
		t.r = nil
	}
	a, b := SplitAt(rt, k-lc-1)
	t.r = a
	if a != nil {
		a.p = t
	}
	update(t)
	t.p = nil
	return t, b
}

// Index returns the zero-based position of x within its sequence.
func Index(x *Node) int64 {
	idx := cnt(x.l)
	for cur := x; cur.p != nil; cur = cur.p {
		if cur.p.r == cur {
			idx += cnt(cur.p.l) + 1
		}
	}
	return idx
}

// At returns the i-th element (zero-based) of the sequence rooted at t, or
// nil if out of range.
func At(t *Node, i int64) *Node {
	if t == nil || i < 0 || i >= int64(t.sum.Cnt) {
		return nil
	}
	for {
		lc := cnt(t.l)
		switch {
		case i < lc:
			t = t.l
		case i == lc:
			return t
		default:
			i -= lc + 1
			t = t.r
		}
	}
}

// First returns the first element of the sequence rooted at t.
func First(t *Node) *Node {
	if t == nil {
		return nil
	}
	for t.l != nil {
		t = t.l
	}
	return t
}

// SplitBefore splits the sequence containing x so that x begins the second
// part; returns the roots (prefix, suffix-starting-at-x).
func SplitBefore(x *Node) (*Node, *Node) {
	r := Root(x)
	return SplitAt(r, Index(x))
}

// SetVal replaces x's own contribution (v.Cnt is ignored) and repairs
// aggregates up to the root. O(depth) = O(lg n) expected.
func SetVal(x *Node, v Value) {
	x.size, x.tree, x.nonTree = v.Size, v.Tree, v.NonTree
	for cur := x; cur != nil; cur = cur.p {
		update(cur)
	}
}

// AddVal adds delta (component-wise) to x's own contribution.
func AddVal(x *Node, delta Value) {
	SetVal(x, x.Val().Add(delta))
}

// Remove deletes x from its sequence and returns the root of the remaining
// sequence (nil if x was the only element). x becomes a valid singleton.
func Remove(x *Node) *Node {
	pre, rest := SplitBefore(x)
	_, suf := SplitAt(rest, 1)
	x.l, x.r, x.p = nil, nil, nil
	update(x)
	return Join(pre, suf)
}

// Collect appends to out the in-order sequence elements x with proj(x.Val)>0
// until the accumulated projection reaches limit, skipping subtrees whose
// aggregate projection is zero. Returns the amount accumulated (possibly
// exceeding limit by the last element's contribution, or falling short if
// the sequence runs out). O(|out| + lg n) expected via aggregate pruning.
func Collect(t *Node, limit int64, proj func(Value) int64, out *[]*Node) int64 {
	if t == nil || limit <= 0 || proj(t.sum) == 0 {
		return 0
	}
	got := Collect(t.l, limit, proj, out)
	if got < limit {
		if v := proj(t.Val()); v > 0 {
			*out = append(*out, t)
			got += v
		}
	}
	if got < limit {
		got += Collect(t.r, limit-got, proj, out)
	}
	return got
}

// Walk calls fn on every element of the sequence rooted at t, in order.
func Walk(t *Node, fn func(*Node)) {
	if t == nil {
		return
	}
	Walk(t.l, fn)
	fn(t)
	Walk(t.r, fn)
}

// CheckInvariants verifies heap order, parent pointers and aggregates of the
// whole treap rooted at t; it is exported for tests and returns the first
// violation found, or an empty string.
func CheckInvariants(t *Node) string {
	if t == nil {
		return ""
	}
	if t.p != nil {
		return "root has parent"
	}
	var rec func(n *Node) (Value, string)
	rec = func(n *Node) (Value, string) {
		if n == nil {
			return Value{}, ""
		}
		if n.l != nil {
			if n.l.p != n {
				return Value{}, "bad left parent pointer"
			}
			if n.l.pri > n.pri {
				return Value{}, "heap violation (left)"
			}
		}
		if n.r != nil {
			if n.r.p != n {
				return Value{}, "bad right parent pointer"
			}
			if n.r.pri > n.pri {
				return Value{}, "heap violation (right)"
			}
		}
		ls, err := rec(n.l)
		if err != "" {
			return Value{}, err
		}
		rs, err := rec(n.r)
		if err != "" {
			return Value{}, err
		}
		want := n.Val().Add(ls).Add(rs)
		if want != n.sum {
			return Value{}, "aggregate mismatch"
		}
		return want, ""
	}
	_, err := rec(t)
	return err
}
