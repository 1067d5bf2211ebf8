// Package treap implements the augmented sequence structure underlying the
// batch-parallel Euler-tour trees: an ordered sequence with O(lg n) expected
// split, join, positional access and root-finding, and subtree aggregates
// (element count, vertex count, level-i tree-edge count, level-i non-tree
// edge count).
//
// The paper (following Tseng et al.) stores Euler tours in concurrent skip
// lists; we substitute a randomized treap with parent links. It has the
// same expected work bounds for every operation the connectivity algorithm
// uses, and the batch algorithms obtain their parallelism one level up, by
// processing distinct tours concurrently (see internal/ett). The treap keeps
// the sequence semantics simple and makes split/join — the operations Euler
// tour trees stress — straightforward to verify.
//
// # Slab layout
//
// Nodes live in a Slab and are addressed by int32 slot numbers; slot 0 is
// nil. A Slab is a directory of fixed-size chunks sized at NewSlab. Each
// chunk holds a dense parent array and an array of pointer-free node
// records (children, priority, aggregate, own value, payload). Root walks,
// the hot path of every connectivity query, read 4 bytes per hop from the
// parent array (plus a directory entry, which stays in L1), and the
// collector never scans a chunk. Chunks are
// allocated one at a time as slots are first used and never move, so
// concurrent allocation (NewNode under one lock) never invalidates a slot
// another goroutine holds. Freed slots go on a free list threaded through
// the records.
//
// # Read-only query contract
//
// Root, Agg, Len, Val, Data, Isolated, Index, At, First, Collect, Walk and
// CheckInvariants are pure root/child walks: they write no slot, keep no
// lazy state, and perform no rebalancing (a treap has no splaying or path
// compression to tempt them). Any number of goroutines may therefore run
// them concurrently with each other on the same sequences, provided no
// mutation of those sequences (Join, SplitAt, SplitBefore, SplitAfter,
// SetVal, AddVal, Remove, Free) is in flight. NewNode may run beside them:
// it takes the slab's lock and touches only a slot nobody else holds.
// Every walk of a live structure runs on its engine's dispatcher, so the
// contract guards the parallel workers inside one batch operation (a batch
// query or lookup fanned out over parallel.For), not concurrent readers.
// The read-only methods carry //conn:readonly, which connvet checks, and
// the contract is enforced by TestConcurrentReadOnlyQueries under -race.
package treap

import (
	"fmt"
	"sync"
)

// Value is the augmented payload aggregated over subtrees. The counters are
// int32, which keeps a node record small: the level structure keeps one
// node per vertex and two per tree edge at every level it reaches, which
// makes nodes most of the live heap. A sequence therefore holds fewer than
// 2³¹ elements (an Euler tour of n vertices has under 3n) and fewer than
// 2³¹ incident edges of each kind.
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

// node is one sequence element's record; its parent link lives in the
// chunk's parent array. l and r are the children, pri the heap priority;
// size, tree and nonTree are the element's own contribution (see Val) and
// sum the aggregate over its subtree, itself included. data identifies the
// Euler-tour element (a vertex id); the treap never inspects it. A free
// slot threads the free list through l.
type node struct {
	l, r                int32
	pri                 uint32
	data                int32
	sum                 Value
	size, tree, nonTree int32
}

const (
	chunkBits = 10
	chunkLen  = 1 << chunkBits
	chunkMask = chunkLen - 1
)

// chunk is a fixed block of slots: the dense parent array first, then the
// records. Both are pointer-free, so the collector never scans a chunk.
type chunk struct {
	par [chunkLen]int32
	nd  [chunkLen]node
}

// Slab stores the nodes of a family of sequences (one Euler-tour forest).
// Sequences never span slabs: every slot passed to a Slab method must have
// come from that slab's NewNode.
type Slab struct {
	// dir has one entry per chunk the capacity needs; entries are filled
	// under mu as slots are first used and never change after.
	dir []*chunk

	mu   sync.Mutex
	next int32  // lowest never-used slot
	free int32  // head of the free list (0: empty)
	seq  uint64 // allocation counter; priorities are mix(seq)
}

// NewSlab returns a slab with room for capacity live nodes. Chunk 0 is
// allocated at once: it holds the nil slot, whose zero record is the empty
// aggregate.
func NewSlab(capacity int) *Slab {
	nc := (capacity + 1 + chunkMask) >> chunkBits
	s := &Slab{dir: make([]*chunk, nc), next: 1}
	s.dir[0] = new(chunk)
	return s
}

// mix is the splitmix64 finalizer, used to draw priorities from the
// allocation counter.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

//conn:readonly
func (s *Slab) nd(x int32) *node { return &s.dir[x>>chunkBits].nd[x&chunkMask] }

//conn:readonly
func (s *Slab) par(x int32) int32 { return s.dir[x>>chunkBits].par[x&chunkMask] }

// setPar sets x's parent link; x is never the nil slot.
func (s *Slab) setPar(x, p int32) { s.dir[x>>chunkBits].par[x&chunkMask] = p }

// NewNode returns a fresh single-element sequence with the given value.
// val.Cnt is ignored: every element counts as one. Safe for concurrent
// callers; it panics when the slab is full.
func (s *Slab) NewNode(val Value, data int32) int32 {
	s.mu.Lock()
	x := s.free
	if x != 0 {
		s.free = s.nd(x).l
	} else {
		x = s.next
		c := int(x >> chunkBits)
		if c == len(s.dir) {
			s.mu.Unlock()
			panic(fmt.Sprintf("treap: slab full (%d slots)", len(s.dir)<<chunkBits-1))
		}
		if s.dir[c] == nil {
			s.dir[c] = new(chunk)
		}
		s.next++
	}
	s.seq++
	pri := uint32(mix(s.seq))
	s.mu.Unlock()
	s.setPar(x, 0)
	n := s.nd(x)
	*n = node{pri: pri, data: data, size: val.Size, tree: val.Tree, nonTree: val.NonTree}
	n.sum = own(n)
	return x
}

// Free returns slot x to the slab. The caller must guarantee x is detached
// (removed from its sequence) and no longer referenced; the Euler-tour tree
// frees the arc elements discarded by a cut. Safe for concurrent callers.
func (s *Slab) Free(x int32) {
	s.mu.Lock()
	s.nd(x).l = s.free
	s.free = x
	s.mu.Unlock()
}

func own(n *node) Value {
	return Value{Cnt: 1, Size: n.size, Tree: n.tree, NonTree: n.nonTree}
}

// Val returns x's own contribution. Read-only.
//
//conn:readonly
func (s *Slab) Val(x int32) Value { return own(s.nd(x)) }

// Data returns x's payload. Read-only.
//
//conn:readonly
func (s *Slab) Data(x int32) int32 { return s.nd(x).data }

// Isolated reports whether x is a single-element sequence: no parent, no
// children. O(1). Read-only.
//
//conn:readonly
func (s *Slab) Isolated(x int32) bool {
	n := s.nd(x)
	return s.par(x) == 0 && n.l == 0 && n.r == 0
}

// sub returns v - o component-wise. The mutations keep aggregates by
// difference: a node's new sum is its old one minus the part that left its
// subtree plus the part that joined, both of them sequences the mutation
// holds, so no sibling's record is read.
func sub(v, o Value) Value {
	return Value{Cnt: v.Cnt - o.Cnt, Size: v.Size - o.Size, Tree: v.Tree - o.Tree, NonTree: v.NonTree - o.NonTree}
}

//conn:readonly
func (s *Slab) cnt(t int32) int64 { return int64(s.nd(t).sum.Cnt) }

// Root returns the root of the treap containing x. Two nodes are in the same
// sequence iff they have the same root, so the root serves as the sequence
// representative (invalidated by any split or join). Read-only: safe for
// concurrent callers under the package's query contract.
//
//conn:readonly
func (s *Slab) Root(x int32) int32 {
	dir := s.dir
	for {
		p := dir[x>>chunkBits].par[x&chunkMask]
		if p == 0 {
			return x
		}
		x = p
	}
}

// Agg returns the aggregate over the whole sequence containing x. Read-only.
//
//conn:readonly
func (s *Slab) Agg(x int32) Value { return s.nd(s.Root(x)).sum }

// Len returns the number of elements in the sequence containing x.
//
//conn:readonly
func (s *Slab) Len(x int32) int64 { return s.cnt(s.Root(x)) }

// Join concatenates sequences a then b and returns the new root. Either may
// be nil. The inputs must be roots of distinct treaps.
func (s *Slab) Join(a, b int32) int32 {
	if a == 0 {
		if b != 0 {
			s.setPar(b, 0)
		}
		return b
	}
	if b == 0 {
		s.setPar(a, 0)
		return a
	}
	na, nb := s.nd(a), s.nd(b)
	if na.pri >= nb.pri {
		na.sum = na.sum.Add(nb.sum)
		nr := s.Join(na.r, b)
		na.r = nr
		s.setPar(nr, a)
		s.setPar(a, 0)
		return a
	}
	nb.sum = nb.sum.Add(na.sum)
	nl := s.Join(a, nb.l)
	nb.l = nl
	s.setPar(nl, b)
	s.setPar(b, 0)
	return b
}

// SplitAt splits the sequence rooted at t into its first k elements and the
// remainder, returning the two roots (either may be nil).
func (s *Slab) SplitAt(t int32, k int64) (int32, int32) {
	if t == 0 {
		return 0, 0
	}
	s.setPar(t, 0)
	n := s.nd(t)
	if lc := s.cnt(n.l); k > lc {
		a, b := s.SplitAt(n.r, k-lc-1)
		n.r = a
		if a != 0 {
			s.setPar(a, t)
		}
		n.sum = sub(n.sum, s.nd(b).sum)
		return t, b
	}
	a, b := s.SplitAt(n.l, k)
	n.l = b
	if b != 0 {
		s.setPar(b, t)
	}
	n.sum = sub(n.sum, s.nd(a).sum)
	return a, t
}

// Index returns the zero-based position of x within its sequence.
//
//conn:readonly
func (s *Slab) Index(x int32) int64 {
	idx := s.cnt(s.nd(x).l)
	for cur := x; ; {
		p := s.par(cur)
		if p == 0 {
			return idx
		}
		if pn := s.nd(p); pn.r == cur {
			idx += s.cnt(pn.l) + 1
		}
		cur = p
	}
}

// At returns the i-th element (zero-based) of the sequence rooted at t, or
// nil if out of range.
//
//conn:readonly
func (s *Slab) At(t int32, i int64) int32 {
	if t == 0 || i < 0 || i >= s.cnt(t) {
		return 0
	}
	for {
		n := s.nd(t)
		lc := s.cnt(n.l)
		switch {
		case i < lc:
			t = n.l
		case i == lc:
			return t
		default:
			i -= lc + 1
			t = n.r
		}
	}
}

// First returns the first element of the sequence rooted at t.
//
//conn:readonly
func (s *Slab) First(t int32) int32 {
	if t == 0 {
		return 0
	}
	for {
		l := s.nd(t).l
		if l == 0 {
			return t
		}
		t = l
	}
}

// SplitBefore splits the sequence containing x so that x begins the second
// part; returns the roots (prefix, suffix-starting-at-x).
func (s *Slab) SplitBefore(x int32) (int32, int32) {
	n := s.nd(x)
	l, sum := n.l, n.sum
	n.l = 0
	n.sum = sub(sum, s.nd(l).sum)
	return s.splitUp(x, sum, l, x)
}

// SplitAfter splits the sequence containing x so that x ends the first
// part; returns the roots (prefix-ending-at-x, suffix).
func (s *Slab) SplitAfter(x int32) (int32, int32) {
	n := s.nd(x)
	r, sum := n.r, n.sum
	n.r = 0
	n.sum = sub(sum, s.nd(r).sum)
	return s.splitUp(x, sum, x, r)
}

// splitUp finishes a split bottom-up from cur, touching only its
// ancestors: l and r are the partial left and right sequences below them,
// and curSum is cur's aggregate before the split. Each ancestor p goes to
// the left side if the walk comes from its right subtree (its left subtree
// stays with it) and to the right side otherwise, taking that side's
// partial tree as its new child in place of the subtree the walk came from.
func (s *Slab) splitUp(cur int32, curSum Value, l, r int32) (int32, int32) {
	for p := s.par(cur); p != 0; {
		pn := s.nd(p)
		pSum, pp := pn.sum, s.par(p)
		if pn.r == cur {
			pn.r = l
			if l != 0 {
				s.setPar(l, p)
			}
			pn.sum = sub(pSum, curSum).Add(s.nd(l).sum)
			l = p
		} else {
			pn.l = r
			if r != 0 {
				s.setPar(r, p)
			}
			pn.sum = sub(pSum, curSum).Add(s.nd(r).sum)
			r = p
		}
		cur, curSum, p = p, pSum, pp
	}
	if l != 0 {
		s.setPar(l, 0)
	}
	if r != 0 {
		s.setPar(r, 0)
	}
	return l, r
}

// SetVal replaces x's own contribution (v.Cnt is ignored) and repairs
// aggregates up to the root. O(depth) = O(lg n) expected.
func (s *Slab) SetVal(x int32, v Value) {
	n := s.nd(x)
	s.AddVal(x, Value{Size: v.Size - n.size, Tree: v.Tree - n.tree, NonTree: v.NonTree - n.nonTree})
}

// AddVal adds delta (component-wise; delta.Cnt is ignored) to x's own
// contribution and to the aggregate of every ancestor, which reads no
// sibling's record. O(depth) = O(lg n) expected.
func (s *Slab) AddVal(x int32, delta Value) {
	delta.Cnt = 0
	n := s.nd(x)
	n.size += delta.Size
	n.tree += delta.Tree
	n.nonTree += delta.NonTree
	for cur := x; cur != 0; cur = s.par(cur) {
		a := s.nd(cur)
		a.sum = a.sum.Add(delta)
	}
}

// Remove deletes x from its sequence and returns the root of the remaining
// sequence (nil if x was the only element). x becomes a valid singleton.
func (s *Slab) Remove(x int32) int32 {
	pre, _ := s.SplitBefore(x)
	_, suf := s.SplitAfter(x)
	return s.Join(pre, suf)
}

// Collect appends to out the in-order sequence elements x with proj(Val(x))
// > 0 until the accumulated projection reaches limit, skipping subtrees
// whose aggregate projection is zero. Returns the amount accumulated
// (possibly exceeding limit by the last element's contribution, or falling
// short if the sequence runs out). O(|out| + lg n) expected via aggregate
// pruning.
//
//conn:readonly
func (s *Slab) Collect(t int32, limit int64, proj func(Value) int64, out *[]int32) int64 {
	if t == 0 || limit <= 0 {
		return 0
	}
	n := s.nd(t)
	if proj(n.sum) == 0 {
		return 0
	}
	got := s.Collect(n.l, limit, proj, out)
	if got < limit {
		if v := proj(own(n)); v > 0 {
			*out = append(*out, t)
			got += v
		}
	}
	if got < limit {
		got += s.Collect(n.r, limit-got, proj, out)
	}
	return got
}

// Walk calls fn on every element of the sequence rooted at t, in order.
//
//conn:readonly
func (s *Slab) Walk(t int32, fn func(int32)) {
	if t == 0 {
		return
	}
	n := s.nd(t)
	s.Walk(n.l, fn)
	fn(t)
	s.Walk(n.r, fn)
}

// CheckInvariants verifies heap order, parent links and aggregates of the
// whole treap rooted at t; it is exported for tests and returns the first
// violation found, or an empty string.
//
//conn:readonly
func (s *Slab) CheckInvariants(t int32) string {
	if t == 0 {
		return ""
	}
	if s.par(t) != 0 {
		return "root has parent"
	}
	_, err := s.check(t)
	return err
}

//conn:readonly
func (s *Slab) check(x int32) (Value, string) {
	if x == 0 {
		return Value{}, ""
	}
	n := s.nd(x)
	for _, c := range [2]int32{n.l, n.r} {
		if c == 0 {
			continue
		}
		if s.par(c) != x {
			return Value{}, "bad parent link"
		}
		if s.nd(c).pri > n.pri {
			return Value{}, "heap violation"
		}
	}
	ls, err := s.check(n.l)
	if err != "" {
		return Value{}, err
	}
	rs, err := s.check(n.r)
	if err != "" {
		return Value{}, err
	}
	want := own(n).Add(ls).Add(rs)
	if want != n.sum {
		return Value{}, "aggregate mismatch"
	}
	return want, ""
}
