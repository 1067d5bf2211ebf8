// Package snapshot maintains an epoch-published component labelling for the
// wait-free read tier of conn.Batcher (ReadRecent): after each committed
// epoch the dispatcher publishes, through an atomic.Pointer, an immutable
// array lbl such that lbl[u] == lbl[v] iff u and v were connected as of that
// epoch. A reader then answers a connectivity query with two array loads and
// a compare — no locks, no epoch wait, no treap walks — at the price
// of bounded staleness (the last committed epoch, not the live structure).
//
// # Labelling invariant
//
// Every published labelling satisfies lbl[u] == the minimum vertex id of
// u's component. Min-vertex labels have two properties the incremental
// repair relies on: they are unique across the partition without a
// renumbering pass, and a component that an epoch did not touch keeps its
// label — so only dirty components need rewriting.
//
// # Incremental repair
//
// An epoch's connectivity changes are confined to components containing an
// endpoint of an applied edge: a merge joins two components each holding an
// endpoint of the inserted tree edge, and after a split (or a partial
// reconnection through replacement edges) every resulting fragment contains
// an endpoint of some deleted edge — walk the severed path from any vertex
// of the fragment and the first missing edge's near endpoint lies in the
// fragment. Publish therefore dedups the epoch's touched vertices by live
// component and repairs each dirty component once, rewriting only labels
// that change.
//
// A dirty component is repaired one of two ways. While the walked total
// stays within the threshold, it is walked: every vertex is listed and its
// minimum becomes the label. A larger one — in practice the giant component
// — is verified instead, from bookkeeping Prepare recorded before the epoch
// mutated anything. Prepare unions the pre-epoch labels of the epoch's
// merging inserts into groups, picks each group's largest pre-epoch
// component as its anchor, and lists the vertices of every other member.
// Inserts run before deletes, so a post-epoch component lies inside one
// group's pre-epoch components, and each of its vertices is at least its
// pre-epoch label. If the anchor's label a is the group's smallest and a
// still lies in the component, a is therefore the component's minimum: the
// anchor's own vertices already carry it, and only the listed vertices that
// ended up in the component are rewritten. A vertex that left the anchor
// sits in a fragment holding a touched endpoint, which is repaired on its
// own. Verification costs the small sides of the epoch's merges, never the
// giant. When it fails — the anchor's minimum split off, a smaller label
// joined, or one group left two components too large to walk — or when
// Publish ran without a Prepare, the epoch falls back to one full
// relabelling, counted in Stats.Rebuilds. Either way labels stay canonical
// and Diff.Changed exact. Each publish allocates a fresh array: readers may
// hold a Labels for arbitrarily long, so buffers are never recycled.
package snapshot

import "sync/atomic"

// Labels is one immutable published labelling. All methods are wait-free
// reads; a Labels never changes after publication.
//
//conn:published
//conn:readonly-queries
type Labels struct {
	lbl   []int32
	epoch uint64
}

// Connected reports whether u and v were in the same component as of the
// publishing epoch: two array loads and a compare.
//
//conn:readonly
func (l *Labels) Connected(u, v int32) bool { return l.lbl[u] == l.lbl[v] }

// Label returns u's component label — the minimum vertex id of u's component
// as of the publishing epoch.
//
//conn:readonly
func (l *Labels) Label(u int32) int32 { return l.lbl[u] }

// Epoch returns the publish counter: 0 for the initial labelling, +1 per
// Publish that changed anything. Monotone; lets callers bound staleness.
func (l *Labels) Epoch() uint64 { return l.epoch }

// Len returns the vertex count.
func (l *Labels) Len() int { return len(l.lbl) }

// CopyTo copies the labelling into dst (length Len); copying keeps the
// published array unaliased.
//
//conn:readonly
func (l *Labels) CopyTo(dst []int32) { copy(dst, l.lbl) }

// NewLabels wraps a caller-built labelling as an immutable Labels, so a
// caller can build a Diff by hand (the event tests derive their expected
// streams this way). Ownership of lbl transfers: the caller must never
// write to it again.
func NewLabels(lbl []int32, epoch uint64) *Labels { return &Labels{lbl: lbl, epoch: epoch} }

// Diff describes one published transition: the labelling that was current
// before, the one published in its place, and the vertices whose label
// changed (each exactly once, ascending within the rebuild path,
// unspecified order otherwise). Because labels are canonical min-vertex
// ids, Changed is non-empty exactly when the epoch changed the partition —
// this is the partition-changing-epoch detection the connectivity event
// hub (internal/pubsub) is fed from. Both Labels are immutable; a Diff may
// be retained and read from any goroutine.
type Diff struct {
	Prev, Cur *Labels
	Changed   []int32
}

// Source is the read-only view of the live structure the publisher walks.
// All methods must be safe for the publisher to call while concurrent
// readers run Labels methods (they are: conn.Graph's implementations are
// pure reads under the core read-only query contract, and Publish is called
// only from the single dispatcher goroutine with no writer in flight).
type Source interface {
	// ComponentID returns a component identifier: equal iff connected,
	// unique per component.
	ComponentID(u int32) uint64
	// ComponentSize returns the vertex count of u's component.
	ComponentSize(u int32) int64
	// ComponentVertices returns every vertex of u's component.
	ComponentVertices(u int32) []int32
	// ComponentLabels fills dst with the full min-vertex labelling.
	ComponentLabels(dst []int32)
}

// Store owns the published labelling. Current is safe from any goroutine;
// Prepare and Publish must be called from a single goroutine (the
// dispatcher) with no structure mutation in flight.
type Store struct {
	n         int
	threshold int64
	src       Source
	cur       atomic.Pointer[Labels]
	publishes atomic.Int64
	rebuilds  atomic.Int64

	// Set by Prepare, consumed by the next Publish. groups maps the
	// pre-epoch label of every member of a merge group to its group.
	prepared bool
	groups   map[int32]*group
}

// group is one set of pre-epoch components that the epoch's merging inserts
// may have joined.
type group struct {
	anchor int32   // pre-epoch label of the group's largest component
	ok     bool    // anchor is also the group's smallest label
	moved  []int32 // vertices of every other member; recorded only if ok
}

// Stats counts publisher activity.
type Stats struct {
	Publishes int64 // epochs that changed connectivity and published
	Rebuilds  int64 // publishes that fell back to a full relabelling
}

// NewStore computes the initial labelling from src and returns a store.
// threshold bounds the walked repair: dirty components are walked while
// their total size stays within threshold, and any further one is verified
// against Prepare's bookkeeping instead (see the package doc). threshold
// <= 0 selects max(1024, n/4).
func NewStore(n, threshold int, src Source) *Store {
	if threshold <= 0 {
		threshold = n / 4
		if threshold < 1024 {
			threshold = 1024
		}
	}
	s := &Store{n: n, threshold: int64(threshold), src: src}
	lbl := make([]int32, n)
	src.ComponentLabels(lbl)
	s.publish(&Labels{lbl: lbl})
	return s
}

// Current returns the most recently published labelling. Wait-free; safe
// from any goroutine.
//
//conn:readonly
func (s *Store) Current() *Labels { return s.cur.Load() }

// publish is the single designated store site for the labelling pointer —
// the one place a *Labels may cross from the dispatcher to readers. l and
// everything reachable from it must already be immutable: the atomic store
// is the publication fence, so a later write to l.lbl would race with every
// reader. Enforced by the atomicpublish analyzer.
//
//conn:publish-helper
func (s *Store) publish(l *Labels) { s.cur.Store(l) }

// Stats returns publisher counters.
func (s *Store) Stats() Stats {
	return Stats{Publishes: s.publishes.Load(), Rebuilds: s.rebuilds.Load()}
}

// Prepare records, before an epoch mutates the structure, what the next
// Publish needs to verify a large dirty component instead of walking it.
// merges lists the endpoints of the epoch's merging inserts as consecutive
// pairs (u0, v0, u1, v1, ...): the inserts whose endpoints the current
// labelling puts in different components. A superset is fine; an empty
// list is a valid preparation for an epoch that only deletes. Cost: one
// size lookup per member component, plus the vertices of every member but
// each group's largest. Dispatcher-only.
//
//conn:dispatcher-only
func (s *Store) Prepare(merges []int32) {
	s.prepared, s.groups = true, nil
	if len(merges) == 0 {
		return
	}
	cur := s.cur.Load()
	parent := make(map[int32]int32, len(merges))
	var labels []int32 // distinct member labels, first-seen order
	find := func(x int32) int32 {
		if _, ok := parent[x]; !ok {
			parent[x] = x
			labels = append(labels, x)
		}
		r := x
		for parent[r] != r {
			r = parent[r]
		}
		for parent[x] != r {
			parent[x], x = r, parent[x]
		}
		return r
	}
	for i := 0; i+1 < len(merges); i += 2 {
		a, b := find(cur.lbl[merges[i]]), find(cur.lbl[merges[i+1]])
		if a != b {
			parent[a] = b
		}
	}

	type member struct {
		label int32
		size  int64
	}
	byRoot := make(map[int32][]member)
	for _, x := range labels {
		r := find(x)
		byRoot[r] = append(byRoot[r], member{x, s.src.ComponentSize(x)})
	}
	s.groups = make(map[int32]*group, len(labels))
	for _, ms := range byRoot {
		big, least := ms[0], ms[0].label
		for _, m := range ms[1:] {
			if m.size > big.size || m.size == big.size && m.label < big.label {
				big = m
			}
			if m.label < least {
				least = m.label
			}
		}
		g := &group{anchor: big.label, ok: big.label == least}
		if g.ok {
			for _, m := range ms {
				if m.label != big.label {
					g.moved = append(g.moved, s.src.ComponentVertices(m.label)...)
				}
			}
		}
		for _, m := range ms {
			s.groups[m.label] = g
		}
	}
}

// patch rewrites the labels of vs to m.
type patch struct {
	vs []int32
	m  int32
}

// Publish incorporates one committed epoch: touched lists the endpoints of
// the epoch's applied insertions and deletions (a superset is fine; an empty
// list means connectivity is unchanged and the current labelling stands).
// A new snapshot is published only when some label actually changes —
// updates that leave the partition intact (an edge inside a component, a
// deleted non-bridge) cost the dirty-component repairs but allocate nothing
// and do not advance the epoch counter. Returns the transition when a
// snapshot was published, nil when the labelling stood: exactly the
// partition-changing epochs, which the engine tees to connectivity-event
// subscribers. Consumes the bookkeeping of the preceding Prepare; without
// one, a dirty set larger than the threshold is always a full relabelling.
// Dispatcher-only.
//
//conn:dispatcher-only
func (s *Store) Publish(touched []int32) *Diff {
	prepared, groups := s.prepared, s.groups
	s.prepared, s.groups = false, nil
	if len(touched) == 0 {
		return nil
	}
	prev := s.cur.Load()
	// Dirty components, deduped by live component id. Walk them while the
	// walked total fits the threshold; verify the rest.
	seen := make(map[uint64]struct{}, len(touched))
	var walk, verify []int32
	var walked int64
	for _, t := range touched {
		id := s.src.ComponentID(t)
		if _, ok := seen[id]; ok {
			continue
		}
		seen[id] = struct{}{}
		if size := s.src.ComponentSize(t); walked+size <= s.threshold {
			walked += size
			walk = append(walk, t)
			continue
		}
		if !prepared {
			return s.rebuild(prev)
		}
		verify = append(verify, t)
	}

	// Verify first: a failure costs no wasted walks. Then walk each small
	// dirty component once, keeping only the components whose labels
	// actually differ; allocate a snapshot only if any do.
	var patches []patch
	for _, t := range verify {
		p, ok := s.verify(prev, groups, t)
		if !ok {
			return s.rebuild(prev)
		}
		if len(p.vs) > 0 {
			patches = append(patches, p)
		}
	}
	for _, w := range walk {
		vs := s.src.ComponentVertices(w)
		m := vs[0]
		for _, v := range vs {
			if v < m {
				m = v
			}
		}
		for _, v := range vs {
			if prev.lbl[v] != m {
				patches = append(patches, patch{vs: vs, m: m})
				break
			}
		}
	}
	if len(patches) == 0 {
		return nil
	}
	lbl := make([]int32, s.n)
	copy(lbl, prev.lbl)
	var changed []int32
	for _, p := range patches {
		for _, v := range p.vs {
			if lbl[v] != p.m {
				changed = append(changed, v)
				lbl[v] = p.m
			}
		}
	}
	s.publishes.Add(1)
	cur := &Labels{lbl: lbl, epoch: prev.epoch + 1}
	s.publish(cur)
	return &Diff{Prev: prev, Cur: cur, Changed: changed}
}

// verify repairs the live component of t without walking it. t's pre-epoch
// label selects its merge group, or a group of its own when no merge
// reached it. The component's minimum is the group's anchor label a
// exactly when a is the group's smallest label and still lies in the
// component; then the group's recorded vertices that ended up in the
// component are the only labels to rewrite. ok is false when that cannot
// be shown, and the caller relabels from scratch.
func (s *Store) verify(prev *Labels, groups map[int32]*group, t int32) (p patch, ok bool) {
	a := prev.lbl[t]
	var moved []int32
	if g := groups[a]; g != nil {
		if !g.ok {
			return patch{}, false
		}
		a, moved = g.anchor, g.moved
	}
	id := s.src.ComponentID(t)
	if s.src.ComponentID(a) != id {
		return patch{}, false
	}
	p.m = a
	for _, v := range moved {
		if s.src.ComponentID(v) == id {
			p.vs = append(p.vs, v)
		}
	}
	return p, true
}

// rebuild is the fallback: one full relabelling, diffed against prev.
func (s *Store) rebuild(prev *Labels) *Diff {
	lbl := make([]int32, s.n)
	s.src.ComponentLabels(lbl)
	var changed []int32
	for i := range lbl {
		if lbl[i] != prev.lbl[i] {
			changed = append(changed, int32(i))
		}
	}
	if len(changed) == 0 {
		return nil // full relabelling reproduced the published labels
	}
	s.rebuilds.Add(1)
	s.publishes.Add(1)
	cur := &Labels{lbl: lbl, epoch: prev.epoch + 1}
	s.publish(cur)
	return &Diff{Prev: prev, Cur: cur, Changed: changed}
}
