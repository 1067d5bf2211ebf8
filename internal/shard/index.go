// The composition index: connectivity over partitioned engines, answered
// from one composed labelling.
//
// Every engine publishes an exact min-vertex labelling of its own edge set
// before it acknowledges an epoch. A path in the combined graph alternates
// shard-local segments with cross-shard (boundary) edges, so the combined
// graph's components are the transitive closure of the k+1 engines'
// labellings: composeLabels contracts them into one global min-vertex
// labelling, and a pair is connected iff both endpoints carry the same
// global label. The index is that labelling, composed once per coordinator
// version and shared by every reader until the next acknowledged mutation.
//
// One index is one snapshot: every answer it gives comes from the same k+1
// published labellings, so no answer mixes two states. Under insert-only
// load every engine's labelling only coarsens, each rebuild composes no
// earlier labellings than the one before it, and so a pair once answered
// connected stays connected.

package shard

import (
	"repro/internal/graph"
	"repro/internal/snapshot"
)

// compIndex is an immutable composition snapshot: lbl is the combined
// graph's min-vertex labelling. Built once, then published through an
// atomic pointer and shared by any number of readers — never mutated after
// publication.
//
//conn:published
type compIndex struct {
	// version is the coordinator mutation count the index was composed at;
	// a lookup under a newer version discards it and composes again.
	version uint64
	lbl     []int32
}

// index returns a composition snapshot no older than the last acknowledged
// mutation, composing a new one under buildMu if the cached one is stale.
func (c *Coordinator) index() *compIndex {
	v := c.version.Load()
	if idx := c.idx.Load(); idx != nil && idx.version == v {
		return idx
	}
	c.buildMu.Lock()
	defer c.buildMu.Unlock()
	// Re-sample under the lock: a concurrent builder may have published a
	// fresh-enough index while we waited. The version is read BEFORE the
	// engines' labellings — a mutation acknowledged mid-compose advances
	// the counter past v and forces a new compose on the next lookup,
	// never leaving a too-new version stamped on too-old state.
	v = c.version.Load()
	if idx := c.idx.Load(); idx != nil && idx.version == v {
		return idx
	}
	idx := &compIndex{version: v, lbl: c.composeLabels()}
	c.publishIndex(idx)
	return idx
}

// publishIndex is the designated store point for the composition snapshot.
//
//conn:publish-helper
func (c *Coordinator) publishIndex(idx *compIndex) { c.idx.Store(idx) }

// ConnectedBatch answers k connectivity queries against the combined graph,
// all from one composition snapshot: two array loads per pair.
func (c *Coordinator) ConnectedBatch(qs []graph.Edge) ([]bool, error) {
	if c.closed.Load() {
		return nil, ErrClosed
	}
	for _, q := range qs {
		if err := c.checkRange(q.U, q.V); err != nil {
			return nil, err
		}
	}
	lbl := c.index().lbl
	out := make([]bool, len(qs))
	for i, q := range qs {
		out[i] = lbl[q.U] == lbl[q.V]
	}
	return out, nil
}

// composeLabels gathers every engine's published labelling and contracts
// them into one global min-vertex labelling: union(v, lbl_i[v]) for every
// engine i and vertex v, with union-by-minimum so each class's root IS its
// minimum vertex. O((k+1)·n·α), one n-entry allocation.
func (c *Coordinator) composeLabels() []int32 {
	n := c.n
	parent := make([]int32, n)
	for v := range parent {
		parent[v] = int32(v)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	for _, e := range c.engines {
		// Naming the type imports snapshot, and only then does go1.24
		// inline Label here; called, it made this loop about 30 % slower.
		var l *snapshot.Labels = e.Recent()
		for v := int32(0); v < int32(n); v++ {
			lv := l.Label(v)
			if lv == v {
				continue
			}
			ra, rb := find(v), find(lv)
			if ra < rb {
				parent[rb] = ra
			} else if rb < ra {
				parent[ra] = rb
			}
		}
	}
	// Flatten in place: ascending v sees every smaller vertex already
	// pointing at its root, so one step reaches it.
	for v := range parent {
		parent[v] = parent[parent[v]]
	}
	return parent
}
