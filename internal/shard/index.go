// The composition index: two-level connectivity over partitioned engines.
//
// Within one shard, connectivity is the shard engine's own answer. Across
// shards, a path alternates shard-local segments with cross-shard (boundary)
// edges, so global connectivity is the transitive closure of a small
// bipartite contraction: one node per shard-local component that contains a
// boundary vertex, one node per boundary-graph component, an arc wherever a
// boundary vertex sits in both. The index materializes that closure as a
// union-find over (owner, component-id) keys, built from the boundary
// engine's live edge set — O(boundary vertices) work, independent of n and
// of the intra-shard edge counts.
//
// Invariant the build relies on: every vertex of a cross-shard edge appears
// in the boundary engine's spanning structure, and component ids are stable
// between the sampling reads of one build (reads are serialized against
// each engine's mutating phase; a mutation acknowledged mid-build bumps the
// coordinator version, so the possibly-torn index is discarded on the next
// lookup rather than trusted).

package shard

import (
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/unionfind"
)

// ckey identifies one contracted component: owner is a shard index in
// [0, k) for shard-local components or k for boundary-graph components,
// and cid is that engine's ComponentID for the component.
type ckey struct {
	owner int32
	cid   uint64
}

// compIndex is an immutable composition snapshot: class maps every
// contracted component that touches a boundary vertex to its global
// equivalence class. Built once, then published through an atomic pointer
// and shared by any number of readers — never mutated after publication.
//
//conn:published
type compIndex struct {
	// version is the coordinator mutation count the index was built at;
	// a lookup under a newer version discards and rebuilds.
	version uint64
	class   map[ckey]int32
}

// connected composes two endpoints' shard-component keys: connected across
// the boundary iff both components are linked to the boundary graph and
// share an equivalence class. A key absent from the index belongs to a
// component with no boundary vertex, which cannot reach any other shard.
func (x *compIndex) connected(a, b ckey) bool {
	ca, ok := x.class[a]
	if !ok {
		return false
	}
	cb, ok := x.class[b]
	if !ok {
		return false
	}
	return ca == cb
}

// index returns a composition snapshot no older than the last acknowledged
// mutation, rebuilding under buildMu if the cached one is stale.
func (c *Coordinator) index() (*compIndex, error) {
	v := c.version.Load()
	if idx := c.idx.Load(); idx != nil && idx.version == v {
		return idx, nil
	}
	c.buildMu.Lock()
	defer c.buildMu.Unlock()
	// Re-sample under the lock: a concurrent builder may have published a
	// fresh-enough index while we waited. The version is read BEFORE the
	// engine state — a mutation landing mid-build advances the counter
	// past v and invalidates this build on the next lookup, never leaving
	// a too-new version stamped on too-old state.
	v = c.version.Load()
	if idx := c.idx.Load(); idx != nil && idx.version == v {
		return idx, nil
	}
	idx, err := c.buildIndex(v)
	if err != nil {
		return nil, err
	}
	c.publishIndex(idx)
	return idx, nil
}

// publishIndex is the designated store point for the composition snapshot.
//
//conn:publish-helper
func (c *Coordinator) publishIndex(idx *compIndex) { c.idx.Store(idx) }

// buildIndex contracts the current boundary graph against the shard-local
// component structure. Every read is an engine Read walk, excluded only by
// that engine's mutating phase.
func (c *Coordinator) buildIndex(version uint64) (*compIndex, error) {
	// 1. The boundary vertex set: endpoints of every live cross-shard edge.
	var verts []int32
	bcid := make(map[int32]uint64)
	if err := c.engines[c.k].Read(func(cc *core.Conn) {
		edges := cc.SpanningForest()
		edges = append(edges, cc.NonTreeEdges()...)
		for _, e := range edges {
			for _, x := range [2]int32{e.U, e.V} {
				if _, ok := bcid[x]; !ok {
					bcid[x] = cc.ComponentID(x)
					verts = append(verts, x)
				}
			}
		}
	}); err != nil {
		return nil, ErrClosed
	}
	// 2. Each boundary vertex's shard-local component id, sampled per shard.
	perShard := make([][]int32, c.k)
	for _, x := range verts {
		s := Partition(x, c.k)
		perShard[s] = append(perShard[s], x)
	}
	scid := make(map[int32]uint64, len(verts))
	for s, vs := range perShard {
		if len(vs) == 0 {
			continue
		}
		if err := c.engines[s].Read(func(cc *core.Conn) {
			for _, x := range vs {
				scid[x] = cc.ComponentID(x)
			}
		}); err != nil {
			return nil, ErrClosed
		}
	}
	// 3. Contract: union each boundary vertex's shard component with its
	// boundary component, then freeze the equivalence classes.
	ids := make(map[ckey]int32, 2*len(verts))
	id := func(k ckey) int32 {
		if v, ok := ids[k]; ok {
			return v
		}
		v := int32(len(ids))
		ids[k] = v
		return v
	}
	uf := unionfind.New(2 * len(verts))
	for _, x := range verts {
		sk := ckey{owner: int32(Partition(x, c.k)), cid: scid[x]}
		bk := ckey{owner: int32(c.k), cid: bcid[x]}
		uf.Union(id(sk), id(bk))
	}
	class := make(map[ckey]int32, len(ids))
	for k, i := range ids {
		class[k] = uf.Find(i)
	}
	return &compIndex{version: version, class: class}, nil
}

// ConnectedBatch answers k connectivity queries against the combined graph:
// the same-shard fast path asks the owning engine directly (one
// committed-tier batch per shard), and anything unresolved — cross-shard
// pairs, plus same-shard pairs connected only through other shards —
// composes shard-local component ids with the boundary union-find.
func (c *Coordinator) ConnectedBatch(qs []graph.Edge) ([]bool, error) {
	if c.closed.Load() {
		return nil, ErrClosed
	}
	for _, q := range qs {
		if err := c.checkRange(q.U, q.V); err != nil {
			return nil, err
		}
	}
	idx, err := c.index()
	if err != nil {
		return nil, err
	}
	out := make([]bool, len(qs))
	per := make([][]graph.Edge, c.k)
	perIdx := make([][]int, c.k)
	var rest []int
	for i, q := range qs {
		if q.U == q.V {
			out[i] = true
			continue
		}
		if su, sv := Partition(q.U, c.k), Partition(q.V, c.k); su == sv {
			per[su] = append(per[su], q)
			perIdx[su] = append(perIdx[su], i)
		} else {
			rest = append(rest, i)
		}
	}
	for s := 0; s < c.k; s++ {
		if len(per[s]) == 0 {
			continue
		}
		bits, err := c.engines[s].ReadNowBatch(per[s])
		if err != nil {
			return nil, ErrClosed
		}
		for j, ok := range bits {
			if ok {
				out[perIdx[s][j]] = true
			} else {
				// Not connected within the shard — may still be connected
				// through the boundary graph.
				rest = append(rest, perIdx[s][j])
			}
		}
	}
	if len(rest) == 0 {
		return out, nil
	}
	// Sample the unresolved endpoints' shard-local component ids, batched
	// per shard so each engine is read once.
	need := make([][]int32, c.k)
	seen := make(map[int32]struct{}, 2*len(rest))
	for _, i := range rest {
		for _, x := range [2]int32{qs[i].U, qs[i].V} {
			if _, ok := seen[x]; !ok {
				seen[x] = struct{}{}
				s := Partition(x, c.k)
				need[s] = append(need[s], x)
			}
		}
	}
	cid := make(map[int32]uint64, len(seen))
	for s, vs := range need {
		if len(vs) == 0 {
			continue
		}
		if err := c.engines[s].Read(func(cc *core.Conn) {
			for _, x := range vs {
				cid[x] = cc.ComponentID(x)
			}
		}); err != nil {
			return nil, ErrClosed
		}
	}
	for _, i := range rest {
		u, v := qs[i].U, qs[i].V
		ku := ckey{owner: int32(Partition(u, c.k)), cid: cid[u]}
		kv := ckey{owner: int32(Partition(v, c.k)), cid: cid[v]}
		out[i] = idx.connected(ku, kv)
	}
	return out, nil
}
