// Package graph holds the shared vertex/edge types used across every
// subsystem: canonical undirected edges, packed 64-bit edge keys (for hashing
// into dictionaries and semisorts), and small helpers for edge batches.
package graph

import "math/bits"

// Vertex is a vertex identifier in [0, n).
type Vertex = int32

// Edge is an undirected edge. Callers may construct it in either orientation;
// Canon gives the canonical (min, max) form used as identity.
type Edge struct {
	U, V Vertex
}

// Canon returns the edge with endpoints ordered (smaller first).
func (e Edge) Canon() Edge {
	if e.U > e.V {
		return Edge{e.V, e.U}
	}
	return e
}

// Key packs the canonical edge into a uint64 suitable for dictionaries.
func (e Edge) Key() uint64 {
	c := e.Canon()
	return uint64(uint32(c.U))<<32 | uint64(uint32(c.V))
}

// KeyDirected packs the edge as-is, preserving orientation.
func (e Edge) KeyDirected() uint64 {
	return uint64(uint32(e.U))<<32 | uint64(uint32(e.V))
}

// FromKey unpacks a canonical edge key.
func FromKey(k uint64) Edge {
	return Edge{Vertex(uint32(k >> 32)), Vertex(uint32(k))}
}

// Other returns the endpoint of e that is not x.
//
//conn:readonly
func (e Edge) Other(x Vertex) Vertex {
	if e.U == x {
		return e.V
	}
	return e.U
}

// IsLoop reports whether the edge is a self-loop.
func (e Edge) IsLoop() bool { return e.U == e.V }

// Dedup returns the batch with duplicate (canonical) edges and self-loops
// removed, preserving first-occurrence order. O(k) expected time.
func Dedup(es []Edge) []Edge {
	if len(es) <= 16 {
		out := es[:0:0]
		for _, e := range es {
			if e.IsLoop() {
				continue
			}
			c := e.Canon()
			dup := false
			for _, o := range out {
				if o == c {
					dup = true
					break
				}
			}
			if !dup {
				out = append(out, c)
			}
		}
		return out
	}
	seen := make(map[uint64]struct{}, len(es))
	out := es[:0:0]
	for _, e := range es {
		if e.IsLoop() {
			continue
		}
		k := e.Key()
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, e.Canon())
	}
	return out
}

// Levels returns L, the number of levels of an n-vertex HDT hierarchy:
// ceil(lg2 n), at least 1.
func Levels(n int) int {
	if n <= 2 {
		return 1
	}
	return bits.Len(uint(n - 1))
}
