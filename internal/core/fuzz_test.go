package core

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/unionfind"
)

// FuzzCoreOps decodes bytes into insert, delete and query batches over at
// most 64 vertices and runs the same script under both search algorithms.
// After every batch it compares the returned counts, NumEdges and every
// vertex pair's connectivity with a union-find oracle, and runs
// CheckInvariants, whose per-tour treap check catches a stale component
// counter the level searches would trust.
//
// Encoding: data[0] picks n = 2 + data[0]%63. Each batch is a header byte
// h, kind h&3 (0 insert, 1 delete, 2 and 3 query) and size 1 + (h>>2)&15,
// followed by that many byte pairs (a, b). An insert or query entry is the
// edge (a%n, b%n). A delete entry names the live edge at index (a<<8|b)
// modulo the live count, in insertion order, or (a%n, b%n) when no edge is
// live.
func FuzzCoreOps(f *testing.F) {
	f.Add([]byte{4, 0x14, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 0, 0x05, 0, 0, 0, 3, 0x0a, 0, 1, 0, 4, 2, 5})
	f.Add([]byte{12, 0x3c, 0, 1, 1, 2, 2, 0, 3, 4, 4, 5, 5, 3, 6, 7, 7, 8, 8, 6, 2, 5, 9, 10, 10, 11, 11, 9,
		12, 13, 13, 0, 5, 8, 0x0d, 0, 9, 0, 3, 0, 12, 0, 1, 0x00, 3, 12, 0x05, 0, 0, 0, 5,
		0x0e, 0, 13, 1, 9, 4, 7, 6, 12})
	f.Add([]byte{62, 0x3c, 1, 2, 1, 3, 1, 4, 1, 5, 1, 6, 1, 7, 1, 8, 1, 9, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8,
		8, 9, 9, 2, 0x3d, 0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 8, 0, 9, 0, 10, 0, 11, 0, 12,
		0, 13, 0, 14, 0, 15, 0x1e, 1, 9, 2, 8, 3, 7, 4, 6, 5, 5, 1, 2, 40, 41, 2, 9})
	// TestMeetingPiecesIsolatedEndpoint: the path 0–1–2–3–4 and the chord
	// 0–4, then one batch deleting 1–2 and 2–3, which isolates vertex 2.
	f.Add([]byte{3, 0x0c, 0, 1, 1, 2, 2, 3, 3, 4, 0x00, 0, 4, 0x05, 0, 1, 0, 2, 0x02, 1, 3})
	// TestSmallerOfTwoPieces (a): at n = 16, the paths 0–1–2 and 3–…–7
	// joined by 2–3, the chords 0–2, 3–7 and 0–7, then deleting 2–3.
	f.Add([]byte{14, 0x18, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 0x08, 0, 2, 3, 7, 0, 7, 0x01, 0, 2, 0x02, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, alg := range []Algorithm{SearchSimple, SearchInterleaved} {
			runCoreOps(t, alg, data)
		}
	})
}

func runCoreOps(t *testing.T, alg Algorithm, data []byte) {
	if len(data) == 0 {
		return
	}
	n := 2 + int(data[0])%63
	data = data[1:]
	c := New(n, WithAlgorithm(alg))
	var order []graph.Edge // live edges in insertion order
	live := map[uint64]bool{}
	for bi := 0; len(data) > 0; bi++ {
		h := data[0]
		data = data[1:]
		es := make([]graph.Edge, min(1+int(h>>2)&15, len(data)/2))
		for k := range es {
			a, b := int(data[2*k]), int(data[2*k+1])
			es[k] = graph.Edge{U: graph.Vertex(a % n), V: graph.Vertex(b % n)}
			if h&3 == 1 && len(order) > 0 {
				es[k] = order[(a<<8|b)%len(order)]
			}
		}
		data = data[2*len(es):]
		switch h & 3 {
		case 0:
			want := 0
			for _, e := range es {
				if e.U != e.V && !live[e.Key()] {
					live[e.Key()] = true
					order = append(order, e.Canon())
					want++
				}
			}
			if got := c.BatchInsert(es); got != want {
				t.Fatalf("alg %d batch %d: BatchInsert = %d, want %d", alg, bi, got, want)
			}
		case 1:
			want := 0
			for _, e := range es {
				if live[e.Key()] {
					delete(live, e.Key())
					want++
				}
			}
			kept := order[:0]
			for _, e := range order {
				if live[e.Key()] {
					kept = append(kept, e)
				}
			}
			order = kept
			if got := c.BatchDelete(es); got != want {
				t.Fatalf("alg %d batch %d: BatchDelete = %d, want %d", alg, bi, got, want)
			}
		}
		uf := unionfind.New(n)
		for _, e := range order {
			uf.Union(e.U, e.V)
		}
		if h&3 >= 2 {
			got := c.BatchConnected(es)
			for k, q := range es {
				if want := uf.Connected(q.U, q.V); got[k] != want {
					t.Fatalf("alg %d batch %d: BatchConnected%v = %v, want %v", alg, bi, q, got[k], want)
				}
			}
		}
		if c.NumEdges() != len(order) {
			t.Fatalf("alg %d batch %d: NumEdges = %d, want %d", alg, bi, c.NumEdges(), len(order))
		}
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if got, want := c.Connected(graph.Vertex(u), graph.Vertex(v)), uf.Connected(int32(u), int32(v)); got != want {
					t.Fatalf("alg %d batch %d: Connected(%d,%d) = %v, want %v", alg, bi, u, v, got, want)
				}
			}
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("alg %d batch %d: %v", alg, bi, err)
		}
	}
}
