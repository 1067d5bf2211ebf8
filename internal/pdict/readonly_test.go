package pdict

import (
	"sync"
	"testing"
)

// TestConcurrentReadOnlyQueries enforces the package's read-only query
// contract under -race: with no batch mutation in flight, any number of
// goroutines may run BatchLookup, Get, Contains, Len and Keys concurrently
// on the same dictionary — each of those is itself internally parallel, so
// this also exercises nested fork-join readers. The core relies on this
// during Batcher epochs: HasEdge/EdgeInfo pre-scans and checkpoint edge
// enumeration probe the dictionary while engine Read walks (structural
// queries, shard edge sampling) traverse the structure. A write anywhere
// in the lookup path (tombstone compaction, slot repair, cached hashes)
// would be flagged by the race detector.
func TestConcurrentReadOnlyQueries(t *testing.T) {
	const present = 4096
	d := New(present)
	keys := make([]uint64, present)
	vals := make([]uint64, present)
	for i := range keys {
		keys[i] = uint64(i)*2654435761 + 1
		vals[i] = uint64(i)
	}
	d.BatchInsert(keys, vals)
	// Mix in absent probes, including keys adjacent to present hashes.
	probes := make([]uint64, 0, 2*present)
	wantOK := make([]bool, 0, 2*present)
	for i := range keys {
		probes = append(probes, keys[i], keys[i]+1)
		wantOK = append(wantOK, true, false)
	}

	const goroutines = 6
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			vs, ok := d.BatchLookup(probes)
			for i := range probes {
				if ok[i] != wantOK[i] {
					t.Errorf("BatchLookup(%#x) present=%v, want %v", probes[i], ok[i], wantOK[i])
					return
				}
				if ok[i] && vs[i] != uint64(i/2) {
					t.Errorf("BatchLookup(%#x) = %d, want %d", probes[i], vs[i], i/2)
					return
				}
			}
			for i := g; i < present; i += goroutines {
				if v, ok := d.Get(keys[i]); !ok || v != vals[i] {
					t.Errorf("Get(%#x) = %d,%v", keys[i], v, ok)
					return
				}
				if d.Contains(keys[i] + 1) {
					t.Errorf("Contains(%#x) = true for absent key", keys[i]+1)
					return
				}
			}
			if got := d.Len(); got != present {
				t.Errorf("Len = %d, want %d", got, present)
			}
			if got := len(d.Keys()); got != present {
				t.Errorf("Keys len = %d, want %d", got, present)
			}
		}(g)
	}
	wg.Wait()
}
