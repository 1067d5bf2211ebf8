package shard

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/coalesce"
	"repro/internal/graph"
)

// TestShardedMonotoneReads races insert-only writers against a reader of
// fixed pairs. With no deletes the combined graph only gains connectivity,
// so a pair the reader once saw connected must stay connected: a flip back
// means an answer matched no state the graph was ever in. Every Apply also
// asks about its own inserts, which must be visible to its own queries.
func TestShardedMonotoneReads(t *testing.T) {
	const (
		n       = 8192
		writers = 4
		batches = 300
		perOp   = 8
		pairs   = 256
	)
	c, err := New(n, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rng := rand.New(rand.NewSource(1))
	qs := make([]graph.Edge, pairs)
	for i := range qs {
		qs[i] = graph.Edge{U: int32(rng.Intn(n)), V: int32(rng.Intn(n))}
	}

	var done atomic.Bool
	var flips, reads atomic.Int64
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		seen := make([]bool, pairs)
		for !done.Load() {
			ans, err := c.ConnectedBatch(qs)
			if err != nil {
				t.Errorf("ConnectedBatch: %v", err)
				return
			}
			reads.Add(1)
			for i, ok := range ans {
				if seen[i] && !ok {
					flips.Add(1)
				}
				seen[i] = seen[i] || ok
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			ops := make([]coalesce.Op, 2*perOp)
			for b := 0; b < batches; b++ {
				for i := 0; i < perOp; i++ {
					u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
					ops[i] = coalesce.Op{Kind: coalesce.OpInsert, U: u, V: v}
					ops[perOp+i] = coalesce.Op{Kind: coalesce.OpQuery, U: u, V: v}
				}
				res, err := c.Apply(ops)
				if err != nil {
					t.Errorf("Apply: %v", err)
					return
				}
				for i := perOp; i < 2*perOp; i++ {
					if !res[i] {
						t.Errorf("writer %d: own insert {%d, %d} not visible to its own query",
							w, ops[i].U, ops[i].V)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	done.Store(true)
	<-readerDone
	if f := flips.Load(); f != 0 {
		t.Fatalf("%d connected → not connected flips over %d reads under insert-only load", f, reads.Load())
	}
}

// TestShardedIndexReuse pins when the composition index is recomposed:
// never between mutations, exactly once after an acknowledged mutating
// Apply, and never for the read-only calls a server serves read frames
// with.
func TestShardedIndexReuse(t *testing.T) {
	c, err := New(64, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ins := func(u, v int32) []coalesce.Op {
		return []coalesce.Op{{Kind: coalesce.OpInsert, U: u, V: v}}
	}
	qs := []graph.Edge{{U: 1, V: 2}, {U: 2, V: 3}, {U: 1, V: 3}}
	read := func() []bool {
		t.Helper()
		ans, err := c.ConnectedBatch(qs)
		if err != nil {
			t.Fatal(err)
		}
		return ans
	}

	if _, err := c.Apply(ins(1, 2)); err != nil {
		t.Fatal(err)
	}
	read()
	first := c.idx.Load()
	if ans := read(); !ans[0] || ans[1] {
		t.Fatalf("answers %v, want [true false false]", ans)
	}
	if c.idx.Load() != first {
		t.Fatal("a read with no mutation between recomposed the index")
	}

	// One acknowledged mutation: the next read recomposes once, and the
	// reads after it share the new index.
	if _, err := c.Apply(ins(2, 3)); err != nil {
		t.Fatal(err)
	}
	if c.idx.Load() != first {
		t.Fatal("Apply without queries composed an index")
	}
	if ans := read(); !ans[0] || !ans[1] || !ans[2] {
		t.Fatalf("answers %v after inserting {2, 3}, want all true", ans)
	}
	second := c.idx.Load()
	if second == first {
		t.Fatal("the read after an acknowledged mutation reused the stale index")
	}

	// Read-only calls: server CmdReadNow / CmdReadRecent frames on a
	// sharded namespace are ConnectedBatch calls, and a query-only Apply
	// reads the same index.
	for i := 0; i < 10; i++ {
		read()
		connected(t, c, 1, 3)
		if _, err := c.Apply([]coalesce.Op{{Kind: coalesce.OpQuery, U: 1, V: 3}}); err != nil {
			t.Fatal(err)
		}
	}
	if c.idx.Load() != second {
		t.Fatal("a read-only call recomposed the index")
	}
}
