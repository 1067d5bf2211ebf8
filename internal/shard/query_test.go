package shard

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/coalesce"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/query"
)

// checkPath fails unless p is a walk from u to v over edges in has.
func checkPath(t *testing.T, p []int32, u, v int32, has func(a, b int32) bool) {
	t.Helper()
	if len(p) == 0 || p[0] != u || p[len(p)-1] != v {
		t.Errorf("path %v does not run from %d to %d", p, u, v)
		return
	}
	for i := 1; i < len(p); i++ {
		if !has(p[i-1], p[i]) {
			t.Errorf("path %d→%d step {%d,%d} is not an edge", u, v, p[i-1], p[i])
			return
		}
	}
}

// TestShardedTraversals: k-hop and path queries over the sharded
// composition. The differential half runs them on a Coordinator and on a
// plain engine holding the same random edge set: k-hop sets are equal,
// and a path is found exactly when its endpoints are connected and runs
// over edges of the set. The concurrent half races traversers against
// insert-only writers: every path step is an inserted edge, and the whole
// run finishes within a deadline (each traversal holds every engine's
// dispatcher at once, in a fixed order, so a waiting cycle would hang it).
func TestShardedTraversals(t *testing.T) {
	const n = 64
	for _, k := range []int{2, 4} {
		rng := rand.New(rand.NewSource(int64(k)))
		var ops []coalesce.Op
		o := newOracle(n)
		for i := 0; i < 70; i++ {
			ops = append(ops, coalesce.Op{Kind: coalesce.OpInsert, U: int32(rng.Intn(n)), V: int32(rng.Intn(n))})
		}
		o.apply(ops)
		has := func(a, b int32) bool { return o.edges[(graph.Edge{U: a, V: b}).Key()] }
		uf := o.uf()

		c, err := New(n, k, Options{})
		if err != nil {
			t.Fatal(err)
		}
		plain, err := engine.New(core.New(n), engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Apply(ops); err != nil {
			t.Fatal(err)
		}
		if _, _, err := plain.Apply(ops); err != nil {
			t.Fatal(err)
		}
		for u := int32(0); u < n; u++ {
			for hops := uint32(0); hops <= 3; hops++ {
				req := query.Request{Kind: query.KindKHop, U: u, K: hops}
				got, err := c.Query(req)
				if err != nil {
					t.Fatal(err)
				}
				want, err := query.Run(plain, req)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Verts, want.Verts) {
					t.Fatalf("k=%d KHop(%d, %d) = %v, plain engine says %v", k, u, hops, got.Verts, want.Verts)
				}
			}
			v := int32(rng.Intn(n))
			got, err := c.Query(query.Request{Kind: query.KindPath, U: u, V: v})
			if err != nil {
				t.Fatal(err)
			}
			if got.Found != uf.Connected(u, v) {
				t.Fatalf("k=%d Path(%d, %d).Found = %v, want %v", k, u, v, got.Found, !got.Found)
			}
			if got.Found {
				checkPath(t, got.Verts, u, v, has)
			}
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if err := plain.Close(); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("concurrent", func(t *testing.T) {
		const n, writers, traversers, perWriter = 128, 3, 4, 150
		c, err := New(n, 2, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		var staged sync.Map // edge key → staged before its Apply
		has := func(a, b int32) bool {
			_, ok := staged.Load((graph.Edge{U: a, V: b}).Key())
			return ok
		}
		finished := make(chan struct{})
		go func() {
			defer close(finished)
			var wg sync.WaitGroup
			stop := make(chan struct{})
			var tg sync.WaitGroup
			for r := 0; r < traversers; r++ {
				tg.Add(1)
				go func(r int) {
					defer tg.Done()
					rng := rand.New(rand.NewSource(int64(100 + r)))
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
						req := query.Request{Kind: query.KindPath, U: u, V: v}
						if i%2 == 0 {
							req = query.Request{Kind: query.KindKHop, U: u, K: 3}
						}
						res, err := c.Query(req)
						if err != nil {
							t.Errorf("Query(%+v): %v", req, err)
							return
						}
						if req.Kind == query.KindPath && res.Found {
							checkPath(t, res.Verts, u, v, has)
						}
					}
				}(r)
			}
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(200 + w)))
					for i := 0; i < perWriter; i++ {
						u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
						staged.Store((graph.Edge{U: u, V: v}).Key(), true)
						if _, err := c.Apply([]coalesce.Op{{Kind: coalesce.OpInsert, U: u, V: v}}); err != nil {
							t.Errorf("Apply: %v", err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			close(stop)
			tg.Wait()
		}()
		select {
		case <-finished:
		case <-time.After(60 * time.Second):
			t.Fatal("sharded traversals racing writers did not finish: deadlock?")
		}
	})
}
