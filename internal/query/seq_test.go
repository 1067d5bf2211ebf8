package query

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/coalesce"
	"repro/internal/core"
	"repro/internal/engine"
)

// TestTraversalSeqExact: a traversal's Result.Seq is the durable position
// of exactly the state it walked. Writers on a durable engine insert the
// path edges (i, i+1) in random order and record the seq each was acked
// at; concurrent Path(0, m) answers must be Found exactly when every edge
// below m was acked at or below the answer's Seq, and a K-hop from 0 with
// K = n must reach exactly the vertices up to the first edge acked above
// it. A seq sampled before the walk fails this whenever an epoch lands in
// between.
func TestTraversalSeqExact(t *testing.T) {
	const n, writers, readers = 96, 3, 4
	e, err := engine.New(core.New(n), engine.Options{DurDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	acked := make([]uint64, n-1) // acked[i]: the seq edge (i, i+1) was acked at
	perm := rand.New(rand.NewSource(1)).Perm(n - 1)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := w; j < len(perm); j += writers {
				i := perm[j]
				_, seq, err := e.Apply([]coalesce.Op{{Kind: coalesce.OpInsert, U: int32(i), V: int32(i + 1)}})
				if err != nil {
					t.Errorf("Apply: %v", err)
					return
				}
				acked[i] = seq
			}
		}(w)
	}

	// answer is one traversal, kept compact: a traversal that did not wait
	// for the dispatcher could run a hundred thousand of them while the
	// writers fsync (each reader stops at 2^17). For a K-hop, reach is
	// the last vertex it returned, which must be 0..reach in order.
	type answer struct {
		path         bool
		v, reach     int32
		seq          uint64
		found, dense bool
	}
	answers := make([][]answer, readers)
	stop := make(chan struct{})
	var rwg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			rng := rand.New(rand.NewSource(int64(10 + r)))
			for i := 0; i < 1<<17; i++ {
				select {
				case <-stop:
					return
				default:
				}
				req := Request{Kind: KindPath, U: 0, V: int32(1 + rng.Intn(n-1))}
				if i%2 == 1 {
					req = Request{Kind: KindKHop, U: 0, K: n}
				}
				res, err := Run(e, req)
				if err != nil {
					t.Errorf("Run(%+v): %v", req, err)
					return
				}
				a := answer{path: req.Kind == KindPath, v: req.V, seq: res.Seq, found: res.Found, dense: true}
				if !a.path {
					for j, v := range res.Verts {
						a.dense = a.dense && v == int32(j)
					}
					a.reach = res.Verts[len(res.Verts)-1]
				}
				answers[r] = append(answers[r], a)
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	rwg.Wait()

	checked := 0
	for _, as := range answers {
		for _, a := range as {
			// reach is the last vertex of 0's component at a.seq.
			reach := int32(0)
			for reach < n-1 && acked[reach] <= a.seq {
				reach++
			}
			if a.path {
				if want := a.v <= reach; a.found != want {
					t.Errorf("Path(0, %d) at seq %d: Found = %v, want %v", a.v, a.seq, a.found, want)
				}
			} else if !a.dense || a.reach != reach {
				t.Errorf("KHop(0) at seq %d: reached %d (contiguous %v), want 0..%d", a.seq, a.reach, a.dense, reach)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no traversal ran beside the writers")
	}
	t.Logf("%d traversals checked", checked)
}
