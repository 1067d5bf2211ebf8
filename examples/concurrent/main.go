// Concurrent: many goroutines share one graph through conn.Batcher, the
// group-commit front-end. Each worker plays a "user" of a social service:
// it befriends random pairs, severs some, and asks reachability questions.
// The Batcher coalesces this trickle of per-user operations into the large
// batches the paper's cost bounds reward, so nobody takes a lock on the
// whole graph and nobody pays single-edge update prices.
//
//	go run ./examples/concurrent
package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	conn "repro"
)

func main() {
	const (
		n       = 1 << 15
		workers = 32
		opsPer  = 4096
	)
	g := conn.New(n)
	b := conn.NewBatcher(g)

	var inserted, deleted, connectedYes atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			var friends []conn.Edge // edges this worker inserted
			for i := 0; i < opsPer; i++ {
				u := int32(rng.Intn(n))
				v := int32(rng.Intn(n))
				switch r := rng.Intn(10); {
				case r < 5: // befriend
					if b.Insert(u, v) {
						inserted.Add(1)
						friends = append(friends, conn.Edge{U: u, V: v})
					}
				case r < 7 && len(friends) > 0: // sever an old friendship
					j := rng.Intn(len(friends))
					e := friends[j]
					friends[j] = friends[len(friends)-1]
					friends = friends[:len(friends)-1]
					if b.Delete(e.U, e.V) {
						deleted.Add(1)
					}
				default: // can u reach v?
					if b.Connected(u, v) {
						connectedYes.Add(1)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	b.Close()
	elapsed := time.Since(t0)

	s := b.Stats()
	total := s.Ops
	fmt.Printf("%d workers × %d ops in %v (%.0f ops/sec)\n",
		workers, opsPer, elapsed.Round(time.Millisecond),
		float64(total)/elapsed.Seconds())
	fmt.Printf("coalesced into %d epochs: avg batch %.1f ops, largest %d\n",
		s.Epochs, s.AvgEpoch(), s.MaxEpoch)
	fmt.Printf("inserted %d, deleted %d, %d queries answered yes\n",
		inserted.Load(), deleted.Load(), connectedYes.Load())

	// After Close the graph is quiesced: use it directly.
	fmt.Printf("final graph: %d edges, %d components\n",
		g.NumEdges(), g.NumComponents())
	if err := g.CheckInvariants(); err != nil {
		fmt.Printf("INVARIANT VIOLATION: %v\n", err)
		return
	}
	fmt.Println("invariants hold after quiesce")
}
