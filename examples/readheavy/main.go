// Readheavy: the serving pattern the read tiers exist for — a social graph
// where a handful of writers mutate friendships while a crowd of readers
// asks "are we connected?" far more often than anyone writes.
//
// Run with: go run ./examples/readheavy
//
// Every reader picks the consistency it needs:
//
//   - Connected: linearized against all updates — joins the write
//     pipeline's epochs and waits for its epoch to commit. Right for reads
//     that gate a write ("merge these accounts only if still separate").
//   - ReadRecent: committed — two array loads against the labelling
//     published at the last connectivity-changing epoch, which already
//     holds every acknowledged write. Right for the overwhelming bulk of
//     display traffic ("show the connected badge").
package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	conn "repro"
)

func main() {
	const (
		n       = 1 << 14
		writers = 2
		readers = 4
		runFor  = 500 * time.Millisecond
	)
	g := conn.New(n)
	// Seed a base social graph.
	rng := rand.New(rand.NewSource(1))
	base := make([]conn.Edge, n/2)
	for i := range base {
		base[i] = conn.Edge{U: int32(rng.Intn(n)), V: int32(rng.Intn(n))}
	}
	g.InsertEdges(base)

	b := conn.NewBatcher(g)

	var wrote atomic.Int64
	var read [2]atomic.Int64 // per-tier query counts
	stop := make(chan struct{})
	var wg sync.WaitGroup

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
				if rng.Intn(3) == 0 {
					b.Delete(u, v)
				} else {
					b.Insert(u, v)
				}
				wrote.Add(1)
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			tier := min(r, 1) // reader 0 linearized, the rest wait-free
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
				if tier == 0 {
					b.Connected(u, v)
				} else {
					b.ReadRecent(u, v)
				}
				read[tier].Add(1)
				if i&1023 == 0 {
					runtime.Gosched() // be fair to the dispatcher on small boxes
				}
			}
		}(r)
	}

	time.Sleep(runFor)
	close(stop)
	wg.Wait()

	secs := runFor.Seconds()
	fmt.Printf("%d writers, %d readers over %v on n=%d:\n", writers, readers, runFor, n)
	fmt.Printf("  writes                 %10.0f ops/sec\n", float64(wrote.Load())/secs)
	fmt.Printf("  Connected  (linearized)%10.0f reads/sec\n", float64(read[0].Load())/secs)
	fmt.Printf("  ReadRecent (committed) %10.0f reads/sec\n", float64(read[1].Load())/secs)
	s := b.Stats()
	fmt.Printf("epochs %d (avg Δ %.1f); snapshot publishes %d, full rebuilds %d\n",
		s.Epochs, s.AvgEpoch(), s.SnapshotPublishes, s.SnapshotRebuilds)

	// Quiesce the pipeline: with nothing in flight the two tiers agree.
	b.Flush()
	u, v := int32(1), int32(2)
	lin, recent := b.Connected(u, v), b.ReadRecent(u, v)
	fmt.Printf("after Flush, tiers agree on {%d,%d}: %v/%v\n", u, v, lin, recent)
	if lin != recent {
		panic("tiers disagree on a quiescent structure")
	}
	b.Close()
	if err := g.CheckInvariants(); err != nil {
		panic(err)
	}
	fmt.Println("invariants hold after quiesce")
}
