// Network: the full client/server stack on a loopback socket. An in-process
// connserver hosts two namespaces — a memory-only scratch graph and a
// durable one — while pooled client connections drive pipelined, batched
// traffic at it. The run then checkpoints, drains the server the way
// SIGTERM would, restarts it from the data directory, and shows every
// acknowledged write still answering over the wire.
//
//	go run ./examples/network
package main

import (
	"fmt"
	"log"
	"math/rand"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	conn "repro"
	"repro/client"
	"repro/internal/server"
)

const (
	nVerts  = 1 << 14
	workers = 8
	rounds  = 64
	batch   = 64
)

func main() {
	data, err := os.MkdirTemp("", "connserver-example-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(data)

	addr, srv := serve(data)
	fmt.Printf("server on %s, durable namespaces under %s\n", addr, data)

	cl, err := client.Dial(addr, client.WithConns(4))
	if err != nil {
		log.Fatal(err)
	}
	must(cl.Create("scratch", nVerts, false))
	must(cl.Create("social", nVerts, true))

	// Pipelined batched traffic: each worker sends whole frames of mixed
	// operations; frames in flight across 4 connections coalesce into large
	// epochs server-side.
	var ops, yes atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			social := cl.Namespace("social")
			scratch := cl.Namespace("scratch")
			for r := 0; r < rounds; r++ {
				group := make([]conn.Op, batch)
				for i := range group {
					kind := conn.OpInsert
					switch x := rng.Intn(10); {
					case x < 2:
						kind = conn.OpDelete
					case x < 4:
						kind = conn.OpQuery
					}
					group[i] = conn.Op{Kind: kind,
						U: int32(rng.Intn(nVerts)), V: int32(rng.Intn(nVerts))}
				}
				ns := social
				if r%4 == 3 {
					ns = scratch
				}
				bits, err := ns.Do(group)
				if err != nil {
					log.Fatalf("worker %d: %v", w, err)
				}
				ops.Add(int64(len(bits)))
				for _, b := range bits {
					if b {
						yes.Add(1)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	el := time.Since(t0)

	st, err := cl.Namespace("social").Stats()
	must(err)
	fmt.Printf("%d wire ops in %v (%.0f ops/s); social: %d epochs, avg Δ=%.0f, %d WAL records\n",
		ops.Load(), el.Round(time.Millisecond), float64(ops.Load())/el.Seconds(),
		st.Epochs, float64(st.Ops)/float64(st.Epochs), st.WALRecords)

	// A reference pair we expect to survive the restart.
	must3(cl.Namespace("social").Insert(1, 2))
	must3(cl.Namespace("social").Insert(2, 3))
	path, err := cl.Namespace("social").Checkpoint()
	must(err)
	fmt.Printf("checkpointed: %s\n", path)
	must3(cl.Namespace("social").Insert(3, 4)) // WAL tail past the checkpoint

	// Graceful drain — exactly what SIGTERM triggers in cmd/connserver.
	srv.Shutdown()
	cl.Close()
	fmt.Println("server drained (flush + checkpoint of every durable namespace)")

	// Restart from the same directory: the durable namespace comes back,
	// the memory-only one is gone.
	addr2, srv2 := serve(data)
	defer srv2.Shutdown()
	cl2, err := client.Dial(addr2)
	must(err)
	defer cl2.Close()
	infos, err := cl2.List()
	must(err)
	for _, info := range infos {
		fmt.Printf("restored namespace %q (n=%d, durable=%v)\n", info.Name, info.N, info.Durable)
	}
	for _, q := range [][2]int32{{1, 3}, {1, 4}} {
		ok, err := cl2.Namespace("social").Connected(q[0], q[1])
		must(err)
		fmt.Printf("after restart: connected(%d,%d) = %v\n", q[0], q[1], ok)
	}
}

func serve(data string) (string, *server.Server) {
	srv, err := server.New(server.Options{DataDir: data})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(ln)
	return ln.Addr().String(), srv
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func must3(_ bool, err error) { must(err) }
