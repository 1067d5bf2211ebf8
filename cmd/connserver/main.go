// Connserver is the network front-end for the batch-parallel connectivity
// library: a TCP server hosting multiple named graph namespaces, speaking
// the length-prefixed binary protocol in internal/wire. Clients (the public
// client package) keep many frames in flight per connection; every in-flight
// request blocks in its namespace's Batcher, so concurrent network traffic
// coalesces into the large epochs the paper's Theorem 1 rewards — the
// server is the piece that turns remote request streams into batch
// parallelism.
//
//	connserver -addr :7421                  # memory-only namespaces
//	connserver -addr :7421 -data /var/lib/conn
//	connserver -addr :7421 -data /var/lib/conn -shards 4
//	connserver -addr :7422 -replica-of primary:7421
//
// With -data, namespaces created durable live under <data>/<namespace>/
// (write-ahead log + checkpoints, exactly conn.WithDurability) and are
// restored on startup. SIGTERM and SIGINT trigger a graceful drain: stop
// accepting, answer every request already received, then flush and
// checkpoint every durable namespace before exit — acked writes survive,
// and restart replay is bounded by the final checkpoint.
//
// With -replica-of, the server is a read-only replica: it subscribes to the
// primary's per-namespace epoch streams (WAL shipping with checkpoint +
// log-tail catch-up), applies them locally, and serves the bounded-stale
// read tiers; mutating requests are answered with a redirect to the
// primary. Replicas reconnect with exponential backoff and keep serving
// their last applied state while the primary is down.
//
// With -shards k (k >= 2), namespaces created without an explicit shard
// count are hash-partitioned across k epoch pipelines: intra-shard edges
// commit — and fsync — in parallel per partition, cross-shard edges ride a
// boundary engine, and connectivity composes the per-shard labels through
// the boundary graph (internal/shard). Durable sharded namespaces keep one
// WAL and checkpoint stream per shard under <data>/<ns>/shard-<i>/.
//
// Durable namespaces log every epoch in the v2 delta+varint record format;
// a legacy v1 log restores, keeps appending in v1, and is rewritten as v2
// at its next checkpoint. Every mutating epoch is fsynced before it is
// applied, published or acked.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":7421", "TCP listen address")
	data := flag.String("data", "", "data directory for durable namespaces (empty = memory only)")
	maxBatch := flag.Int("max-batch", 0, "epoch size target per namespace (0 = library default)")
	maxDelay := flag.Duration("max-delay", 0, "epoch coalescing window per namespace (0 = library default)")
	shards := flag.Int("shards", 0, "default hash partition count for new namespaces (0 or 1 = unsharded)")
	replicaOf := flag.String("replica-of", "", "primary connserver address to follow as a read-only replica (memory only)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "connserver: unexpected arguments %q\n", flag.Args())
		os.Exit(2)
	}

	logger := log.New(os.Stderr, "connserver: ", log.LstdFlags)
	srv, err := server.New(server.Options{
		DataDir:       *data,
		MaxBatch:      *maxBatch,
		MaxDelay:      *maxDelay,
		DefaultShards: *shards,
		ReplicaOf:     *replicaOf,
		Logf:          logger.Printf,
	})
	if err != nil {
		logger.Fatal(err)
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	done := make(chan struct{})
	go func() {
		sig := <-sigs
		logger.Printf("received %v; draining", sig)
		start := time.Now()
		srv.Shutdown()
		logger.Printf("drained in %v", time.Since(start).Round(time.Millisecond))
		close(done)
	}()

	if *replicaOf != "" {
		logger.Printf("listening on %s (read-only replica of %s)", *addr, *replicaOf)
	} else {
		logger.Printf("listening on %s (data=%q)", *addr, *data)
	}
	if err := srv.ListenAndServe(*addr); err != nil {
		logger.Fatal(err)
	}
	<-done // ListenAndServe returned because of the drain; let it finish
}
