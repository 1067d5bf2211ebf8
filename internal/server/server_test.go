// Loopback end-to-end tests: a real TCP server, the public client package,
// pipelined batched traffic from multiple connections, graceful drain,
// restart, and restore. Runs in the race job — the server's whole point is
// concurrent frames coalescing into shared epochs.
package server

import (
	"bytes"
	"errors"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	conn "repro"
	"repro/client"
	"repro/internal/wal"
)

func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// start runs a server on a loopback listener and returns it with its
// address and Serve's error channel.
func start(t *testing.T, opts Options) (*Server, string, chan error) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ln) }()
	return s, ln.Addr().String(), serveErr
}

// edgesOf enumerates a graph's full live edge set.
func edgesOf(g *conn.Graph) []conn.Edge {
	return append(g.SpanningForest(), g.NonTreeEdges()...)
}

// TestLoopbackEndToEnd is the acceptance scenario: two namespaces (one
// durable), pipelined batched traffic from 4 client connections with
// per-worker oracle mirrors, a wire checkpoint, post-checkpoint traffic,
// graceful drain, restart, and restore — every acked write visible.
func TestLoopbackEndToEnd(t *testing.T) {
	const (
		nVerts  = 256
		workers = 4
		span    = nVerts / workers
	)
	rounds := 20
	if testing.Short() {
		rounds = 6
	}

	data := t.TempDir()
	srv, addr, serveErr := start(t, Options{DataDir: data, MaxDelay: 200 * time.Microsecond})

	cl, err := client.Dial(addr, client.WithConns(workers))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	if err := cl.Ping(); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	if err := cl.Create("mem", nVerts, false); err != nil {
		t.Fatalf("Create mem: %v", err)
	}
	if err := cl.Create("dur", nVerts, true); err != nil {
		t.Fatalf("Create dur: %v", err)
	}

	// Per-(namespace, worker) oracle mirrors. Workers own disjoint vertex
	// ranges, so each mirror is exact for queries inside its range no matter
	// how the server's epochs interleave the workers' groups.
	names := []string{"mem", "dur"}
	mirrors := map[string][]*conn.Graph{}
	for _, name := range names {
		mirrors[name] = make([]*conn.Graph, workers)
		for w := 0; w < workers; w++ {
			mirrors[name][w] = conn.New(nVerts)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := newRng(int64(w))
			lo := int32(w * span)
			pair := func() (int32, int32) {
				return lo + int32(rng.Intn(span)), lo + int32(rng.Intn(span))
			}
			for r := 0; r < rounds; r++ {
				for _, name := range names {
					ns := cl.Namespace(name)
					mirror := mirrors[name][w]
					var ops []conn.Op
					var ins, del []conn.Edge
					var queries []int // indices of query ops
					for i := 0; i < 24; i++ {
						u, v := pair()
						switch x := rng.Intn(100); {
						case x < 50:
							ops = append(ops, conn.Op{Kind: conn.OpInsert, U: u, V: v})
							ins = append(ins, conn.Edge{U: u, V: v})
						case x < 70:
							ops = append(ops, conn.Op{Kind: conn.OpDelete, U: u, V: v})
							del = append(del, conn.Edge{U: u, V: v})
						default:
							queries = append(queries, len(ops))
							ops = append(ops, conn.Op{Kind: conn.OpQuery, U: u, V: v})
						}
					}
					bits, err := ns.Do(ops)
					if err != nil {
						t.Errorf("worker %d: Do on %s: %v", w, name, err)
						return
					}
					if len(bits) != len(ops) {
						t.Errorf("worker %d: %d results for %d ops", w, len(bits), len(ops))
						return
					}
					// The group is atomic — one epoch applies inserts, then
					// deletes, then answers queries. Replay on the mirror and
					// check every query answer.
					mirror.InsertEdges(ins)
					mirror.DeleteEdges(del)
					for _, qi := range queries {
						want := mirror.Connected(ops[qi].U, ops[qi].V)
						if bits[qi] != want {
							t.Errorf("worker %d: query {%d,%d} on %s = %v, mirror says %v",
								w, ops[qi].U, ops[qi].V, name, bits[qi], want)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Quiesced: all three read tiers must agree with the mirrors.
	for _, name := range names {
		ns := cl.Namespace(name)
		rng := newRng(99)
		for w := 0; w < workers; w++ {
			lo := int32(w * span)
			var qs []conn.Edge
			for i := 0; i < 32; i++ {
				qs = append(qs, conn.Edge{U: lo + int32(rng.Intn(span)), V: lo + int32(rng.Intn(span))})
			}
			lin, err := ns.ConnectedBatch(qs)
			if err != nil {
				t.Fatalf("ConnectedBatch: %v", err)
			}
			now, err := ns.ReadNowBatch(qs)
			if err != nil {
				t.Fatalf("ReadNowBatch: %v", err)
			}
			recent, err := ns.ReadRecentBatch(qs)
			if err != nil {
				t.Fatalf("ReadRecentBatch: %v", err)
			}
			for i, q := range qs {
				want := mirrors[name][w].Connected(q.U, q.V)
				if lin[i] != want || now[i] != want || recent[i] != want {
					t.Fatalf("%s {%d,%d}: tiers (lin=%v now=%v recent=%v), mirror %v",
						name, q.U, q.V, lin[i], now[i], recent[i], want)
				}
			}
		}
	}

	// Stats over the wire: traffic committed, epochs coalesced multiple ops,
	// and the durable namespace paid WAL records.
	st, err := cl.Namespace("dur").Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.Ops == 0 || st.Epochs == 0 || st.WALRecords == 0 {
		t.Fatalf("dur stats look dead: %+v", st)
	}
	if st.Ops < 2*st.Epochs {
		t.Errorf("no coalescing: %d ops over %d epochs", st.Ops, st.Epochs)
	}
	// A freshly created durable namespace logs in the v2 codec.
	walBytes, err := os.ReadFile(filepath.Join(data, "dur", "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if res, err := wal.Scan(bytes.NewReader(walBytes), nil); err != nil || res.Codec != 2 {
		t.Fatalf("dur WAL codec = %d (err %v), want 2", res.Codec, err)
	}

	// Wire checkpoint, then more acked traffic so restart must replay a WAL
	// tail beyond the checkpoint.
	ckptPath, err := cl.Namespace("dur").Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if _, err := os.Stat(ckptPath); err != nil {
		t.Fatalf("checkpoint path: %v", err)
	}
	if _, err := cl.Namespace("mem").Checkpoint(); err == nil {
		t.Fatal("Checkpoint on a memory-only namespace succeeded")
	}
	tail := []conn.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: span, V: span + 3}}
	if _, err := cl.Namespace("dur").InsertEdges(tail); err != nil {
		t.Fatalf("post-checkpoint inserts: %v", err)
	}
	mirrors["dur"][0].InsertEdges(tail[:2])
	mirrors["dur"][1].InsertEdges(tail[2:])

	// Namespace lifecycle: a scratch durable namespace, dropped, must vanish
	// from disk and from List.
	if err := cl.Create("scratch", 64, true); err != nil {
		t.Fatalf("Create scratch: %v", err)
	}
	if _, err := cl.Namespace("scratch").Insert(1, 2); err != nil {
		t.Fatalf("scratch insert: %v", err)
	}
	if err := cl.Drop("scratch"); err != nil {
		t.Fatalf("Drop scratch: %v", err)
	}
	if _, err := os.Stat(filepath.Join(data, "scratch")); !os.IsNotExist(err) {
		t.Fatalf("dropped durable namespace left state on disk: %v", err)
	}
	infos, err := cl.List()
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if len(infos) != 2 || infos[0].Name != "dur" || !infos[0].Durable ||
		infos[1].Name != "mem" || infos[1].Durable {
		t.Fatalf("List = %+v", infos)
	}

	// Graceful drain (what SIGTERM triggers in cmd/connserver).
	srv.Shutdown()
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve returned %v after Shutdown", err)
	}
	if err := cl.Ping(); err == nil {
		t.Fatal("Ping succeeded after Shutdown")
	}

	// Restart from the data directory: only the durable namespace returns,
	// with every acked write visible.
	srv2, addr2, serveErr2 := start(t, Options{DataDir: data})
	srv2.mu.RLock()
	_, hasMem := srv2.namespaces["mem"]
	dur := srv2.namespaces["dur"]
	srv2.mu.RUnlock()
	if hasMem {
		t.Fatal("memory-only namespace survived restart")
	}
	if dur == nil {
		t.Fatal("durable namespace not restored")
	}
	var want int
	for w := 0; w < workers; w++ {
		m := mirrors["dur"][w]
		want += m.NumEdges()
		for _, e := range edgesOf(m) {
			if !dur.g.HasEdge(e.U, e.V) {
				t.Fatalf("restored graph missing acked edge {%d,%d}", e.U, e.V)
			}
		}
	}
	if got := dur.g.NumEdges(); got != want {
		t.Fatalf("restored graph has %d edges, acked state has %d", got, want)
	}

	// And it still serves: linearized answers over the wire match mirrors.
	cl2, err := client.Dial(addr2, client.WithConns(2))
	if err != nil {
		t.Fatalf("Dial after restart: %v", err)
	}
	defer cl2.Close()
	infos, err = cl2.List()
	if err != nil || len(infos) != 1 || infos[0].Name != "dur" {
		t.Fatalf("List after restart = %+v, %v", infos, err)
	}
	ns2 := cl2.Namespace("dur")
	rng := newRng(7)
	for w := 0; w < workers; w++ {
		lo := int32(w * span)
		for i := 0; i < 16; i++ {
			u, v := lo+int32(rng.Intn(span)), lo+int32(rng.Intn(span))
			got, err := ns2.Connected(u, v)
			if err != nil {
				t.Fatalf("Connected after restart: %v", err)
			}
			if want := mirrors["dur"][w].Connected(u, v); got != want {
				t.Fatalf("after restart {%d,%d} = %v, mirror says %v", u, v, got, want)
			}
		}
	}
	srv2.Shutdown()
	if err := <-serveErr2; err != nil {
		t.Fatalf("second Serve returned %v", err)
	}
}

// TestShutdownDuringTraffic drains the server while insert-only workers are
// mid-flight: no panic, every error is a clean rejection, and after restart
// every acked insert is visible (acked ⇒ durable, even through a drain).
func TestShutdownDuringTraffic(t *testing.T) {
	const (
		nVerts  = 256
		workers = 4
		span    = nVerts / workers
		warmup  = 5
	)
	data := t.TempDir()
	srv, addr, serveErr := start(t, Options{DataDir: data, MaxDelay: 500 * time.Microsecond})
	cl, err := client.Dial(addr, client.WithConns(workers))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	if err := cl.Create("d", nVerts, true); err != nil {
		t.Fatalf("Create: %v", err)
	}

	acked := make([][]conn.Edge, workers)
	var warm, done sync.WaitGroup
	warm.Add(workers)
	for w := 0; w < workers; w++ {
		done.Add(1)
		go func(w int) {
			defer done.Done()
			warmed := false
			ns := cl.Namespace("d")
			rng := newRng(int64(100 + w))
			lo := int32(w * span)
			for round := 0; ; round++ {
				batch := make([]conn.Edge, 8)
				for i := range batch {
					batch[i] = conn.Edge{U: lo + int32(rng.Intn(span)), V: lo + int32(rng.Intn(span))}
				}
				if _, err := ns.InsertEdges(batch); err != nil {
					// Drain reached us: the batch was not acknowledged.
					if !warmed {
						warm.Done()
					}
					return
				}
				acked[w] = append(acked[w], batch...)
				if round == warmup {
					warmed = true
					warm.Done()
				}
			}
		}(w)
	}
	warm.Wait()
	srv.Shutdown()
	done.Wait()
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve returned %v", err)
	}

	srv2, err := New(Options{DataDir: data})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	srv2.mu.RLock()
	d := srv2.namespaces["d"]
	srv2.mu.RUnlock()
	if d == nil {
		t.Fatal("namespace not restored")
	}
	for w := 0; w < workers; w++ {
		for _, e := range acked[w] {
			if e.U != e.V && !d.g.HasEdge(e.U, e.V) {
				t.Fatalf("acked edge {%d,%d} lost across drain+restart", e.U, e.V)
			}
		}
	}
	srv2.Shutdown()
}

// TestNamespaceAdmin covers the admin surface's error paths; after every
// rejection the server must still answer.
func TestNamespaceAdmin(t *testing.T) {
	srv, addr, serveErr := start(t, Options{})
	cl, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	if infos, err := cl.List(); err != nil || len(infos) != 0 {
		t.Fatalf("fresh List = %+v, %v", infos, err)
	}
	for _, bad := range []string{"", "a/b", "..", ".hidden", "x y", "dir\\x"} {
		if err := cl.Create(bad, 16, false); err == nil {
			t.Fatalf("Create(%q) succeeded", bad)
		}
	}
	if err := cl.Create("d", 16, true); err == nil {
		t.Fatal("durable Create without a data dir succeeded")
	}
	if err := cl.Create("g", 0, false); err == nil {
		t.Fatal("Create with n=0 succeeded")
	}
	if err := cl.Create("g", 16, false); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := cl.Create("g", 16, false); !errors.Is(err, client.ErrExists) {
		t.Fatalf("duplicate Create: %v, want ErrExists", err)
	}
	if _, err := cl.Namespace("nope").Insert(0, 1); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("Insert on unknown namespace: %v, want ErrNotFound", err)
	}
	if _, err := cl.Namespace("g").Insert(0, 99); err == nil {
		t.Fatal("out-of-range insert succeeded")
	}
	if _, err := cl.Namespace("g").ReadNow(-1, 3); err == nil {
		t.Fatal("out-of-range ReadNow succeeded")
	}
	if err := cl.Ping(); err != nil {
		t.Fatalf("server unhealthy after rejections: %v", err)
	}
	if ok, err := cl.Namespace("g").Insert(0, 1); err != nil || !ok {
		t.Fatalf("Insert = %v, %v", ok, err)
	}
	if _, err := cl.Namespace("g").Checkpoint(); err == nil {
		t.Fatal("Checkpoint on non-durable namespace succeeded")
	}
	if err := cl.Drop("g"); err != nil {
		t.Fatalf("Drop: %v", err)
	}
	if err := cl.Drop("g"); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("double Drop: %v, want ErrNotFound", err)
	}
	srv.Shutdown()
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve returned %v", err)
	}
}
