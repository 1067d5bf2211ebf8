package server

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	conn "repro"
	"repro/client"
	"repro/internal/graph"
	"repro/internal/repl"
	"repro/internal/unionfind"
)

// edgeOracle is a repl.Applier that mirrors the primary's committed epoch
// stream into a plain edge set — the independent reference the differential
// test replays into a union-find at every convergence point. It fails the
// test if the primary ever resets it with a snapshot: the test arranges its
// resume points so the oracle's history is always continuously derivable
// from the stream alone.
type edgeOracle struct {
	t       *testing.T
	mu      sync.Mutex
	n       int
	edges   map[uint64]graph.Edge
	applied atomic.Uint64
	snaps   atomic.Int64
}

func newEdgeOracle(t *testing.T, n int) *edgeOracle {
	return &edgeOracle{t: t, n: n, edges: make(map[uint64]graph.Edge)}
}

func (o *edgeOracle) AppliedSeq() uint64 { return o.applied.Load() }

func (o *edgeOracle) Universe() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.n
}

func (o *edgeOracle) ApplySnapshot(seq uint64, n int, edges []conn.Edge) error {
	o.snaps.Add(1)
	o.mu.Lock()
	defer o.mu.Unlock()
	o.n = n
	o.edges = make(map[uint64]graph.Edge, len(edges))
	for _, e := range edges {
		ge := graph.Edge{U: e.U, V: e.V}
		o.edges[ge.Key()] = ge
	}
	o.applied.Store(seq)
	return nil
}

func (o *edgeOracle) ApplyEpoch(seq uint64, ins, del []conn.Edge) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, e := range ins {
		if e.U == e.V {
			continue
		}
		ge := graph.Edge{U: e.U, V: e.V}
		o.edges[ge.Key()] = ge
	}
	for _, e := range del {
		ge := graph.Edge{U: e.U, V: e.V}
		delete(o.edges, ge.Key())
	}
	o.applied.Store(seq)
	return nil
}

// uf rebuilds a union-find from the oracle's current edge set.
func (o *edgeOracle) uf() *unionfind.UF {
	o.mu.Lock()
	defer o.mu.Unlock()
	u := unionfind.New(o.n)
	for _, e := range o.edges {
		u.Union(e.U, e.V)
	}
	return u
}

// waitSeq polls until get() >= seq or the deadline passes.
func waitSeq(t *testing.T, what string, seq uint64, get func() uint64) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if get() >= seq {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("%s never reached seq %d (at %d)", what, seq, get())
}

// allPairs enumerates every unordered vertex pair of [0, n).
func allPairs(n int) []conn.Edge {
	var out []conn.Edge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			out = append(out, conn.Edge{U: int32(i), V: int32(j)})
		}
	}
	return out
}

// replicaAppliedSeq reads a replica namespace's applied seq over the wire.
func replicaAppliedSeq(t *testing.T, addr, ns string) func() uint64 {
	return func() uint64 {
		cl, err := client.Dial(addr, client.WithDialTimeout(time.Second))
		if err != nil {
			return 0
		}
		defer cl.Close()
		st, err := cl.Namespace(ns).Stats()
		if err != nil {
			return 0
		}
		return st.AppliedSeq
	}
}

// TestReplicaDifferential is the end-to-end replication acceptance test: a
// randomized writer drives a durable primary namespace while (a) an oracle
// follower mirrors the epoch stream into an edge set and (b) a replica
// server follows over real TCP. At every convergence point the replica's
// full pairwise connectivity must equal both the primary's and a union-find
// rebuilt from the oracle's replayed prefix. Mid-stream the replica is
// killed and cold-restarted after the primary's WAL floor moved (forcing
// snapshot catch-up), and the primary itself is drained and restarted
// (forcing follower reconnect with resume).
func TestReplicaDifferential(t *testing.T) {
	const n = 96
	rng := newRng(7)
	dataDir := t.TempDir()

	// --- primary, on a fixed address so it can restart in place.
	primary, err := New(Options{DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	primaryAddr := ln.Addr().String()
	go primary.Serve(ln)

	cl, err := client.Dial(primaryAddr, client.WithConns(2))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Create("g", n, true); err != nil {
		t.Fatal(err)
	}
	nsc := cl.Namespace("g")

	// --- oracle follower: a raw repl client mirroring the stream.
	oracle := newEdgeOracle(t, n)
	oracleStop := make(chan struct{})
	var oracleWG sync.WaitGroup
	oracleWG.Add(1)
	go func() {
		defer oracleWG.Done()
		repl.RunFollower(oracleStop, primaryAddr, "g", oracle, repl.FollowerOptions{
			MinBackoff: 5 * time.Millisecond, MaxBackoff: 100 * time.Millisecond,
		})
	}()
	defer func() { close(oracleStop); oracleWG.Wait() }()

	// --- replica server.
	startReplica := func() (*Server, string) {
		r, err := New(Options{ReplicaOf: primaryAddr})
		if err != nil {
			t.Fatal(err)
		}
		rln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go r.Serve(rln)
		return r, rln.Addr().String()
	}
	replica, replicaAddr := startReplica()

	// writeBurst applies k random mixed updates in small batches and returns
	// the primary seq the client observed for its last acknowledged write.
	// Transport errors are retried: a request in flight across the primary
	// restart fails by design (the client redials on next use), and blind
	// retry is safe here — updates are idempotent, and the oracle replays
	// whatever epochs actually committed.
	writeBurst := func(k int) uint64 {
		for i := 0; i < k; i += 8 {
			ops := make([]conn.Op, 0, 8)
			for j := 0; j < 8; j++ {
				kind := conn.OpInsert
				if rng.Intn(3) == 0 {
					kind = conn.OpDelete
				}
				ops = append(ops, conn.Op{Kind: kind,
					U: int32(rng.Intn(n)), V: int32(rng.Intn(n))})
			}
			var err error
			for attempt := 0; attempt < 100; attempt++ {
				if _, err = nsc.Do(ops); err == nil {
					break
				}
				time.Sleep(5 * time.Millisecond)
			}
			if err != nil {
				t.Fatalf("write burst: %v", err)
			}
		}
		return cl.ObservedSeq("g")
	}

	pairs := allPairs(n)
	// converge waits for oracle and replica to reach seq, then compares full
	// pairwise connectivity across primary, replica, and the oracle's
	// union-find replay.
	converge := func(phase string, seq uint64, replicaAddr string) {
		t.Helper()
		waitSeq(t, phase+": oracle", seq, oracle.AppliedSeq)
		waitSeq(t, phase+": replica", seq, replicaAppliedSeq(t, replicaAddr, "g"))
		rcl, err := client.Dial(replicaAddr)
		if err != nil {
			t.Fatalf("%s: dial replica: %v", phase, err)
		}
		defer rcl.Close()
		pBits, err := cl.Namespace("g").ReadNowBatch(pairs)
		if err != nil {
			t.Fatalf("%s: primary read: %v", phase, err)
		}
		rBits, err := rcl.Namespace("g").ReadNowBatch(pairs)
		if err != nil {
			t.Fatalf("%s: replica read: %v", phase, err)
		}
		u := oracle.uf()
		for i, p := range pairs {
			want := u.Connected(p.U, p.V)
			if pBits[i] != want {
				t.Fatalf("%s: primary disagrees with oracle on {%d,%d}: %v vs %v",
					phase, p.U, p.V, pBits[i], want)
			}
			if rBits[i] != want {
				t.Fatalf("%s: replica disagrees with oracle on {%d,%d}: %v vs %v",
					phase, p.U, p.V, rBits[i], want)
			}
		}
	}

	// Phase A: plain streaming replication.
	t.Log("phase A writes")
	seq := writeBurst(240)
	converge("phase A", seq, replicaAddr)

	// Phase B: kill the replica mid-traffic, checkpoint the primary so the
	// WAL floor moves past the replica's applied seq, keep writing, then
	// cold-restart the replica — catch-up must go through the snapshot path.
	replica.Shutdown()
	if _, err := nsc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	t.Log("phase B writes")
	seq = writeBurst(160)
	replica, replicaAddr = startReplica()
	converge("phase B", seq, replicaAddr)

	// Phase C: drain and restart the primary in place. Followers (replica
	// and oracle) must reconnect with backoff and resume; the drain
	// checkpoint moves the floor exactly to their applied seq, so resume is
	// a pure tail subscribe.
	waitSeq(t, "phase C: oracle pre-drain", seq, oracle.AppliedSeq)
	primary.Shutdown()
	primary, err = New(Options{DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	ln2, err := net.Listen("tcp", primaryAddr)
	if err != nil {
		t.Fatal(err)
	}
	go primary.Serve(ln2)
	defer primary.Shutdown()
	defer replica.Shutdown()

	t.Log("phase C writes")
	seq = writeBurst(160)
	converge("phase C", seq, replicaAddr)

	if oracle.snaps.Load() != 0 {
		t.Fatalf("oracle was reset by a snapshot %d time(s); its replay is no longer a pure epoch history",
			oracle.snaps.Load())
	}
}

// TestReplicaRedirectsWrites: mutations sent to a replica come back as a
// typed redirect carrying the primary's address; query-only batches and the
// read tiers are served.
func TestReplicaRedirectsWrites(t *testing.T) {
	dataDir := t.TempDir()
	primary, primaryAddr, _ := start(t, Options{DataDir: dataDir})
	defer primary.Shutdown()
	cl, err := client.Dial(primaryAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Create("g", 32, true); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Namespace("g").Insert(1, 2); err != nil {
		t.Fatal(err)
	}
	seq := cl.ObservedSeq("g")

	replica, replicaAddr, _ := start(t, Options{ReplicaOf: primaryAddr})
	defer replica.Shutdown()
	waitSeq(t, "replica", seq, replicaAppliedSeq(t, replicaAddr, "g"))

	rcl, err := client.Dial(replicaAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer rcl.Close()

	_, err = rcl.Namespace("g").Insert(3, 4)
	var redirect *client.RedirectError
	if !errors.As(err, &redirect) {
		t.Fatalf("replica insert error = %v, want RedirectError", err)
	}
	if redirect.Primary != primaryAddr {
		t.Fatalf("redirect points at %q, want %q", redirect.Primary, primaryAddr)
	}
	if err := rcl.Create("h", 8, false); !errors.As(err, &redirect) {
		t.Fatalf("replica create error = %v, want RedirectError", err)
	}
	if err := rcl.Drop("g"); !errors.As(err, &redirect) {
		t.Fatalf("replica drop error = %v, want RedirectError", err)
	}
	if _, err := rcl.Namespace("g").Checkpoint(); !errors.As(err, &redirect) {
		t.Fatalf("replica checkpoint error = %v, want RedirectError", err)
	}

	// Reads are served locally, from replicated state.
	if ok, err := rcl.Namespace("g").ReadRecent(1, 2); err != nil || !ok {
		t.Fatalf("replica ReadRecent(1,2) = %v, %v; want true", ok, err)
	}
	if ok, err := rcl.Namespace("g").ReadNow(1, 2); err != nil || !ok {
		t.Fatalf("replica ReadNow(1,2) = %v, %v; want true", ok, err)
	}
	if bits, err := rcl.Namespace("g").ConnectedBatch([]conn.Edge{{U: 1, V: 2}}); err != nil || !bits[0] {
		t.Fatalf("replica query batch = %v, %v; want true", bits, err)
	}
}

// TestReplicaServesWhilePrimaryDown: a replica keeps answering bounded-stale
// reads from its last applied state after the primary dies, and catches up
// once the primary returns.
func TestReplicaServesWhilePrimaryDown(t *testing.T) {
	dataDir := t.TempDir()
	primary, err := New(Options{DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	primaryAddr := ln.Addr().String()
	go primary.Serve(ln)

	cl, err := client.Dial(primaryAddr)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Create("g", 32, true); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Namespace("g").Insert(1, 2); err != nil {
		t.Fatal(err)
	}
	seq := cl.ObservedSeq("g")

	replica, replicaAddr, _ := start(t, Options{ReplicaOf: primaryAddr})
	defer replica.Shutdown()
	waitSeq(t, "replica", seq, replicaAppliedSeq(t, replicaAddr, "g"))

	primary.Shutdown()
	cl.Close()

	rcl, err := client.Dial(replicaAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer rcl.Close()
	for i := 0; i < 10; i++ {
		if ok, err := rcl.Namespace("g").ReadRecent(1, 2); err != nil || !ok {
			t.Fatalf("replica read with primary down = %v, %v; want true", ok, err)
		}
	}

	// Primary returns with more data; the replica reconnects and applies it.
	primary2, err := New(Options{DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	ln2, err := net.Listen("tcp", primaryAddr)
	if err != nil {
		t.Fatal(err)
	}
	go primary2.Serve(ln2)
	defer primary2.Shutdown()
	cl2, err := client.Dial(primaryAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	if _, err := cl2.Namespace("g").Insert(2, 3); err != nil {
		t.Fatal(err)
	}
	waitSeq(t, "replica catch-up", cl2.ObservedSeq("g"), replicaAppliedSeq(t, replicaAddr, "g"))
	if ok, err := rcl.Namespace("g").ReadRecent(1, 3); err != nil || !ok {
		t.Fatalf("replica read after primary return = %v, %v; want true", ok, err)
	}
}
