package client_test

import (
	"bufio"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	conn "repro"
	"repro/client"
	"repro/internal/server"
	"repro/internal/wire"
)

// stubReplica is a hand-rolled wire endpoint that answers read-tier
// requests with a fixed bit and a configurable replication seq — the knob
// the fencing tests turn. Everything else gets StatusNotFound.
type stubReplica struct {
	ln       net.Listener
	seq      atomic.Uint64
	bit      atomic.Bool
	requests atomic.Int64
}

func newStubReplica(t *testing.T) *stubReplica {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &stubReplica{ln: ln}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go s.serve(c)
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return s
}

func (s *stubReplica) serve(c net.Conn) {
	defer c.Close()
	br := bufio.NewReader(c)
	bw := bufio.NewWriter(c)
	for {
		payload, err := wire.ReadFrame(br)
		if err != nil {
			return
		}
		req, err := wire.DecodeRequest(payload)
		if err != nil {
			return
		}
		var resp *wire.Response
		switch req.Cmd {
		case wire.CmdReadRecent, wire.CmdReadNow:
			s.requests.Add(1)
			bits := make([]bool, len(req.Pairs))
			for i := range bits {
				bits[i] = s.bit.Load()
			}
			resp = &wire.Response{ID: req.ID, Bits: bits, Seq: s.seq.Load()}
		default:
			resp = &wire.Response{ID: req.ID, Status: wire.StatusNotFound, Msg: "stub"}
		}
		out, err := wire.EncodeResponse(resp)
		if err != nil {
			return
		}
		if wire.WriteFrame(bw, out) != nil || bw.Flush() != nil {
			return
		}
	}
}

func startPrimary(t *testing.T, opts server.Options) (*server.Server, string) {
	t.Helper()
	srv, err := server.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(srv.Shutdown)
	return srv, ln.Addr().String()
}

// TestReadRoutingPrefersFreshReplica: a replica whose answer carries a seq
// at or past the client's observed-seq fence serves the bounded-stale read
// — the primary is not consulted.
func TestReadRoutingPrefersFreshReplica(t *testing.T) {
	_, addr := startPrimary(t, server.Options{DataDir: t.TempDir()})
	stub := newStubReplica(t)
	stub.seq.Store(1 << 30) // "arbitrarily fresh"
	stub.bit.Store(true)    // deliberately wrong vs the primary's state

	cl, err := client.Dial(addr, client.WithReplicas(stub.ln.Addr().String()))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Create("g", 16, true); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Namespace("g").Insert(1, 2); err != nil {
		t.Fatal(err)
	}
	// The stub answers true for everything; the primary would answer false
	// for {4,5}. Seeing true proves the replica served the read.
	ok, err := cl.Namespace("g").ReadRecent(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("fresh replica did not serve the ReadRecent")
	}
	if stub.requests.Load() == 0 {
		t.Fatal("stub replica saw no requests")
	}
	// ReadNow must NOT be replica-routed: it is the primary-pinned committed
	// read, so it never trails the primary.
	ok, err = cl.Namespace("g").ReadNow(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("ReadNow was served by the replica (got the stub's answer)")
	}
}

// TestReadRoutingFencesStaleReplica: once the client's own write observed a
// primary seq, a replica answering from an older seq is discarded and the
// read falls back to the primary (read-your-writes).
func TestReadRoutingFencesStaleReplica(t *testing.T) {
	_, addr := startPrimary(t, server.Options{DataDir: t.TempDir()})
	stub := newStubReplica(t)
	stub.seq.Store(0) // permanently stale
	stub.bit.Store(false)

	cl, err := client.Dial(addr, client.WithReplicas(stub.ln.Addr().String()))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Create("g", 16, true); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Namespace("g").Insert(1, 2); err != nil {
		t.Fatal(err)
	}
	if cl.ObservedSeq("g") == 0 {
		t.Fatal("write did not raise the observed-seq fence")
	}
	// The stale stub answers false; the primary knows {1,2} are connected.
	ok, err := cl.Namespace("g").ReadRecent(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("stale replica answer was not fenced; read-your-writes violated")
	}
	if stub.requests.Load() == 0 {
		t.Fatal("stub replica was never consulted")
	}
}

// TestReadRoutingFailsOverDeadReplica: an unreachable replica is skipped
// (and backed off) — reads still succeed via the primary.
func TestReadRoutingFailsOverDeadReplica(t *testing.T) {
	_, addr := startPrimary(t, server.Options{DataDir: t.TempDir()})
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close() // nothing listens here any more

	cl, err := client.Dial(addr, client.WithReplicas(deadAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Create("g", 16, true); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Namespace("g").Insert(1, 2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		ok, err := cl.Namespace("g").ReadRecent(1, 2)
		if err != nil {
			t.Fatalf("read %d with dead replica: %v", i, err)
		}
		if !ok {
			t.Fatalf("read %d returned wrong answer", i)
		}
	}
}

// dyingReplica accepts wire connections, reads exactly one request per
// connection, then writes a deliberately torn response — a frame header
// promising more payload bytes than it sends — and slams the connection
// shut. It models a replica crashing mid-response: the client has already
// committed the request to that replica and must recover without surfacing
// a short answer.
type dyingReplica struct {
	ln       net.Listener
	requests atomic.Int64
}

func newDyingReplica(t *testing.T) *dyingReplica {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d := &dyingReplica{ln: ln}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				if _, err := wire.ReadFrame(bufio.NewReader(c)); err != nil {
					return
				}
				d.requests.Add(1)
				// Header claims a 64-byte payload; deliver 3 bytes and die.
				// The client's frame reader must see ErrUnexpectedEOF, not a
				// truncated bit vector.
				hdr := []byte{64, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef}
				c.Write(append(hdr, 0x01, 0x02, 0x03))
			}(c)
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return d
}

// TestReadBatchFailsOverMidResponse: a replica that dies after sending a
// partial ReadRecentBatch response must not contribute any bits. The client
// marks it down, keeps fencing the remaining (stale) replica on observed
// seq, and serves the full batch from the primary — every query answered
// exactly once, none double-counted from the aborted attempt.
func TestReadBatchFailsOverMidResponse(t *testing.T) {
	_, addr := startPrimary(t, server.Options{DataDir: t.TempDir()})
	dying := newDyingReplica(t)
	stale := newStubReplica(t)
	stale.seq.Store(0)    // permanently behind the fence
	stale.bit.Store(true) // wrong for every disconnected pair

	cl, err := client.Dial(addr,
		client.WithReplicas(dying.ln.Addr().String(), stale.ln.Addr().String()))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Create("g", 16, true); err != nil {
		t.Fatal(err)
	}
	ns := cl.Namespace("g")
	if _, err := ns.Insert(1, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := ns.Insert(3, 4); err != nil {
		t.Fatal(err)
	}
	if cl.ObservedSeq("g") == 0 {
		t.Fatal("writes did not raise the observed-seq fence")
	}

	qs := []conn.Edge{{U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}}
	want := []bool{true, false, true}
	check := func(round int) {
		t.Helper()
		bits, err := ns.ReadRecentBatch(qs)
		if err != nil {
			t.Fatalf("round %d: batch read did not fail over: %v", round, err)
		}
		if len(bits) != len(qs) {
			t.Fatalf("round %d: got %d bits for %d queries", round, len(bits), len(qs))
		}
		for i := range want {
			if bits[i] != want[i] {
				t.Fatalf("round %d: query %d = %v, want %v (answer not from the primary)",
					round, i, bits[i], want[i])
			}
		}
	}

	check(0)
	// The dying replica was consulted exactly once within the read: the
	// mid-response death must fail the attempt over, not retry it against
	// the same dead endpoint.
	if n := dying.requests.Load(); n != 1 {
		t.Fatalf("dying replica saw %d requests during one batch read, want exactly 1", n)
	}

	// A second read still answers correctly while the dead replica sits in
	// backoff and the stale one keeps getting fenced.
	check(1)
	// The stale replica stayed up — its answers were fenced, not errors —
	// so both rounds consulted it and both times the fence rejected it.
	if n := stale.requests.Load(); n < 2 {
		t.Fatalf("stale replica saw %d requests, want >= 2 (fence path not exercised)", n)
	}
}

// TestRedialUnderConcurrentUse hammers one client from many goroutines
// while the server restarts underneath it: requests may fail with transport
// errors, but the client must never deadlock, never panic, and must be
// fully usable once the server is back (the redial path is exercised under
// genuine concurrency — run with -race).
func TestRedialUnderConcurrentUse(t *testing.T) {
	srv, err := server.New(server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	go srv.Serve(ln)

	cl, err := client.Dial(addr, client.WithConns(3), client.WithDialTimeout(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Create("g", 64, false); err != nil {
		t.Fatal(err)
	}

	const workers = 8
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var successes atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ns := cl.Namespace("g")
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				i++
				var err error
				switch i % 3 {
				case 0:
					_, err = ns.Insert(int32((w*7+i)%64), int32((w*13+2*i)%64))
				case 1:
					_, err = ns.ReadRecent(int32(i%64), int32((i+1)%64))
				default:
					_, err = ns.Do([]conn.Op{
						{Kind: conn.OpQuery, U: int32(i % 64), V: int32((i + 3) % 64)},
						{Kind: conn.OpDelete, U: int32(i % 64), V: int32((i + 5) % 64)},
					})
				}
				if err == nil {
					successes.Add(1)
				}
				// Errors are expected while the server is down; the loop
				// must keep driving the redial path regardless.
			}
		}(w)
	}

	for round := 0; round < 3; round++ {
		time.Sleep(30 * time.Millisecond)
		srv.Shutdown()
		srv, err = server.New(server.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ln, err = net.Listen("tcp", addr)
		if err != nil {
			t.Fatalf("relisten round %d: %v", round, err)
		}
		go srv.Serve(ln)
		// The namespace is memory-only: recreate it on the fresh server.
		// Workers racing the recreate just see NotFound errors meanwhile.
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if err := cl.Create("g", 64, false); err == nil {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	time.Sleep(30 * time.Millisecond)
	close(stop)
	wg.Wait()
	srv.Shutdown()

	if successes.Load() == 0 {
		t.Fatal("no request ever succeeded across the restarts")
	}
}
