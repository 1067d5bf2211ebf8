package server

import (
	"math/rand"
	"runtime"
	"testing"

	conn "repro"
	"repro/client"
	"repro/internal/unionfind"
	"repro/internal/wire"
)

// shardOracle mirrors a sharded namespace's batch semantics sequentially:
// inserts credit first staging, deletes run against the post-insert set,
// queries answer the post-update state.
type shardOracle struct {
	n     int
	edges map[[2]int32]bool
}

func newShardOracle(n int) *shardOracle {
	return &shardOracle{n: n, edges: map[[2]int32]bool{}}
}

func canon(u, v int32) [2]int32 {
	if u > v {
		u, v = v, u
	}
	return [2]int32{u, v}
}

func (o *shardOracle) apply(ops []conn.Op) []bool {
	res := make([]bool, len(ops))
	for i, op := range ops {
		if op.Kind != conn.OpInsert || op.U == op.V {
			continue
		}
		if k := canon(op.U, op.V); !o.edges[k] {
			o.edges[k] = true
			res[i] = true
		}
	}
	for i, op := range ops {
		if op.Kind != conn.OpDelete || op.U == op.V {
			continue
		}
		if k := canon(op.U, op.V); o.edges[k] {
			delete(o.edges, k)
			res[i] = true
		}
	}
	var uf *unionfind.UF
	for i, op := range ops {
		if op.Kind != conn.OpQuery {
			continue
		}
		if uf == nil {
			uf = o.uf()
		}
		res[i] = uf.Connected(op.U, op.V)
	}
	return res
}

func (o *shardOracle) uf() *unionfind.UF {
	uf := unionfind.New(o.n)
	for k := range o.edges {
		uf.Union(k[0], k[1])
	}
	return uf
}

func randShardOps(rng *rand.Rand, n, count int) []conn.Op {
	ops := make([]conn.Op, count)
	for i := range ops {
		kind := conn.OpInsert
		switch r := rng.Intn(100); {
		case r < 45:
		case r < 75:
			kind = conn.OpDelete
		default:
			kind = conn.OpQuery
		}
		ops[i] = conn.Op{Kind: kind, U: int32(rng.Intn(n)), V: int32(rng.Intn(n))}
	}
	return ops
}

// TestShardedLoopback drives a durable sharded namespace end to end over the
// wire: create with an explicit shard count, mixed randomized traffic
// checked against a sequential oracle (plain frames and partition-routed
// DoSharded frames), per-shard stats, a wire checkpoint, graceful drain,
// restart, and per-shard restore — every acked write visible afterwards.
func TestShardedLoopback(t *testing.T) {
	const (
		nVerts = 128
		shards = 4
	)
	rounds := 60
	if testing.Short() {
		rounds = 20
	}

	data := t.TempDir()
	s, addr, serveErr := start(t, Options{DataDir: data})

	cl, err := client.Dial(addr, client.WithConns(2))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if err := cl.CreateSharded("social", nVerts, true, shards); err != nil {
		t.Fatalf("create sharded: %v", err)
	}

	infos, err := cl.List()
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	if len(infos) != 1 || infos[0].Shards != shards || !infos[0].Durable || infos[0].N != nVerts {
		t.Fatalf("list = %+v, want one durable namespace with %d shards", infos, shards)
	}

	ns := cl.Namespace("social")
	o := newShardOracle(nVerts)
	rng := newRng(4242)
	for r := 0; r < rounds; r++ {
		ops := randShardOps(rng, nVerts, 1+rng.Intn(24))
		var got []bool
		// Alternate the plain single-frame path with the client's
		// partition-routed path: both must agree with the oracle.
		if r%2 == 0 {
			got, err = ns.Do(ops)
		} else {
			got, err = ns.DoSharded(shards, ops)
		}
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		want := o.apply(ops)
		for i := range ops {
			if got[i] != want[i] {
				t.Fatalf("round %d op %d (%+v): got %v, oracle says %v",
					r, i, ops[i], got[i], want[i])
			}
		}
	}

	// Read tiers answer the same composition.
	uf := o.uf()
	var qs []conn.Edge
	for u := int32(0); u < nVerts; u += 3 {
		for v := u + 1; v < nVerts; v += 5 {
			qs = append(qs, conn.Edge{U: u, V: v})
		}
	}
	for _, tier := range []func([]conn.Edge) ([]bool, error){ns.ReadNowBatch, ns.ReadRecentBatch} {
		bits, err := tier(qs)
		if err != nil {
			t.Fatalf("read tier: %v", err)
		}
		for i, q := range qs {
			if want := uf.Connected(q.U, q.V); bits[i] != want {
				t.Fatalf("read {%d,%d}: got %v want %v", q.U, q.V, bits[i], want)
			}
		}
	}

	// Stats carry the per-shard breakdown: k shard engines + the boundary.
	st, err := ns.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if len(st.Shards) != shards+1 {
		t.Fatalf("stats has %d shard entries, want %d", len(st.Shards), shards+1)
	}
	var sumOps uint64
	for _, sh := range st.Shards {
		sumOps += sh.Ops
	}
	if sumOps == 0 || st.Ops != sumOps {
		t.Fatalf("aggregate ops %d != per-shard sum %d", st.Ops, sumOps)
	}

	// A wire checkpoint lands on every shard.
	if _, err := ns.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	// More traffic after the checkpoint so restore replays WAL tails too.
	for r := 0; r < rounds/2; r++ {
		ops := randShardOps(rng, nVerts, 1+rng.Intn(12))
		got, err := ns.Do(ops)
		if err != nil {
			t.Fatalf("post-checkpoint round %d: %v", r, err)
		}
		want := o.apply(ops)
		for i := range ops {
			if got[i] != want[i] {
				t.Fatalf("post-checkpoint round %d op %d: got %v want %v", r, i, got[i], want[i])
			}
		}
	}

	cl.Close()
	s.Shutdown()
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}

	// Restart: the shard meta file pins (k, n) and every shard restores from
	// its own checkpoint + WAL tail.
	s2, addr2, serveErr2 := start(t, Options{DataDir: data})
	cl2, err := client.Dial(addr2)
	if err != nil {
		t.Fatalf("redial: %v", err)
	}
	infos, err = cl2.List()
	if err != nil {
		t.Fatalf("list after restart: %v", err)
	}
	if len(infos) != 1 || infos[0].Shards != shards {
		t.Fatalf("restored list = %+v, want sharded namespace back", infos)
	}
	ns2 := cl2.Namespace("social")
	uf = o.uf()
	var all []conn.Edge
	for u := int32(0); u < nVerts; u++ {
		for v := u + 1; v < nVerts; v++ {
			all = append(all, conn.Edge{U: u, V: v})
		}
	}
	bits, err := ns2.ReadNowBatch(all)
	if err != nil {
		t.Fatalf("read after restore: %v", err)
	}
	for i, q := range all {
		if want := uf.Connected(q.U, q.V); bits[i] != want {
			t.Fatalf("after restore {%d,%d}: got %v want %v", q.U, q.V, bits[i], want)
		}
	}
	cl2.Close()
	s2.Shutdown()
	<-serveErr2
}

// TestShardedDefaultAndDrop covers the -shards server default (Create
// without an explicit count inherits Options.DefaultShards) and the drop
// path for sharded namespaces (memory-only and durable).
func TestShardedDefaultAndDrop(t *testing.T) {
	data := t.TempDir()
	s, addr, serveErr := start(t, Options{DataDir: data, DefaultShards: 2})
	defer func() { s.Shutdown(); <-serveErr }()

	cl, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()

	// Plain Create inherits the server default.
	if err := cl.Create("a", 64, true); err != nil {
		t.Fatalf("create: %v", err)
	}
	// An explicit count overrides it; 1 means unsharded.
	if err := cl.CreateSharded("b", 64, false, 1); err != nil {
		t.Fatalf("create unsharded: %v", err)
	}
	infos, err := cl.List()
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	byName := map[string]client.NamespaceInfo{}
	for _, in := range infos {
		byName[in.Name] = in
	}
	if byName["a"].Shards != 2 {
		t.Fatalf("namespace a has %d shards, want server default 2", byName["a"].Shards)
	}
	if byName["b"].Shards != 0 {
		t.Fatalf("namespace b has %d shards, want unsharded", byName["b"].Shards)
	}

	nsA := cl.Namespace("a")
	if _, err := nsA.Insert(1, 2); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if ok, err := nsA.Connected(1, 2); err != nil || !ok {
		t.Fatalf("connected = %v, %v", ok, err)
	}
	for _, name := range []string{"a", "b"} {
		if err := cl.Drop(name); err != nil {
			t.Fatalf("drop %q: %v", name, err)
		}
	}
	if infos, err = cl.List(); err != nil || len(infos) != 0 {
		t.Fatalf("list after drops = %+v, %v", infos, err)
	}
}

// TestShardedReadFramesReuseIndex checks that read-only frames on a sharded
// namespace share one composed labelling: after a write, the first read
// frame composes it (4n bytes), and the read frames after it allocate far
// less than one more compose each.
func TestShardedReadFramesReuseIndex(t *testing.T) {
	const n = 1 << 16
	s, err := New(Options{})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	defer s.Shutdown()
	do := func(req *wire.Request) *wire.Response {
		t.Helper()
		resp := s.handle(req)
		if resp.Status != wire.StatusOK {
			t.Fatalf("cmd %d: status %d: %s", req.Cmd, resp.Status, resp.Msg)
		}
		return resp
	}
	do(&wire.Request{Cmd: wire.CmdCreate, NS: "a", N: n, Shards: 2})
	do(&wire.Request{Cmd: wire.CmdBatch, NS: "a", Ops: []wire.Op{
		{Kind: wire.KindInsert, U: 1, V: 2}, {Kind: wire.KindInsert, U: 2, V: 3},
	}})
	pairs := []wire.Pair{{U: 1, V: 3}, {U: 1, V: 4}}
	do(&wire.Request{Cmd: wire.CmdReadNow, NS: "a", Pairs: pairs})

	const frames = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < frames; i++ {
		cmd := wire.CmdReadNow
		if i%2 == 1 {
			cmd = wire.CmdReadRecent
		}
		resp := do(&wire.Request{Cmd: cmd, NS: "a", Pairs: pairs})
		if len(resp.Bits) != 2 || !resp.Bits[0] || resp.Bits[1] {
			t.Fatalf("frame %d: bits %v, want [true false]", i, resp.Bits)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / frames; per >= n {
		t.Fatalf("read frames allocate %d bytes each; a compose is %d, so they recompose", per, 4*n)
	}
}
