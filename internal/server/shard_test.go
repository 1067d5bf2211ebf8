package server

import (
	"bufio"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	conn "repro"
	"repro/client"
	"repro/internal/query"
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
	var sumOps, sumRecords uint64
	for _, sh := range st.Shards {
		sumOps += sh.Ops
		sumRecords += sh.WALRecords
	}
	if sumOps == 0 || st.Ops != sumOps {
		t.Fatalf("aggregate ops %d != per-shard sum %d", st.Ops, sumOps)
	}
	if sumRecords == 0 || st.WALRecords != sumRecords {
		t.Fatalf("aggregate WAL records %d != per-shard sum %d", st.WALRecords, sumRecords)
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

// firstResponse opens a dedicated connection, sends req and returns the
// first response frame: for a subscription, an epoch or a hello event when
// it was accepted, an error status when it was not.
func firstResponse(t *testing.T, addr string, req *wire.Request) *wire.Response {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	payload, err := wire.EncodeRequest(req)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	bw := bufio.NewWriter(c)
	if err := wire.WriteFrame(bw, payload); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	raw, err := wire.ReadFrame(bufio.NewReader(c))
	if err != nil {
		t.Fatalf("cmd %d on %s: read: %v", req.Cmd, req.NS, err)
	}
	resp, err := wire.DecodeResponse(raw)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return resp
}

// TestShardedRefusesQueryEventsAndReplication pins what a sharded
// namespace does not serve: every structural query kind in both modes,
// connectivity events, and replication streams each get a bad request
// with a fixed message, and so does a nonzero engine selector on a plain
// namespace's subscription. A plain durable namespace still streams, a
// memory-only one is still refused as not durable, and the sharded
// namespace still takes partition-routed writes and pair reads on the
// same connection afterwards.
func TestShardedRefusesQueryEventsAndReplication(t *testing.T) {
	const n = 64
	s, addr, serveErr := start(t, Options{DataDir: t.TempDir()})
	defer func() { s.Shutdown(); <-serveErr }()
	cl, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()
	if err := cl.Create("plain", n, true); err != nil {
		t.Fatal(err)
	}
	if err := cl.CreateSharded("sharded", n, true, 2); err != nil {
		t.Fatal(err)
	}
	if err := cl.Create("mem", n, false); err != nil {
		t.Fatal(err)
	}
	// An edge inside shard 0, one inside shard 1 and one across them, so
	// every engine of the sharded namespace has committed an epoch and the
	// plain namespace's stream opens with a catch-up epoch.
	byShard := [2][]int32{}
	for v := int32(0); v < n; v++ {
		p := client.Partition(v, 2)
		byShard[p] = append(byShard[p], v)
	}
	edges := []conn.Edge{
		{U: byShard[0][0], V: byShard[0][1]},
		{U: byShard[1][0], V: byShard[1][1]},
		{U: byShard[0][0], V: byShard[1][0]},
	}
	sharded, plain := cl.Namespace("sharded"), cl.Namespace("plain")
	if _, err := sharded.InsertEdges(edges); err != nil {
		t.Fatal(err)
	}
	if _, err := plain.InsertEdges(edges); err != nil {
		t.Fatal(err)
	}

	refuse := func(req *wire.Request, want string) {
		t.Helper()
		resp := firstResponse(t, addr, req)
		if resp.Status != wire.StatusBadRequest || resp.Msg != want {
			t.Fatalf("cmd %d on %s: status %d %q; want a bad request %q",
				req.Cmd, req.NS, resp.Status, resp.Msg, want)
		}
	}
	for kind := query.KindKHop; kind <= query.KindAggregate; kind++ {
		for _, lin := range []bool{false, true} {
			refuse(&wire.Request{ID: 1, Cmd: wire.CmdQuery, NS: "sharded", QKind: uint8(kind),
				Linearized: lin, U: edges[0].U, V: edges[2].V, K: 2},
				"sharded namespaces serve no structural queries; read pairs with ReadNow or ReadRecent")
		}
	}
	refuse(&wire.Request{ID: 1, Cmd: wire.CmdSubscribeEvents, NS: "sharded", Comps: true},
		`namespace "sharded" is sharded; sharded namespaces publish no connectivity events`)
	for _, engine := range []uint32{0, 2} {
		refuse(&wire.Request{ID: 1, Cmd: wire.CmdSubscribe, NS: "sharded", Shards: engine},
			`namespace "sharded" is sharded; sharded namespaces do not replicate`)
	}
	refuse(&wire.Request{ID: 1, Cmd: wire.CmdSubscribe, NS: "plain", Shards: 1},
		`namespace "plain": engine selector 1 on a subscription must be 0`)
	refuse(&wire.Request{ID: 1, Cmd: wire.CmdSubscribe, NS: "mem"},
		`namespace "mem" is not durable; only durable namespaces replicate`)

	if resp := firstResponse(t, addr, &wire.Request{ID: 1, Cmd: wire.CmdSubscribe, NS: "plain"}); resp.Status != wire.StatusOK || resp.EpochRaw == nil {
		t.Fatalf("plain shard 0: status %d (%s), epoch %v; want an epoch frame",
			resp.Status, resp.Msg, resp.EpochRaw != nil)
	}

	// Through the client's own connection the query refusal is an error,
	// and that connection and the sharded namespace keep serving after it:
	// a partition-routed write, then both pair-read tiers.
	if _, err := sharded.ComponentSize(0); err == nil || !strings.Contains(err.Error(), "serve no structural queries") {
		t.Fatalf("ComponentSize on a sharded namespace: %v; want the refusal", err)
	}
	u, v := byShard[1][1], byShard[0][1]
	if got, err := sharded.DoSharded(2, []conn.Op{{Kind: conn.OpInsert, U: u, V: v}}); err != nil || !got[0] {
		t.Fatalf("DoSharded after the refusals = %v, %v; want the insert credited", got, err)
	}
	for _, read := range []func(u, v int32) (bool, error){sharded.ReadNow, sharded.ReadRecent} {
		if ok, err := read(byShard[0][1], byShard[1][1]); err != nil || !ok {
			t.Fatalf("pair read after the refusals = %v, %v; want connected", ok, err)
		}
	}
}
