package main

import (
	"math/rand/v2"

	conn "repro"
)

// Load shape shared by every workload (see README.md). The smoke path shrinks
// the universe and the windows, never the frame shapes.
const (
	fullN        = 65536
	smokeN       = 4096
	numConns     = 2
	driversPerCn = 4
	numDrivers   = numConns * driversPerCn

	coreBatch      = 4096 // edges (pairs) per conn.Graph call in core-window
	coreQueryCalls = 8    // ConnectedBatch calls per core-window round

	churnIns   = 7 // per 16-op churn frame
	churnDel   = 7
	churnQry   = 2
	churnOps   = churnIns + churnDel + churnQry
	readPairs  = 256 // pairs per read-tier frame
	readPeriod = 10  // server-read-mostly: 1 of every readPeriod frames is churn
	preloadOps = 256 // inserts per preload frame
)

// gen is one driver's lazy op source. A driver owns the slice of the edge
// space {u,v : (u/2 + v/2) mod drivers == id}, which is disjoint from every
// other driver's, and keeps a FIFO of the edges it has inserted and not yet
// deleted. So an insert always names an absent edge, a delete always names a
// present one, and the live edge count is constant once the window is full.
// Ownership ignores the low bit because shard.Partition at k=2 is exactly that
// bit: every driver's edges are then intra-shard or cross-shard at random.
type gen struct {
	rng     *rand.Rand
	n       int32
	drivers int32
	id      int32
	ring    []conn.Edge // FIFO of live edges, oldest at head
	head    int
	count   int
	live    map[uint64]struct{}
}

// newGen seeds driver id's generator. window is the steady-state live edge
// count; slack is the most edges inserted before the matching deletes.
func newGen(seed uint64, id, drivers, n, window, slack int) *gen {
	return &gen{
		rng:     rand.New(rand.NewPCG(seed, uint64(id))),
		n:       int32(n),
		drivers: int32(drivers),
		id:      int32(id),
		ring:    make([]conn.Edge, window+slack),
		live:    make(map[uint64]struct{}, window+slack),
	}
}

// fresh returns an edge of this driver's slice that is not live, and makes
// it the newest live edge.
func (g *gen) fresh() conn.Edge {
	for {
		u := g.rng.Int32N(g.n)
		r := ((g.id-u/2)%g.drivers + g.drivers) % g.drivers
		v := (g.rng.Int32N(g.n/2/g.drivers)*g.drivers+r)*2 + g.rng.Int32N(2)
		if u == v {
			continue
		}
		e := conn.Edge{U: u, V: v}
		k := e.Key()
		if _, dup := g.live[k]; dup {
			continue
		}
		g.live[k] = struct{}{}
		g.ring[(g.head+g.count)%len(g.ring)] = e
		g.count++
		return e
	}
}

// oldest removes and returns the oldest live edge.
func (g *gen) oldest() conn.Edge {
	e := g.ring[g.head]
	g.head = (g.head + 1) % len(g.ring)
	g.count--
	delete(g.live, e.Key())
	return e
}

// pair returns a uniformly random query pair over the whole universe.
func (g *gen) pair() conn.Edge {
	return conn.Edge{U: g.rng.Int32N(g.n), V: g.rng.Int32N(g.n)}
}

// liveEdges returns the live edges, oldest first.
func (g *gen) liveEdges() []conn.Edge {
	out := make([]conn.Edge, g.count)
	for i := range out {
		out[i] = g.ring[(g.head+i)%len(g.ring)]
	}
	return out
}

// preloadFrame fills ops with up to len(ops) fresh inserts, stopping when the
// window holds want edges; it returns the filled prefix.
func (g *gen) preloadFrame(ops []conn.Op, want int) []conn.Op {
	k := 0
	for k < len(ops) && g.count < want {
		e := g.fresh()
		ops[k] = conn.Op{Kind: conn.OpInsert, U: e.U, V: e.V}
		k++
	}
	return ops[:k]
}

// churnFrame fills ops (length churnOps) with 7 inserts of new edges, 7
// deletes of this driver's oldest edges and 2 linearized queries.
func (g *gen) churnFrame(ops []conn.Op) {
	for i := 0; i < churnIns; i++ {
		e := g.fresh()
		ops[i] = conn.Op{Kind: conn.OpInsert, U: e.U, V: e.V}
	}
	for i := churnIns; i < churnIns+churnDel; i++ {
		e := g.oldest()
		ops[i] = conn.Op{Kind: conn.OpDelete, U: e.U, V: e.V}
	}
	for i := churnIns + churnDel; i < churnOps; i++ {
		e := g.pair()
		ops[i] = conn.Op{Kind: conn.OpQuery, U: e.U, V: e.V}
	}
}

// pairs fills qs with random query pairs.
func (g *gen) pairs(qs []conn.Edge) {
	for i := range qs {
		qs[i] = g.pair()
	}
}

// freshBatch fills es with fresh edges; oldestBatch with the oldest live ones.
func (g *gen) freshBatch(es []conn.Edge) {
	for i := range es {
		es[i] = g.fresh()
	}
}

func (g *gen) oldestBatch(es []conn.Edge) {
	for i := range es {
		es[i] = g.oldest()
	}
}
