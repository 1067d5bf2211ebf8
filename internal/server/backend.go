package server

import (
	"errors"

	"repro/internal/coalesce"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/shard"
)

// backend is a namespace's connectivity structure: one engine, or k shard
// engines plus a boundary engine composed by a shard.Coordinator. Every
// request path, the drain and the stats talk to this interface; beyond it,
// a sharded namespace only lacks the event and replication hubs.
type backend interface {
	N() int
	// Apply commits one frame's ops and returns one result per op plus the
	// position the post-frame state reflects (zero when there is no single
	// position).
	Apply(ops []coalesce.Op) (bits []bool, seq uint64, err error)
	// ReadBatch answers connectivity pairs from the committed tier.
	ReadBatch(qs []graph.Edge) ([]bool, error)
	Query(req query.Request) (query.Result, error)
	// Checkpoint snapshots durable state and returns the path it names.
	Checkpoint() (string, error)
	AppliedSeq() uint64
	Flush()
	Close() error
	// Engines lists the pipelines: one for a plain namespace; shards
	// 0..k-1 then the boundary engine for a sharded one.
	Engines() []*engine.Engine
}

// plain is an unsharded namespace: a bare engine.
type plain struct{ *engine.Engine }

func (p plain) ReadBatch(qs []graph.Edge) ([]bool, error) { return p.ReadNowBatch(qs) }

func (p plain) Query(req query.Request) (query.Result, error) { return query.Run(p.Engine, req) }

func (p plain) Engines() []*engine.Engine { return []*engine.Engine{p.Engine} }

// sharded is a hash-partitioned namespace: writes and pair reads only. It
// has k+1 WAL streams and no single position, so its batch and read
// responses carry Seq 0 (clients cannot fence replica reads on it).
type sharded struct {
	*shard.Coordinator
	dir string // the namespace directory; "" when memory-only
}

func (s sharded) Apply(ops []coalesce.Op) ([]bool, uint64, error) {
	bits, err := s.Coordinator.Apply(ops)
	return bits, 0, err
}

func (s sharded) ReadBatch(qs []graph.Edge) ([]bool, error) { return s.ConnectedBatch(qs) }

// errShardedQuery is CmdQuery's refusal on a sharded namespace.
var errShardedQuery = errors.New("sharded namespaces serve no structural queries; read pairs with ReadNow or ReadRecent")

func (sharded) Query(query.Request) (query.Result, error) { return query.Result{}, errShardedQuery }

// Checkpoint snapshots every engine and names the namespace directory,
// which now holds one fresh checkpoint per engine.
func (s sharded) Checkpoint() (string, error) {
	if _, err := s.Coordinator.Checkpoint(); err != nil {
		return "", err
	}
	return s.dir, nil
}

func (s sharded) AppliedSeq() uint64 { return 0 }
