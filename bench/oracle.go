package main

import (
	"fmt"
	"math/rand/v2"
	"os"

	conn "repro"
	"repro/internal/unionfind"
)

const oraclePairs = 4096

// oracle holds the expected end state of a run: a union-find over the edges
// the acked stream left live, and a seeded sample of pairs to compare on.
type oracle struct {
	uf    *unionfind.UF
	pairs []conn.Edge
}

func newOracle(cfg config, live []conn.Edge) *oracle {
	o := &oracle{uf: unionfind.New(cfg.n), pairs: make([]conn.Edge, oraclePairs)}
	for _, e := range live {
		o.uf.Union(e.U, e.V)
	}
	rng := rand.New(rand.NewPCG(cfg.seed, 1<<32))
	for i := range o.pairs {
		o.pairs[i] = conn.Edge{U: rng.Int32N(int32(cfg.n)), V: rng.Int32N(int32(cfg.n))}
	}
	return o
}

// check asks the system under test for the sample and charges every
// disagreement with the union-find to t.
func (o *oracle) check(t *tally, ask func([]conn.Edge) ([]bool, error)) {
	got, err := ask(o.pairs)
	if !t.checkReads(len(o.pairs), got, err) {
		fmt.Fprintln(os.Stderr, "oracle: read failed:", err)
		return
	}
	bad := 0
	for i, p := range o.pairs {
		if got[i] != o.uf.Connected(p.U, p.V) {
			bad++
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "oracle: %d of %d pairs disagree with the union-find replay\n", bad, len(o.pairs))
		t.failed.Add(int64(bad))
	}
}
