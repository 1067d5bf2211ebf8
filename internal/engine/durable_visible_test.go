package engine

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/coalesce"
	"repro/internal/core"
	"repro/internal/snapshot"
	"repro/internal/wal"
)

// TestDurableBeforeVisible pins the durable write path's ordering contract:
// an epoch is fsynced before anything outside the dispatcher can observe
// it. Concurrent submitters drive a small, churning graph (so most epochs
// merge or split components) through a durable engine, and every point
// where an epoch becomes visible checks the WAL's synced frontier:
//   - the replication tee (SubscribeEpochs) sees only synced records;
//   - every connectivity-diff callback (SubscribeDiffs) runs after the
//     labelling is published, so the epoch's seq must already be synced;
//   - the Hook runs after the epoch is applied and published;
//   - after every Apply returns, both its seq and AppliedSeq — the state
//     every read tier reflects — are at or below SyncedSeq.
//
// Moving the WAL Sync after the publish, the diff tee or the hook fails the
// corresponding check.
func TestDurableBeforeVisible(t *testing.T) {
	for _, codec := range []wal.Codec{wal.CodecV1, wal.CodecV2} {
		t.Run(codec.Name(), func(t *testing.T) {
			const n, writers, rounds = 48, 6, 60
			var ep atomic.Pointer[Engine]
			var diffs, hooks atomic.Int64
			check := func(where string, seq uint64) {
				if synced := ep.Load().SyncedSeq(); synced < seq {
					t.Errorf("%s observed epoch %d but the synced frontier is %d", where, seq, synced)
				}
			}
			e, err := New(core.New(n), Options{
				MaxDelay: 0,
				DurDir:   t.TempDir(),
				WALCodec: codec,
				Hook: func(ops []coalesce.Op, res []bool) {
					hooks.Add(1)
					check("Hook", ep.Load().WALSeq())
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			ep.Store(e)
			defer e.Close()
			cancelEpochs := e.SubscribeEpochs(func(r EpochRecord) { check("SubscribeEpochs", r.Seq) })
			defer cancelEpochs()
			cancelDiffs := e.SubscribeDiffs(func(seq uint64, d *snapshot.Diff) {
				diffs.Add(1)
				check("SubscribeDiffs", seq)
			})
			defer cancelDiffs()

			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w) + 1))
					for i := 0; i < rounds; i++ {
						_, seq, err := e.Apply(randOps(rng, n, 1+rng.Intn(6)))
						if err != nil {
							t.Error(err)
							return
						}
						synced := e.SyncedSeq()
						if seq > synced {
							t.Errorf("Apply acked epoch %d but the synced frontier is %d", seq, synced)
						}
						if applied := e.AppliedSeq(); applied > e.SyncedSeq() {
							t.Errorf("AppliedSeq %d is ahead of the synced frontier %d", applied, e.SyncedSeq())
						}
					}
				}(w)
			}
			wg.Wait()

			s := e.Stats()
			if diffs.Load() == 0 || hooks.Load() == 0 || s.WALRecords == 0 {
				t.Fatalf("workload exercised nothing: %d diffs, %d hooks, %d records", diffs.Load(), hooks.Load(), s.WALRecords)
			}
			if s.WALFsyncs != s.WALRecords {
				t.Fatalf("%d fsyncs for %d records, want one per record", s.WALFsyncs, s.WALRecords)
			}
			if codec == wal.CodecV2 && s.WALRawBytes <= s.WALBytes {
				t.Fatalf("v2 codec did not compress: %d encoded vs %d raw", s.WALBytes, s.WALRawBytes)
			}
		})
	}
}
