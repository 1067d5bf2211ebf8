package engine

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
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
// corresponding check. It runs over a fresh (v2) log and over a seeded
// legacy v1 log, which keeps appending v1 records.
func TestDurableBeforeVisible(t *testing.T) {
	for _, tc := range []struct {
		name  string
		codec wal.Codec // the codec the log is appended in
	}{
		{"fresh", wal.CodecV2},
		{"legacy-v1", wal.CodecV1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n, writers, rounds = 48, 6, 60
			var ep atomic.Pointer[Engine]
			var diffs, hooks atomic.Int64
			check := func(where string, seq uint64) {
				if synced := ep.Load().SyncedSeq(); synced < seq {
					t.Errorf("%s observed epoch %d but the synced frontier is %d", where, seq, synced)
				}
			}
			dir := t.TempDir()
			if tc.codec == wal.CodecV1 {
				seedLegacyV1WAL(t, dir, n)
			}
			e, err := New(core.New(n), Options{
				DurDir: dir,
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
			if got := e.dur.log.Codec(); got != tc.codec {
				t.Fatalf("log opened in codec %d, want %d", got.Version(), tc.codec.Version())
			}
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
			if tc.codec == wal.CodecV2 && s.WALRawBytes <= s.WALBytes {
				t.Fatalf("v2 codec did not compress: %d encoded vs %d raw", s.WALBytes, s.WALRawBytes)
			}
		})
	}
}

// seedLegacyV1WAL writes an empty legacy log into dir: the documented WAL
// header (magic, version byte 1, n, baseSeq 0, crc32c) an older build
// created, so an engine opened on dir keeps appending v1 records.
func seedLegacyV1WAL(t *testing.T, dir string, n int) {
	t.Helper()
	hdr := append([]byte("connwal\x01"), make([]byte, 16)...)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(n))
	binary.LittleEndian.PutUint32(hdr[20:], crc32.Checksum(hdr[:20], crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(filepath.Join(dir, WALFileName), hdr, 0o644); err != nil {
		t.Fatal(err)
	}
}
