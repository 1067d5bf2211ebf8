// Crash recovery: rebuild a core.Conn from a durability directory — newest
// valid checkpoint plus a replay of the WAL tail. This is the read side of
// the write pipeline in engine.go; the public conn.Restore and the shard
// coordinator's per-shard restore both delegate here.
//
// The recovery invariant (proven by the conn package's crash-recovery
// harness): after a crash at ANY instant, Restore yields exactly the state
// of some prefix of the committed epoch sequence that includes every epoch
// whose caller was unblocked — acked ⇒ replayed. Epochs that were logged
// but not yet acknowledged may or may not survive (both outcomes are
// correct: the caller never saw a commit); torn partial records are
// detected by CRC and discarded.

package engine

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/wal"
)

// ErrNoDurableState is returned by Restore when the directory holds neither
// a checkpoint nor a write-ahead log.
var ErrNoDurableState = errors.New("no durable state in directory")

// Restore rebuilds a structure from a durability directory previously
// written by a durable Engine: it loads the newest readable checkpoint (see
// checkpoint.Load), then replays the write-ahead log's tail — records with
// sequence numbers past the checkpoint — in commit order. A torn WAL tail
// from a crash mid-append is detected by CRC and ignored, exactly as the
// durability contract allows: the torn epoch never acknowledged. Older
// directories may also hold delta-*.dckpt files from the retired
// incremental checkpoints; they are ignored, which loses nothing because
// deltas never truncated the WAL — the newest full checkpoint plus the log
// covers them.
//
// mk constructs the empty structure for the vertex count recorded in the
// durable state (callers use it to apply algorithm options). The returned
// structure is ready to be wrapped in a new durable Engine on the same
// directory; the log continues where it left off. Errors are returned
// unwrapped (no directory context) — callers add their own.
func Restore(dir string, mk func(n int) *core.Conn) (*core.Conn, error) {
	snap, haveSnap, err := checkpoint.Load(dir)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(filepath.Join(dir, WALFileName))
	haveWAL := err == nil
	if haveWAL {
		// Read-only handle: a close failure cannot lose data, but the
		// drop is acknowledged rather than silent.
		defer func() { _ = f.Close() }()
		// A file shorter than the header (crash during initial creation)
		// can hold no record; treat it as absent rather than corrupt.
		if st, err := f.Stat(); err != nil {
			return nil, err
		} else if st.Size() < wal.HeaderLen {
			haveWAL = false
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	if !haveSnap && !haveWAL {
		return nil, fmt.Errorf("%w: %s", ErrNoDurableState, dir)
	}

	// Cross-check the WAL header against the checkpoint BEFORE building or
	// replaying anything: the universes must agree, and the log's
	// checkpoint floor must be covered by the snapshot we managed to load —
	// a floor above it means the records proving the gap were truncated
	// away after a checkpoint we can no longer read, i.e. data loss that
	// must surface as an error, not as a silently shrunken graph.
	n := snap.N
	if haveWAL {
		walN, baseSeq, err := wal.ReadHeader(f)
		if err != nil {
			return nil, err
		}
		if haveSnap && walN != snap.N {
			return nil, fmt.Errorf("checkpoint has n=%d but WAL has n=%d", snap.N, walN)
		}
		if !haveSnap && baseSeq > 0 {
			return nil, fmt.Errorf("WAL was truncated at a checkpoint (seq %d) but no readable checkpoint remains", baseSeq)
		}
		if haveSnap && baseSeq > snap.Seq {
			return nil, fmt.Errorf("WAL floor is seq %d but the newest readable checkpoint is seq %d", baseSeq, snap.Seq)
		}
		n = walN
		if _, err := f.Seek(0, 0); err != nil {
			return nil, err
		}
	}

	c := mk(n)
	if haveSnap {
		c.BatchInsert(snap.Edges)
	}
	if haveWAL {
		replay := func(r wal.Record) error {
			if haveSnap && r.Seq <= snap.Seq {
				// Already captured by the checkpoint: the crash happened
				// after the snapshot was durable but before the log was
				// truncated.
				return nil
			}
			c.BatchInsert(r.Ins)
			c.BatchDelete(r.Del)
			return nil
		}
		if _, err := wal.Scan(f, replay); err != nil {
			return nil, err
		}
	}
	return c, nil
}
