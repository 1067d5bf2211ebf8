package wal

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/graph"
)

// TestChaosTornAppendRecovery: an armed pre-fsync torn write leaves a
// partial frame on disk; reopening truncates exactly the torn bytes and the
// log resumes at the right seq — acked records are untouched.
func TestChaosTornAppendRecovery(t *testing.T) {
	defer chaos.Disarm()
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Open(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 2; seq++ {
		if _, err := l.Append(Record{Seq: seq, Ins: []graph.Edge{{U: 0, V: int32(seq)}}}); err != nil {
			t.Fatal(err)
		}
	}
	// Hit counters are plan-scoped: this plan's first observed append tears.
	if err := chaos.Arm(1, chaos.SiteWALAppendPreFsync+":torn@nth=1"); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(Record{Seq: 3, Ins: []graph.Edge{{U: 0, V: 3}}}); err == nil {
		t.Fatal("torn append reported success")
	}
	chaos.Disarm()
	// The torn frame is on disk past the two durable records.
	clean, _ := l.Size()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() <= clean-1 {
		t.Fatalf("no torn bytes on disk: file %d bytes", st.Size())
	}
	l.Close()

	l, err = Open(path, 16)
	if err != nil {
		t.Fatalf("reopen after torn append: %v", err)
	}
	defer l.Close()
	if l.LastSeq() != 2 {
		t.Fatalf("recovered LastSeq = %d, want 2", l.LastSeq())
	}
	if _, err := l.Append(Record{Seq: 3, Ins: []graph.Edge{{U: 1, V: 2}}}); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
}

// TestChaosOpenTornTail: the reopen hook appends garbage past the valid
// records; Open must truncate it and surface every durable record.
func TestChaosOpenTornTail(t *testing.T) {
	defer chaos.Disarm()
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Open(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 5; seq++ {
		if _, err := l.Append(Record{Seq: seq, Ins: []graph.Edge{{U: 0, V: int32(seq % 16)}}}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	if err := chaos.Arm(1, chaos.SiteWALOpenTornTail+":torn@times=1"); err != nil {
		t.Fatal(err)
	}
	l, err = Open(path, 16)
	chaos.Disarm()
	if err != nil {
		t.Fatalf("open with injected torn tail: %v", err)
	}
	defer l.Close()
	if l.LastSeq() != 5 {
		t.Fatalf("LastSeq = %d after torn-tail recovery, want 5", l.LastSeq())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Scan(f, nil)
	f.Close()
	if err != nil || res.Torn || res.Records != 5 {
		t.Fatalf("post-recovery scan: res=%+v err=%v", res, err)
	}
}

// TestChaosPostFsyncDurable: a post-fsync failure reports an error for a
// record that IS durable — the "crash between fsync and ack" image. The
// reopened log must contain it.
func TestChaosPostFsyncDurable(t *testing.T) {
	defer chaos.Disarm()
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Open(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := chaos.Arm(1, chaos.SiteWALAppendPostFsync+":fail@nth=1"); err != nil {
		t.Fatal(err)
	}
	_, err = l.Append(Record{Seq: 1, Ins: []graph.Edge{{U: 3, V: 4}}})
	chaos.Disarm()
	if err == nil {
		t.Fatal("post-fsync injection reported success")
	}
	l.Close()
	l, err = Open(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.LastSeq() != 1 {
		t.Fatalf("durable-but-unacked record lost: LastSeq = %d, want 1", l.LastSeq())
	}
}

// TestChaosDelayStallsWithoutFailing: a delay rule at either WAL site is a
// slow volume, not a crash — the append and the sync stall for the rule's
// duration, then succeed, and the record is durable and reopenable.
func TestChaosDelayStallsWithoutFailing(t *testing.T) {
	defer chaos.Disarm()
	const stall = 5 * time.Millisecond
	for _, site := range []string{chaos.SiteWALAppendPreFsync, chaos.SiteWALAppendPostFsync} {
		t.Run(site, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal.log")
			l, err := Open(path, 16)
			if err != nil {
				t.Fatal(err)
			}
			if err := chaos.Arm(1, site+":delay="+stall.String()); err != nil {
				t.Fatal(err)
			}
			t0 := time.Now()
			_, err = l.Append(Record{Seq: 1, Ins: []graph.Edge{{U: 3, V: 4}}})
			took := time.Since(t0)
			chaos.Disarm()
			if err != nil {
				t.Fatalf("delayed append failed: %v", err)
			}
			if took < stall {
				t.Fatalf("append took %v, want a stall of at least %v", took, stall)
			}
			if l.SyncedSeq() != 1 || l.Fsyncs() != 1 {
				t.Fatalf("after delayed append: SyncedSeq=%d Fsyncs=%d, want 1/1", l.SyncedSeq(), l.Fsyncs())
			}
			l.Close()
			l, err = Open(path, 16)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			if l.LastSeq() != 1 {
				t.Fatalf("delayed record lost: LastSeq = %d, want 1", l.LastSeq())
			}
		})
	}
}
