// Package repl implements WAL-shipping replication for engine-backed
// namespaces, the read-scaling subsystem the epoch pipeline was built to
// enable: the durable dispatcher already serializes every mutation into a
// totally ordered, CRC-checked, replayable epoch stream (internal/wal), so
// scaling reads horizontally is a matter of shipping that stream to
// follower processes and letting them serve the bounded-stale read tiers.
//
// Primary side (Hub, one per durable engine): a subscriber hook on the
// engine tees every fsynced epoch into per-follower buffers, and Stream
// serves one follower — catch-up first (the newest on-disk checkpoint, if
// the follower's resume point predates the WAL floor, then the WAL tail
// read from disk with a wal.Tail cursor), then the live buffer. Catch-up
// never blocks writers: it reads checkpoint and log files with independent
// descriptors while the dispatcher keeps appending — and it is bounded by
// the source's synced frontier (Source.SyncedSeq), so a record in the
// window between its append and its fsync never reaches a follower.
// Every epoch ships exactly as logged — the record payload plus the log's
// codec version byte, one wire epochraw frame — and the follower decodes
// it through the codec registry, so records cross the wire unchanged. A
// follower that cannot drain its buffer as fast as the primary commits is
// dropped (the dispatcher must never block on a slow follower); it
// reconnects and re-enters catch-up from its last applied seq.
//
// Follower side (RunFollower): dial the primary, subscribe from the last
// applied seq, apply each frame through an Applier (snapshots replace all
// state, epochs apply atomically in seq order), and reconnect with
// exponential backoff when the stream breaks — re-running catch-up
// automatically, because catch-up is just what the primary does with a
// stale resume point.
package repl

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"

	conn "repro"
	"repro/internal/chaos"
	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/wal"
	"repro/internal/wire"
)

// subscriberBuffer is the per-follower live-epoch buffer: how far a
// follower may lag behind the dispatcher (in epochs) before the hub drops
// it back to catch-up. A variable so tests can force the overflow path.
var subscriberBuffer = 8192

// snapshotChunk bounds the edges per snapshot frame so a full-state
// transfer of a large graph never exceeds the wire's frame limit.
const snapshotChunk = 1 << 20

// ErrStopped is returned by Stream when the hub is stopped (namespace
// dropped or server draining).
var ErrStopped = errors.New("repl: hub stopped")

// ErrLagging is returned by Stream when the follower's live buffer
// overflowed: the follower must reconnect and re-run catch-up.
var ErrLagging = errors.New("repl: follower too slow, dropped from live stream")

// Source is the primary-side surface the Hub needs from a durable engine
// (*engine.Engine; one per plain durable namespace, as sharded namespaces
// do not replicate): the epoch tee, the fsynced frontier bounding what may be
// shipped, and the truncation floor bounding what is still on disk.
type Source interface {
	SubscribeEpochs(fn func(conn.EpochRecord)) (cancel func())
	SyncedSeq() uint64
	WALFloor() uint64
}

// Frame is one element of a subscription stream: exactly one of Snapshot
// and EpochRaw is set. Every epoch ships as EpochRaw, in the encoding the
// primary's WAL holds it in.
type Frame struct {
	Snapshot *wire.SnapshotBody
	EpochRaw *wire.EpochRawBody
}

// Hub is the primary-side replication fan-out for one durable engine.
// Construct with NewHub; Stop it before closing the engine.
type Hub struct {
	src     Source
	dir     string
	walPath string
	n       int

	mu          sync.Mutex
	subs        map[*subscriber]struct{}
	stopped     bool
	lastShipped uint64

	cancel func()
}

// subscriber is one connected follower's live buffer.
type subscriber struct {
	ch      chan conn.EpochRecord
	dropped bool
	lagging bool
	sent    atomic.Uint64 // last seq handed to the follower's connection
}

// NewHub registers an epoch subscriber on src and returns a hub serving
// followers of the namespace whose durability directory is dir and whose
// vertex universe is n.
func NewHub(src Source, dir string, n int) *Hub {
	h := &Hub{
		src:     src,
		dir:     dir,
		walPath: filepath.Join(dir, engine.WALFileName),
		n:       n,
		subs:    make(map[*subscriber]struct{}),
	}
	h.cancel = src.SubscribeEpochs(h.tee) //conn:dispatcher-entry — tee runs on the source's dispatcher goroutine
	return h
}

// tee runs on the source's dispatcher goroutine: fan the epoch out to
// every follower buffer without ever blocking — a follower whose buffer is
// full is dropped to catch-up instead.
//
//conn:dispatcher-only
func (h *Hub) tee(rec conn.EpochRecord) {
	h.mu.Lock()
	h.lastShipped = rec.Seq
	for s := range h.subs {
		select {
		case s.ch <- rec:
		default:
			s.lagging = true
			h.drop(s)
		}
	}
	h.mu.Unlock()
}

// drop removes a subscriber and closes its buffer. Caller holds h.mu.
func (h *Hub) drop(s *subscriber) {
	if s.dropped {
		return
	}
	s.dropped = true
	delete(h.subs, s)
	close(s.ch)
}

// Stop unregisters the epoch hook and terminates every live stream. Safe
// to call more than once; Stream calls after Stop fail fast.
func (h *Hub) Stop() {
	h.mu.Lock()
	if !h.stopped {
		h.stopped = true
		for s := range h.subs {
			h.drop(s)
		}
	}
	h.mu.Unlock()
	h.cancel()
}

// Stats reports the hub's replication counters: connected subscribers, the
// last epoch seq teed to them, and the largest per-subscriber lag (in
// epochs) between that seq and what has actually been written to the
// follower's connection.
func (h *Hub) Stats() (subscribers int, lastShipped, maxLag uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for s := range h.subs {
		if sent := s.sent.Load(); h.lastShipped > sent && h.lastShipped-sent > maxLag {
			maxLag = h.lastShipped - sent
		}
	}
	return len(h.subs), h.lastShipped, maxLag
}

// Stream serves one follower that wants every epoch after fromSeq. send is
// called sequentially from this goroutine with catch-up frames first
// (snapshot chunks and disk-read WAL tail records, when needed), then live
// epochs, and blocks the stream while the follower's connection accepts the
// write — backpressure lands on the per-follower buffer, never on the
// dispatcher. Stream returns when send fails (connection gone), the hub is
// stopped, the follower lags past its buffer, or the on-disk state needed
// for catch-up cannot be read.
func (h *Hub) Stream(fromSeq uint64, send func(Frame) error) error {
	sub := &subscriber{ch: make(chan conn.EpochRecord, subscriberBuffer)}
	h.mu.Lock()
	if h.stopped {
		h.mu.Unlock()
		return ErrStopped
	}
	h.subs[sub] = struct{}{}
	h.mu.Unlock()
	defer func() {
		h.mu.Lock()
		h.drop(sub)
		h.mu.Unlock()
	}()

	sent, err := h.catchUp(fromSeq, sub, send)
	if err != nil {
		return err
	}

	// Live phase: the buffer was registered before catch-up read a byte, so
	// together they cover every epoch — overlap is deduped by seq, and a gap
	// is impossible unless the log itself lost records mid-file.
	for rec := range sub.ch {
		if rec.Seq <= sent {
			continue
		}
		if rec.Seq != sent+1 {
			return fmt.Errorf("repl: stream gap: shipped through seq %d, next live epoch is %d", sent, rec.Seq)
		}
		if err := h.send(sub, send, liveFrame(rec)); err != nil {
			return err
		}
		sent = rec.Seq
	}
	if sub.lagging {
		return ErrLagging
	}
	return ErrStopped
}

// send forwards one frame and records the follower's progress for Stats.
func (h *Hub) send(sub *subscriber, send func(Frame) error, f Frame) error {
	if flt := chaos.Inject(chaos.SiteReplStreamSend); flt != nil {
		if flt.Action == chaos.ActDelay {
			// A stalled pump: the dispatcher keeps teeing into the live
			// buffer meanwhile, so a long enough stall overflows it into
			// ErrLagging — the slow-follower drop path.
			flt.Sleep()
		} else {
			return flt.Err() // stream severed mid-flight; follower reconnects
		}
	}
	if err := send(f); err != nil {
		return err
	}
	switch {
	case f.EpochRaw != nil:
		sub.sent.Store(f.EpochRaw.Seq)
	case f.Snapshot != nil:
		sub.sent.Store(f.Snapshot.Seq)
	}
	return nil
}

// catchUp brings a follower from fromSeq to the synced end of the on-disk
// log, returning the last seq shipped. If fromSeq predates the WAL floor
// (the bridging records were truncated behind a checkpoint) or lies beyond
// the primary's synced history (a diverged follower), the follower's state
// is unusable and catch-up first ships the newest checkpoint to rebuild
// from, in bounded chunks; the WAL replay that follows starts at its seq.
// The tail loop is bounded by the source's synced frontier on every step —
// an appended-but-unsynced record, one a crash could still take back, is
// never shipped.
func (h *Hub) catchUp(fromSeq uint64, sub *subscriber, send func(Frame) error) (uint64, error) {
	const retries = 3
	for attempt := 0; ; attempt++ {
		start := fromSeq
		floor, last := h.src.WALFloor(), h.src.SyncedSeq()
		if fromSeq < floor || fromSeq > last {
			snap, err := h.loadSnapshot(floor)
			if err != nil {
				return 0, err
			}
			if err := h.sendSnapshot(sub, send, snap); err != nil {
				return 0, err
			}
			start = snap.Seq
		}
		t, err := wal.OpenTail(h.walPath, start)
		if errors.Is(err, wal.ErrSeqGone) && attempt < retries {
			// A checkpoint reset moved the floor between the decision above
			// and opening the file; re-decide — the snapshot branch will now
			// cover the gap.
			fromSeq = start
			continue
		}
		if err != nil {
			return 0, err
		}
		defer t.Close()
		sent := start
		for {
			rec, raw, ok, err := t.NextBelow(h.src.SyncedSeq())
			if err != nil {
				return 0, err
			}
			if !ok {
				return sent, nil
			}
			if err := h.send(sub, send, tailFrame(t.Codec(), rec.Seq, raw)); err != nil {
				return 0, err
			}
			sent = rec.Seq
		}
	}
}

// loadSnapshot returns the newest on-disk checkpoint, or an empty snapshot
// at seq zero when the log has never been checkpointed (floor == 0): the
// follower rebuilds from nothing and replays the whole log.
func (h *Hub) loadSnapshot(floor uint64) (checkpoint.Snapshot, error) {
	snap, ok, err := checkpoint.Load(h.dir)
	if err != nil {
		return checkpoint.Snapshot{}, err
	}
	if !ok {
		if floor > 0 {
			return checkpoint.Snapshot{}, fmt.Errorf(
				"repl: WAL floor is seq %d but no readable checkpoint covers it", floor)
		}
		return checkpoint.Snapshot{Seq: 0, N: h.n}, nil
	}
	if snap.Seq < floor {
		return checkpoint.Snapshot{}, fmt.Errorf(
			"repl: newest readable checkpoint is seq %d, below the WAL floor %d", snap.Seq, floor)
	}
	return snap, nil
}

// sendSnapshot ships a full-state transfer in bounded chunks.
func (h *Hub) sendSnapshot(sub *subscriber, send func(Frame) error, snap checkpoint.Snapshot) error {
	edges := snap.Edges
	for {
		chunk := edges
		if len(chunk) > snapshotChunk {
			chunk = chunk[:snapshotChunk]
		}
		edges = edges[len(chunk):]
		body := &wire.SnapshotBody{
			Seq:   snap.Seq,
			N:     uint32(snap.N),
			Final: len(edges) == 0,
			Edges: make([]wire.Pair, len(chunk)),
		}
		for i, e := range chunk {
			body.Edges[i] = wire.Pair{U: e.U, V: e.V}
		}
		if flt := chaos.Inject(chaos.SiteReplSnapshotSend); flt != nil {
			// Snapshot stream cut mid-transfer: the follower never sees the
			// final chunk, discards the partial state and re-enters
			// catch-up from scratch on its next connection.
			return flt.Err()
		}
		if err := h.send(sub, send, Frame{Snapshot: body}); err != nil {
			return err
		}
		if len(edges) == 0 {
			return nil
		}
	}
}

// liveFrame converts one teed epoch record to its stream frame: the exact
// WAL payload the dispatcher appended (freshly allocated, safe to retain),
// under the codec version of the log it went to — so a legacy v1 log ships
// codec 1 until its next checkpoint upgrades it.
func liveFrame(rec conn.EpochRecord) Frame {
	return Frame{EpochRaw: &wire.EpochRawBody{Seq: rec.Seq, Codec: rec.Codec, Enc: rec.Enc}}
}

// tailFrame is liveFrame's disk-side twin for catch-up records read back
// through a wal.Tail cursor.
func tailFrame(codecVersion byte, seq uint64, raw []byte) Frame {
	return Frame{EpochRaw: &wire.EpochRawBody{Seq: seq, Codec: codecVersion, Enc: raw}}
}
