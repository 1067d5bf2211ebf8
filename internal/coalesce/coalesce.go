// Package coalesce implements the group-commit machinery behind the public
// conn.Batcher: a mutex-sharded staging buffer that many goroutines append
// operations to, and a single dispatcher goroutine that drains the buffer
// into large epochs and executes each epoch with one call into the
// single-writer core.
//
// The point of the exercise is Theorem 1 of the paper: amortized work per
// deleted edge is O(lg n · lg(1+n/Δ)) where Δ is the average deletion batch
// size, and insert/query batches of size k cost O(k lg(1+n/k)) total — the
// structure gets cheaper per operation as batches grow. Individual user
// operations arriving concurrently are therefore worth holding back for a
// moment: the buffer coalesces them until either a size target (maxBatch) or
// a latency window (maxDelay) is hit, then commits the whole epoch at once.
//
// Life of an operation:
//
//	caller            shard              dispatcher
//	Submit(ops) ───▶ append group ──┐
//	Wait() blocks                   ├──▶ drain all shards ─▶ exec(epoch)
//	                 append group ──┘        │
//	Wait() returns ◀── res + close(done) ◀───┘
//
// The dispatcher is the only goroutine that calls exec, so the executor may
// use a structure that is not itself safe for concurrent use. Results fan
// back to callers through per-submission futures: exec returns one bool per
// operation, sliced back onto each submission's group.
package coalesce

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Kind labels a staged operation.
type Kind uint8

const (
	// OpInsert stages an edge insertion; its result reports whether the
	// edge was newly added (credited to the first staging in the epoch).
	OpInsert Kind = iota
	// OpDelete stages an edge deletion; its result reports whether the
	// edge was removed (credited to the first staging in the epoch).
	OpDelete
	// OpQuery stages a connectivity query evaluated on the epoch's
	// post-update state.
	OpQuery
)

// Op is one staged operation on an undirected vertex pair.
type Op struct {
	Kind Kind
	U, V int32
}

// ErrClosed is returned by Submit and Flush after Close.
var ErrClosed = errors.New("coalesce: buffer is closed")

// group is one caller submission: ops sharing a single future.
type group struct {
	ops  []Op
	res  []bool        // written by the dispatcher before done is closed
	seq  uint64        // executor-assigned commit position of the group's epoch
	done chan struct{} // closed once the group's epoch has committed
}

// shard is one stripe of the staging buffer, padded to its own cache line
// so submissions on different stripes do not false-share.
type shard struct {
	mu     sync.Mutex
	groups []*group
	_      [32]byte
}

// Stats counts dispatcher activity since the buffer was created.
type Stats struct {
	Epochs   int64 // committed epochs (empty drains are not counted)
	Ops      int64 // operations committed across all epochs
	MaxEpoch int64 // largest single epoch, in operations
}

// Buffer is a concurrent staging buffer with a group-commit dispatcher.
// Construct with NewBuffer; the zero value is not usable.
type Buffer struct {
	shards  []shard
	rr      atomic.Uint32 // round-robin shard selector
	staged  atomic.Int64  // ops staged but not yet drained
	force   atomic.Bool   // a Flush barrier wants an immediate drain
	closed  atomic.Bool
	kick    chan struct{} // wakes the dispatcher; capacity 1
	closing chan struct{}
	wg      sync.WaitGroup
	// exec commits one epoch. Calling it is the commit point the group
	// futures wait behind (in durable configurations it is the WAL
	// append+fsync), and only the dispatcher goroutine may invoke it.
	//
	//conn:dispatcher-only
	//conn:fsync-barrier
	exec     func([]Op) ([]bool, uint64)
	maxBatch int
	maxDelay time.Duration

	epochs   atomic.Int64
	ops      atomic.Int64
	maxEpoch atomic.Int64
}

// NewBuffer starts a buffer whose dispatcher drains staged operations into
// epochs and executes each epoch with exec, which receives the concatenated
// operations and must return one result per operation, in order, plus the
// epoch's commit position (an executor-defined sequence number, zero if it
// has none; fanned back to every group via Future.Seq). exec is only ever
// called from the dispatcher goroutine. A drain that collected only barrier
// groups (Flush with nothing staged) still calls exec with an empty op
// slice — executors with out-of-band epoch-boundary work rely on Flush as
// a dispatcher nudge.
//
// The dispatcher commits an epoch as soon as maxBatch operations are staged,
// or maxDelay after it first notices pending work, whichever comes first.
// maxDelay == 0 disables the window: the dispatcher drains as soon as it
// wakes, so epochs coalesce only what accumulates while an execution is in
// flight. shards <= 0 selects GOMAXPROCS stripes; maxBatch <= 0 selects a
// default of 8192.
func NewBuffer(shards, maxBatch int, maxDelay time.Duration, exec func(ops []Op) ([]bool, uint64)) *Buffer {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if maxBatch <= 0 {
		maxBatch = 8192
	}
	if maxDelay < 0 {
		maxDelay = 0
	}
	b := &Buffer{
		shards:   make([]shard, shards),
		kick:     make(chan struct{}, 1),
		closing:  make(chan struct{}),
		exec:     exec,
		maxBatch: maxBatch,
		maxDelay: maxDelay,
	}
	b.wg.Add(1)
	go b.run() //conn:dispatcher-entry — this statement creates the dispatcher goroutine
	return b
}

// Future resolves to the per-op results of one submission.
type Future struct{ g *group }

// Wait blocks until the submission's epoch has committed and returns the
// results, aligned index-for-index with the submitted operations.
func (f Future) Wait() []bool {
	<-f.g.done
	return f.g.res
}

// Seq returns the commit position the executor assigned to the group's
// epoch (zero if the executor has no sequence). Valid only after Wait.
func (f Future) Seq() uint64 {
	<-f.g.done
	return f.g.seq
}

// Submit stages ops as one atomic group — all land in the same epoch — and
// returns a future for their results. Safe for any number of concurrent
// callers. The ops slice is retained until the epoch commits; callers must
// not reuse it before Wait returns.
func (b *Buffer) Submit(ops []Op) (Future, error) {
	return b.submit(ops, false)
}

func (b *Buffer) submit(ops []Op, flush bool) (Future, error) {
	g := &group{ops: ops, done: make(chan struct{})}
	s := &b.shards[int(b.rr.Add(1))%len(b.shards)]
	s.mu.Lock()
	// The closed check lives inside the shard lock: the final drain also
	// takes every shard lock after closed is set, so a submission either
	// lands before that drain (and is committed by it) or observes closed.
	if b.closed.Load() {
		s.mu.Unlock()
		return Future{}, ErrClosed
	}
	s.groups = append(s.groups, g)
	b.staged.Add(int64(len(ops)))
	s.mu.Unlock()
	if flush {
		b.force.Store(true)
	}
	b.wake()
	return Future{g}, nil
}

// Flush forces an immediate drain and blocks until every operation staged
// before the call has committed.
func (b *Buffer) Flush() error {
	f, err := b.submit(nil, true)
	if err != nil {
		return err
	}
	f.Wait()
	return nil
}

// Close commits everything still staged, stops the dispatcher, and waits
// for it to exit. Close is idempotent; Submit after Close returns ErrClosed.
func (b *Buffer) Close() {
	if !b.closed.Swap(true) {
		close(b.closing)
	}
	b.wg.Wait()
}

// Pending reports the number of operations staged but not yet drained.
func (b *Buffer) Pending() int64 { return b.staged.Load() }

// Stats returns dispatcher counters.
func (b *Buffer) Stats() Stats {
	return Stats{
		Epochs:   b.epochs.Load(),
		Ops:      b.ops.Load(),
		MaxEpoch: b.maxEpoch.Load(),
	}
}

func (b *Buffer) wake() {
	select {
	case b.kick <- struct{}{}:
	default:
	}
}

func (b *Buffer) isClosing() bool {
	select {
	case <-b.closing:
		return true
	default:
		return false
	}
}

// run is the dispatcher loop: sleep until work arrives, hold the coalescing
// window open, drain, execute, repeat.
//
//conn:dispatcher-only
func (b *Buffer) run() {
	defer b.wg.Done()
	timer := time.NewTimer(time.Hour)
	stopTimer(timer)
	for {
		if b.staged.Load() == 0 && !b.force.Load() {
			select {
			case <-b.kick:
			case <-b.closing:
				// Final sweep: commit submissions that raced Close.
				b.drain()
				return
			}
		}
		// Work is pending. Hold the window open until the size target,
		// the latency deadline, a Flush barrier, or Close.
		if b.maxDelay > 0 && int(b.staged.Load()) < b.maxBatch &&
			!b.force.Load() && !b.isClosing() {
			timer.Reset(b.maxDelay)
		window:
			for int(b.staged.Load()) < b.maxBatch && !b.force.Load() {
				select {
				case <-b.kick:
				case <-timer.C:
					break window
				case <-b.closing:
					break window
				}
			}
			stopTimer(timer)
		}
		b.force.Store(false)
		b.drain()
	}
}

func stopTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
}

// drain collects every staged group, executes them as one epoch, fans the
// results back, and releases the blocked callers. The close of each group's
// done channel is the acknowledgement callers' Wait unblocks on, so it must
// stay after the exec call — acked means committed (and, with a durable
// executor, fsynced).
//
//conn:dispatcher-only
//conn:ack-after-fsync
func (b *Buffer) drain() {
	var groups []*group
	total := 0
	for i := range b.shards {
		s := &b.shards[i]
		s.mu.Lock()
		if len(s.groups) > 0 {
			groups = append(groups, s.groups...)
			s.groups = nil
		}
		s.mu.Unlock()
	}
	for _, g := range groups {
		total += len(g.ops)
	}
	b.staged.Add(int64(-total))
	if len(groups) > 0 {
		// exec runs even when every drained group is an empty barrier
		// (total == 0): a Flush is the dispatcher nudge that executors use
		// to service out-of-band requests (conn.Batcher checkpoints) at an
		// epoch boundary, so it must reach them. Empty drains are not
		// counted as epochs.
		ops := make([]Op, 0, total)
		for _, g := range groups {
			ops = append(ops, g.ops...)
		}
		res, seq := b.exec(ops)
		i := 0
		for _, g := range groups {
			// Full slice expression: callers may append to their result
			// slice, which must not grow into the next group's range.
			g.res = res[i : i+len(g.ops) : i+len(g.ops)]
			g.seq = seq
			i += len(g.ops)
		}
		if total > 0 {
			b.epochs.Add(1)
			b.ops.Add(int64(total))
			if t := int64(total); t > b.maxEpoch.Load() {
				b.maxEpoch.Store(t)
			}
		}
		// The acknowledgement: closing the done channels unblocks every
		// caller's Wait.
		for _, g := range groups {
			close(g.done)
		}
	}
}
