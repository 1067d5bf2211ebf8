// Package coalesce implements the group-commit machinery behind the public
// conn.Batcher: a staging buffer that many goroutines append operations to,
// and a single dispatcher goroutine that drains the buffer into epochs and
// executes each epoch with one call into the single-writer core.
//
// The point of the exercise is Theorem 1 of the paper: amortized work per
// deleted edge is O(lg n · lg(1+n/Δ)) where Δ is the average deletion batch
// size, and insert/query batches of size k cost O(k lg(1+n/k)) total — the
// structure gets cheaper per operation as batches grow. The buffer has one
// coalescing policy, drain on idle: the dispatcher sleeps until a
// submission wakes it, yields once so that callers already runnable can
// stage, then drains everything staged and runs it as one epoch. Whatever arrives while that epoch executes (its WAL fsync
// included) forms the next epoch, so under load Δ tracks the offered load
// and grows with commit latency, and an idle buffer commits a lone
// submission at once. There is no timer and no size target.
//
// Life of an operation:
//
//	caller            buffer             dispatcher
//	Submit(ops) ───▶ append group ──┐
//	Wait() blocks                   ├──▶ drain all groups ─▶ exec(epoch)
//	                 append group ──┘        │
//	Wait() returns ◀── res + close(done) ◀───┘
//
// The dispatcher is the only goroutine that calls exec, so the executor may
// use a structure that is not itself safe for concurrent use. Results fan
// back to callers through per-submission futures: exec returns one bool per
// operation, sliced back onto each submission's group. Do extends the same
// ownership to arbitrary work: its function runs on the dispatcher at the
// boundary after the epoch it was staged in, so whatever exec owns can be
// read there with no lock.
package coalesce

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
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

// ErrClosed is returned by Submit, Flush and Do after Close.
var ErrClosed = errors.New("coalesce: buffer is closed")

// group is one caller submission: ops sharing a single future, or (fn
// non-nil) a Do call, which carries no ops.
type group struct {
	ops  []Op
	fn   func()        // Do's function, run by the dispatcher after the epoch's acks
	res  []bool        // written by the dispatcher before done is closed
	seq  uint64        // executor-assigned commit position of the group's epoch
	done chan struct{} // closed once the group's epoch has committed
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
	mu      sync.Mutex
	groups  []*group      // staged submissions, in arrival order; guarded by mu
	closed  bool          // guarded by mu
	kick    chan struct{} // wakes the dispatcher; capacity 1
	closing chan struct{}
	wg      sync.WaitGroup
	// exec commits one epoch. Calling it is the commit point the group
	// futures wait behind (in durable configurations it is the WAL
	// append+fsync), and only the dispatcher goroutine may invoke it.
	//
	//conn:dispatcher-only
	//conn:fsync-barrier
	exec func([]Op) ([]bool, uint64)

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
// groups (Flush or Do with nothing else staged) still calls exec, with an
// empty op slice, so every group resolves to the seq of an executed epoch.
func NewBuffer(exec func(ops []Op) ([]bool, uint64)) *Buffer {
	b := &Buffer{
		kick:    make(chan struct{}, 1),
		closing: make(chan struct{}),
		exec:    exec,
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
// not reuse it before Wait returns. A nil or empty ops stages a barrier: its
// future resolves once every group staged before it has committed.
func (b *Buffer) Submit(ops []Op) (Future, error) {
	g := &group{ops: ops, done: make(chan struct{})}
	if err := b.stage(g); err != nil {
		return Future{}, err
	}
	return Future{g}, nil
}

// stage appends g to the buffer and wakes the dispatcher.
func (b *Buffer) stage(g *group) error {
	b.mu.Lock()
	// The closed check shares the lock with the final drain, which runs
	// after closed is set: a submission either lands before that drain
	// (and is committed by it) or observes closed.
	if b.closed {
		b.mu.Unlock()
		return ErrClosed
	}
	b.groups = append(b.groups, g)
	b.mu.Unlock()
	select {
	case b.kick <- struct{}{}:
	default: // a wake-up is already pending
	}
	return nil
}

// Flush blocks until every operation staged before the call has committed.
func (b *Buffer) Flush() error { return b.Do(func() {}) }

// Do runs f on the dispatcher goroutine and blocks until it returns. f is
// staged as a group with no ops: it runs after every group staged before
// it has executed, and after the op groups of its own epoch have been
// acked, so it never delays a write's acknowledgement — only the next
// epoch. Everything exec owns may be read (or written) by f without a lock.
// A Do staged before Close runs in the final sweep; after Close has begun,
// Do returns ErrClosed and f never runs. f must not call Do, Flush or Wait
// on this buffer: they wait for the dispatcher that is running f.
func (b *Buffer) Do(f func()) error {
	g := &group{fn: f, done: make(chan struct{})}
	if err := b.stage(g); err != nil {
		return err
	}
	<-g.done
	return nil
}

// Close commits everything still staged, stops the dispatcher, and waits
// for it to exit. Close is idempotent; Submit after Close returns ErrClosed.
func (b *Buffer) Close() {
	b.mu.Lock()
	if !b.closed {
		b.closed = true
		close(b.closing)
	}
	b.mu.Unlock()
	b.wg.Wait()
}

// Pending reports the number of operations staged but not yet drained.
func (b *Buffer) Pending() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, g := range b.groups {
		n += len(g.ops)
	}
	return int64(n)
}

// Stats returns dispatcher counters.
func (b *Buffer) Stats() Stats {
	return Stats{
		Epochs:   b.epochs.Load(),
		Ops:      b.ops.Load(),
		MaxEpoch: b.maxEpoch.Load(),
	}
}

// run is the dispatcher loop: sleep until a submission arrives, drain
// everything staged as one epoch, repeat. Submissions made while an epoch
// executes leave a wake-up pending, so they form the next epoch.
//
//conn:dispatcher-only
func (b *Buffer) run() {
	defer b.wg.Done()
	for {
		select {
		case <-b.kick:
			// Yield once before draining: callers the last epoch released,
			// and the rest of a frame being scattered across shard engines,
			// are runnable but have not staged yet. Letting them run first
			// is no timer — it waits only for goroutines already runnable —
			// and on 2 vCPU it raised e12's Δ from 1.3 / 3.0 / 8.0 to
			// 3.5 / 11 / 38 at 4 / 16 / 64 clients.
			runtime.Gosched()
			b.drain()
		case <-b.closing:
			// Final sweep: commit submissions that raced Close.
			b.drain()
			return
		}
	}
}

// drain collects every staged group, executes them as one epoch, fans the
// results back, releases the blocked callers, then runs the epoch's Do
// functions in staging order. The close of each group's done channel is the
// acknowledgement callers' Wait unblocks on, so it must stay after the exec
// call — acked means committed (and, with a durable executor, fsynced).
//
//conn:dispatcher-only
//conn:ack-after-fsync
func (b *Buffer) drain() {
	b.mu.Lock()
	groups := b.groups
	b.groups = nil
	b.mu.Unlock()
	total := 0
	for _, g := range groups {
		total += len(g.ops)
	}
	if len(groups) > 0 {
		// exec runs even when every drained group is an empty barrier or a
		// Do (total == 0), so every group resolves to an executed epoch's
		// seq. Empty drains are not counted as epochs.
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
		// caller's Wait. Do functions run after it, so a long one delays
		// the next epoch but never this one's acks.
		for _, g := range groups {
			if g.fn == nil {
				close(g.done)
			}
		}
		for _, g := range groups {
			if g.fn != nil {
				g.fn()
				close(g.done)
			}
		}
	}
}
