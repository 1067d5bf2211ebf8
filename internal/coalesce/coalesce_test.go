package coalesce

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// echoExec returns true for every op and counts invocations as the
// epoch's commit position.
func echoExec(calls *atomic.Int64) func([]Op) ([]bool, uint64) {
	return func(ops []Op) ([]bool, uint64) {
		n := calls.Add(1)
		res := make([]bool, len(ops))
		for i := range res {
			res[i] = true
		}
		return res, uint64(n)
	}
}

// gatedExec wraps echoExec so that its first call closes entered and then
// blocks until release is closed: everything submitted meanwhile stays
// staged, which is how the tests below shape epochs without a timer.
func gatedExec(calls *atomic.Int64, entered, release chan struct{}) func([]Op) ([]bool, uint64) {
	echo := echoExec(calls)
	var once sync.Once
	return func(ops []Op) ([]bool, uint64) {
		once.Do(func() {
			close(entered)
			<-release
		})
		return echo(ops)
	}
}

// waitPending polls until b has want operations staged.
func waitPending(t *testing.T, b *Buffer, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for b.Pending() != want {
		if time.Now().After(deadline) {
			t.Fatalf("Pending = %d, want %d", b.Pending(), want)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// waitDone fails the test unless f resolves within a generous bound.
func waitDone(t *testing.T, f Future, what string) {
	t.Helper()
	select {
	case <-f.g.done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s never committed", what)
	}
}

func TestSubmitWaitRoundTrip(t *testing.T) {
	var calls atomic.Int64
	entered, release := make(chan struct{}), make(chan struct{})
	b := NewBuffer(gatedExec(&calls, entered, release))
	defer b.Close()

	// An empty barrier occupies the dispatcher: its exec call (seq 1)
	// blocks, so the four submissions below are all staged together.
	gate, err := b.Submit(nil)
	if err != nil {
		t.Fatal(err)
	}
	<-entered

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f, err := b.Submit([]Op{{Kind: OpInsert, U: int32(i), V: int32(i + 1)}})
			if err != nil {
				t.Errorf("Submit: %v", err)
				return
			}
			res := f.Wait()
			if len(res) != 1 || !res[0] {
				t.Errorf("Wait = %v", res)
			}
			// All four ops land in the second exec call, whose invocation
			// count (echoExec's seq) is 2 — fanned back to every group.
			if seq := f.Seq(); seq != 2 {
				t.Errorf("Seq = %d, want 2", seq)
			}
		}(i)
	}
	waitPending(t, b, 4)
	close(release)
	wg.Wait()
	if seq := gate.Seq(); seq != 1 {
		t.Fatalf("barrier Seq = %d, want 1", seq)
	}
	// The barrier's empty drain is not an epoch; the four ops are one.
	if s := b.Stats(); s.Ops != 4 || s.Epochs != 1 || s.MaxEpoch != 4 {
		t.Fatalf("Stats = %+v, want 1 epoch of 4 ops", s)
	}
}

// TestEpochSelfClocks checks the drain-on-idle policy: whatever is staged
// while an epoch executes forms exactly the next epoch, and an idle buffer
// commits a lone submission at once, with no Flush and no timer.
func TestEpochSelfClocks(t *testing.T) {
	var calls atomic.Int64
	var mu sync.Mutex
	var sizes []int
	entered, release := make(chan struct{}), make(chan struct{})
	gated := gatedExec(&calls, entered, release)
	b := NewBuffer(func(ops []Op) ([]bool, uint64) {
		mu.Lock()
		sizes = append(sizes, len(ops))
		mu.Unlock()
		return gated(ops)
	})
	defer b.Close()
	epochSizes := func() []int {
		mu.Lock()
		defer mu.Unlock()
		return append([]int(nil), sizes...)
	}

	first, err := b.Submit([]Op{{Kind: OpInsert, U: 0, V: 1}})
	if err != nil {
		t.Fatal(err)
	}
	<-entered // epoch 1 is executing and holds the dispatcher

	const clients = 8
	futures := make([]Future, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f, err := b.Submit([]Op{{Kind: OpQuery, U: int32(i), V: int32(i + 1)}})
			if err != nil {
				t.Errorf("Submit: %v", err)
				return
			}
			futures[i] = f
		}(i)
	}
	wg.Wait()
	waitPending(t, b, clients)
	close(release)
	waitDone(t, first, "epoch 1")
	for i, f := range futures {
		waitDone(t, f, "staged submission")
		if seq := f.Seq(); seq != 2 {
			t.Fatalf("submission %d: Seq = %d, want 2", i, seq)
		}
	}
	if got := epochSizes(); len(got) != 2 || got[0] != 1 || got[1] != clients {
		t.Fatalf("exec op counts = %v, want [1 %d]", got, clients)
	}

	// The buffer is idle now: a lone Submit wakes the dispatcher itself.
	lone, err := b.Submit([]Op{{Kind: OpDelete, U: 0, V: 1}})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, lone, "lone submission on an idle buffer")
	if got := epochSizes(); len(got) != 3 || got[2] != 1 {
		t.Fatalf("exec op counts = %v, want [1 %d 1]", got, clients)
	}
}

func TestGroupIsAtomic(t *testing.T) {
	var epochSizes []int
	b := NewBuffer(func(ops []Op) ([]bool, uint64) {
		epochSizes = append(epochSizes, len(ops))
		return make([]bool, len(ops)), 0
	})
	// A 7-op group commits as one epoch with all seven results.
	ops := make([]Op, 7)
	f, err := b.Submit(ops)
	if err != nil {
		t.Fatal(err)
	}
	if res := f.Wait(); len(res) != 7 {
		t.Fatalf("len(res) = %d, want 7", len(res))
	}
	b.Close()
	if len(epochSizes) != 1 || epochSizes[0] != 7 {
		t.Fatalf("epoch sizes = %v, want [7]", epochSizes)
	}
}

func TestFlushForcesDrain(t *testing.T) {
	var calls atomic.Int64
	entered, release := make(chan struct{}), make(chan struct{})
	b := NewBuffer(gatedExec(&calls, entered, release))
	defer b.Close()
	if _, err := b.Submit(nil); err != nil {
		t.Fatal(err)
	}
	<-entered
	f, err := b.Submit([]Op{{Kind: OpInsert, U: 1, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	flushed := make(chan error, 1)
	go func() { flushed <- b.Flush() }()
	waitPending(t, b, 1)
	close(release)
	if err := <-flushed; err != nil {
		t.Fatalf("Flush: %v", err)
	}
	// Flush returned, so the earlier submission must have committed.
	select {
	case <-f.g.done:
	default:
		t.Fatal("Flush returned before the staged op committed")
	}
	if b.Pending() != 0 {
		t.Fatalf("Pending = %d after Flush", b.Pending())
	}
}

func TestCloseDrainsAndRejects(t *testing.T) {
	var calls atomic.Int64
	entered, release := make(chan struct{}), make(chan struct{})
	b := NewBuffer(gatedExec(&calls, entered, release))
	if _, err := b.Submit(nil); err != nil {
		t.Fatal(err)
	}
	<-entered
	// Staged while the dispatcher is busy, then Close begins: the final
	// sweep must still commit it.
	f, err := b.Submit([]Op{{Kind: OpDelete, U: 3, V: 4}})
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() { b.Close(); close(closed) }()
	for {
		if _, err := b.Submit(nil); err == ErrClosed {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(release)
	<-closed
	if res := f.Wait(); len(res) != 1 || !res[0] {
		t.Fatalf("op staged before Close resolved to %v", res)
	}
	if _, err := b.Submit([]Op{{}}); err != ErrClosed {
		t.Fatalf("Submit after Close: err = %v, want ErrClosed", err)
	}
	if err := b.Flush(); err != ErrClosed {
		t.Fatalf("Flush after Close: err = %v, want ErrClosed", err)
	}
	b.Close() // idempotent
}

func TestConcurrentHammer(t *testing.T) {
	const goroutines = 8
	const perG = 500
	var executed atomic.Int64
	b := NewBuffer(func(ops []Op) ([]bool, uint64) {
		executed.Add(int64(len(ops)))
		return make([]bool, len(ops)), 0
	})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				var f Future
				var err error
				if i%10 == 0 {
					f, err = b.Submit(make([]Op, 3))
				} else {
					f, err = b.Submit([]Op{{U: int32(g), V: int32(i)}})
				}
				if err != nil {
					t.Errorf("Submit: %v", err)
					return
				}
				f.Wait()
			}
		}(g)
	}
	wg.Wait()
	b.Close()
	want := int64(goroutines * (perG/10*3 + perG - perG/10))
	if got := executed.Load(); got != want {
		t.Fatalf("executed %d ops, want %d", got, want)
	}
	if s := b.Stats(); s.Ops != want {
		t.Fatalf("Stats.Ops = %d, want %d", s.Ops, want)
	}
}

// waitStaged polls until b holds want staged groups (Do groups carry no
// ops, so Pending cannot see them).
func waitStaged(t *testing.T, b *Buffer, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		b.mu.Lock()
		got := len(b.groups)
		b.mu.Unlock()
		if got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("staged groups = %d, want %d", got, want)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestDoRunsAfterItsEpoch: a Do staged behind an op group runs on the
// dispatcher after that group's epoch has executed and after its future
// has resolved.
func TestDoRunsAfterItsEpoch(t *testing.T) {
	var calls atomic.Int64
	entered, release := make(chan struct{}), make(chan struct{})
	b := NewBuffer(gatedExec(&calls, entered, release))
	defer b.Close()
	if _, err := b.Submit(nil); err != nil {
		t.Fatal(err)
	}
	<-entered
	f, err := b.Submit([]Op{{Kind: OpInsert, U: 1, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	var execs int64
	acked := false
	done := make(chan error, 1)
	go func() {
		done <- b.Do(func() {
			execs = calls.Load()
			select {
			case <-f.g.done:
				acked = true
			default:
			}
		})
	}()
	waitStaged(t, b, 2)
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("Do: %v", err)
	}
	if execs != 2 {
		t.Fatalf("Do ran after %d exec calls, want 2 (the gate's and its own epoch's)", execs)
	}
	if !acked {
		t.Fatal("Do ran before its epoch's op future resolved")
	}
	if res := f.Wait(); len(res) != 1 || !res[0] {
		t.Fatalf("op staged before Do resolved to %v", res)
	}
}

// TestDoSerialWithExec: Do functions and exec run on one goroutine, so
// state exec writes can be read and written by Do with no lock — the race
// detector checks it here.
func TestDoSerialWithExec(t *testing.T) {
	const goroutines, perG = 4, 200
	committed := 0 // owned by the dispatcher
	b := NewBuffer(func(ops []Op) ([]bool, uint64) {
		committed += len(ops)
		return make([]bool, len(ops)), 0
	})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			last := 0
			for i := 0; i < perG; i++ {
				f, err := b.Submit([]Op{{U: int32(g), V: int32(i)}})
				if err != nil {
					t.Errorf("Submit: %v", err)
					return
				}
				f.Wait()
				seen := 0
				if err := b.Do(func() { seen = committed }); err != nil {
					t.Errorf("Do: %v", err)
					return
				}
				// This goroutine's own i+1 ops have committed, and the
				// count only grows.
				if seen < i+1 || seen < last {
					t.Errorf("goroutine %d op %d: Do saw %d committed ops after %d", g, i, seen, last)
					return
				}
				last = seen
			}
		}(g)
	}
	wg.Wait()
	total := 0
	if err := b.Do(func() { total = committed }); err != nil {
		t.Fatal(err)
	}
	b.Close()
	if total != goroutines*perG {
		t.Fatalf("committed = %d, want %d", total, goroutines*perG)
	}
}

// TestDoAndClose: a Do staged before Close runs in the final sweep; after
// Close, Do fails with ErrClosed and its function never runs.
func TestDoAndClose(t *testing.T) {
	var calls atomic.Int64
	entered, release := make(chan struct{}), make(chan struct{})
	b := NewBuffer(gatedExec(&calls, entered, release))
	if _, err := b.Submit(nil); err != nil {
		t.Fatal(err)
	}
	<-entered
	ran := false
	done := make(chan error, 1)
	go func() { done <- b.Do(func() { ran = true }) }()
	waitStaged(t, b, 1)
	closed := make(chan struct{})
	go func() { b.Close(); close(closed) }()
	for {
		if _, err := b.Submit(nil); err == ErrClosed {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(release)
	<-closed
	if err := <-done; err != nil || !ran {
		t.Fatalf("Do staged before Close: err = %v, ran = %v; want nil, true", err, ran)
	}
	if err := b.Do(func() { t.Error("Do after Close ran its function") }); err != ErrClosed {
		t.Fatalf("Do after Close: err = %v, want ErrClosed", err)
	}
}
