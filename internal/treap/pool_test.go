package treap

import (
	"math/rand"
	"sync"
	"testing"
	"unsafe"
)

func TestFreeAndReuse(t *testing.T) {
	a := NewNode(Value{Cnt: 1}, 1)
	id1 := a.ID()
	Free(a)
	b := NewNode(Value{Cnt: 1, Size: 7}, 2)
	// Whether or not the allocation was recycled, the new node must be
	// fully reinitialized.
	if b.ID() == id1 {
		t.Fatal("recycled node kept its old id")
	}
	if b.l != nil || b.r != nil || b.p != nil {
		t.Fatal("recycled node has stale links")
	}
	if b.sum != b.Val() || b.Val().Size != 7 {
		t.Fatalf("recycled node has stale value: %+v / %+v", b.Val(), b.sum)
	}
	if b.Data != 2 {
		t.Fatal("recycled node has stale data")
	}
}

func TestFreeDetachedFromSequence(t *testing.T) {
	root := build(10)
	x := At(root, 5)
	root = Remove(x)
	Free(x)
	// The remaining sequence must be intact after the free.
	if Len(root) != 9 {
		t.Fatalf("Len = %d", Len(root))
	}
	if err := CheckInvariants(root); err != "" {
		t.Fatal(err)
	}
}

func TestConcurrentNewAndFree(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				n := NewNode(Value{Cnt: 1}, int32(i))
				if n.Val().Cnt != 1 || n.p != nil {
					panic("bad node from pool")
				}
				Free(n)
			}
		}()
	}
	wg.Wait()
}

func TestIDsUniqueAcrossRecycling(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := 0; i < 10000; i++ {
		n := NewNode(Value{Cnt: 1}, 0)
		if seen[n.ID()] {
			t.Fatalf("duplicate id %d at iteration %d", n.ID(), i)
		}
		seen[n.ID()] = true
		Free(n)
	}
}

// TestIDIsCreationCounter pins what ID promises now that it is recovered
// from the priority: unmix inverts mix, so ids are the creation counter —
// below 2⁶³, which callers rely on to keep synthetic keys with the top bit
// set disjoint from node ids — and consecutive nodes get consecutive ids.
func TestIDIsCreationCounter(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		x := rng.Uint64()
		if got := unmix(mix(x)); got != x {
			t.Fatalf("unmix(mix(%#x)) = %#x", x, got)
		}
	}
	a, b := NewNode(Value{Cnt: 1}, 0), NewNode(Value{Cnt: 1}, 0)
	if b.ID() != a.ID()+1 || a.ID()>>63 != 0 {
		t.Fatalf("ids %d, %d: want consecutive counter values below 2⁶³", a.ID(), b.ID())
	}
}

// TestNodeSize keeps Node in the 64-byte allocation class: nodes are most of
// the level structure's live heap. The node is 64 bytes since its own value
// became three int32 counters and its payload an int32 vertex id (it was 80
// with a Value and an interface payload).
func TestNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(Node{}); got > 64 {
		t.Fatalf("Node is %d bytes, want at most 64", got)
	}
}
