package treap

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"unsafe"
)

func TestFreeAndReuse(t *testing.T) {
	s := NewSlab(4)
	a := s.NewNode(Value{Cnt: 1, Tree: 3, NonTree: 4}, 1)
	b := s.NewNode(Value{Cnt: 1}, 9)
	root := s.Join(a, b)
	s.Remove(a)
	s.Free(a)
	c := s.NewNode(Value{Cnt: 1, Size: 7}, 2)
	// The free list hands the slot back, and every field of it must be
	// reinitialized: links, own value, aggregate and payload.
	if c != a {
		t.Fatalf("NewNode after Free returned slot %d, want the freed slot %d", c, a)
	}
	if n := s.nd(c); n.l != 0 || n.r != 0 || s.par(c) != 0 {
		t.Fatal("recycled slot has stale links")
	}
	if s.Agg(c) != s.Val(c) || s.Val(c) != (Value{Cnt: 1, Size: 7}) {
		t.Fatalf("recycled slot has stale value: %+v / %+v", s.Val(c), s.Agg(c))
	}
	if s.Data(c) != 2 {
		t.Fatal("recycled slot has stale data")
	}
	if s.Root(b) != b || s.Len(root) != 1 {
		t.Fatal("the remaining sequence changed")
	}
}

func TestFreeDetachedFromSequence(t *testing.T) {
	s, root := build(10)
	x := s.At(root, 5)
	root = s.Remove(x)
	s.Free(x)
	// The remaining sequence must be intact after the free.
	if s.Len(root) != 9 {
		t.Fatalf("Len = %d", s.Len(root))
	}
	if err := s.CheckInvariants(root); err != "" {
		t.Fatal(err)
	}
}

// TestConcurrentNewAndFree allocates from one slab on 8 goroutines, each
// holding its nodes in a sequence of its own while the others allocate, so
// the slab grows across several chunk boundaries under concurrent callers
// (run it under -race). No slot may be handed out twice.
func TestConcurrentNewAndFree(t *testing.T) {
	const workers, per = 8, 2000
	s := NewSlab(workers * per)
	roots := make([]int32, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var root int32
			for i := 0; i < per; i++ {
				n := s.NewNode(Value{Cnt: 1, Size: 1}, int32(w))
				if s.Val(n) != (Value{Cnt: 1, Size: 1}) || s.par(n) != 0 {
					panic("bad node from slab")
				}
				root = s.Join(root, n)
				if i%3 == 2 {
					x := s.At(root, int64(i/3))
					root = s.Remove(x)
					s.Free(x)
				}
			}
			roots[w] = root
		}(w)
	}
	wg.Wait()
	seen := make(map[int32]bool)
	for w, root := range roots {
		if msg := s.CheckInvariants(root); msg != "" {
			t.Fatalf("worker %d: %s", w, msg)
		}
		s.Walk(root, func(x int32) {
			if seen[x] || s.Data(x) != int32(w) {
				t.Fatalf("slot %d handed out twice", x)
			}
			seen[x] = true
		})
	}
	if want := workers * (per - per/3); len(seen) != want {
		t.Fatalf("%d live slots, want %d", len(seen), want)
	}
}

// TestNodeSize is the slab's bytes-per-slot budget: a 44-byte record plus
// a 4-byte parent link. Nodes are most of the level structure's live heap;
// the pointer-linked node this replaced took 64 bytes, plus an 8-byte
// pointer per vertex in each forest's vertex table (now a 4-byte slot).
func TestNodeSize(t *testing.T) {
	const budget = 48
	perSlot := unsafe.Sizeof(chunk{}) / chunkLen
	if perSlot > budget {
		t.Fatalf("a slot takes %d bytes, budget %d", perSlot, budget)
	}
	if got := unsafe.Sizeof(chunk{}); got != chunkLen*(4+unsafe.Sizeof(node{})) {
		t.Fatalf("chunk is %d bytes: padding crept in", got)
	}
}

// TestSlabPointerFree asserts that a chunk holds no pointers, so the
// collector allocates it noscan and never marks through the nodes.
func TestSlabPointerFree(t *testing.T) {
	var walk func(reflect.Type) error
	walk = func(ty reflect.Type) error {
		switch ty.Kind() {
		case reflect.Bool, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Int, reflect.Uint:
			return nil
		case reflect.Array:
			return walk(ty.Elem())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				if err := walk(ty.Field(i).Type); err != nil {
					return fmt.Errorf("%s.%s: %w", ty.Name(), ty.Field(i).Name, err)
				}
			}
			return nil
		}
		return fmt.Errorf("kind %s may hold a pointer", ty.Kind())
	}
	if err := walk(reflect.TypeOf(chunk{})); err != nil {
		t.Fatal(err)
	}
}

func TestSlabFullPanics(t *testing.T) {
	s := NewSlab(1)
	for i := 0; i < chunkLen-1; i++ {
		s.NewNode(Value{}, 0) // the rest of chunk 0, the directory's only one
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewNode on a full slab did not panic")
		}
	}()
	s.NewNode(Value{}, 0)
}

// FuzzTreap runs join, split, remove, set-value and free-then-reallocate
// against a model of sequences as slices of slots, and after every
// operation checks Index, At, Root, Len, Agg and CheckInvariants of every
// sequence, and that a reallocated slot is fully reinitialized.
func FuzzTreap(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 3, 1, 0, 1, 1, 2, 0, 5, 3, 1, 2, 5, 0, 0, 4, 0, 7})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add([]byte{0, 9, 0, 8, 1, 0, 3, 0, 1, 4, 0, 9, 0, 5, 0, 2, 1, 0, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		s := NewSlab(len(data))
		var seqs [][]int32
		own := map[int32]Value{} // live slot -> own value
		tag := map[int32]int32{} // live slot -> payload
		next := int32(0)
		pos := 0
		arg := func() int {
			if pos == len(data) {
				return 0
			}
			pos++
			return int(data[pos-1])
		}
		rootOf := func(seq []int32) int32 {
			if len(seq) == 0 {
				return 0
			}
			return s.Root(seq[0])
		}
		for pos < len(data) {
			switch arg() % 6 {
			case 0: // new singleton
				v := Value{Cnt: 1, Size: int32(arg() % 2), Tree: int32(arg() % 5)}
				x := s.NewNode(v, next)
				if nd := s.nd(x); nd.l != 0 || nd.r != 0 || s.par(x) != 0 ||
					nd.sum != v || s.Data(x) != next {
					t.Fatalf("slot %d not reinitialized", x)
				}
				own[x], tag[x] = v, next
				next++
				seqs = append(seqs, []int32{x})
			case 1: // join two sequences
				if len(seqs) < 2 {
					continue
				}
				i, j := arg()%len(seqs), arg()%len(seqs)
				if i == j {
					continue
				}
				s.Join(rootOf(seqs[i]), rootOf(seqs[j]))
				seqs[i] = append(seqs[i], seqs[j]...)
				seqs = append(seqs[:j], seqs[j+1:]...)
			case 2: // split at a position
				if len(seqs) == 0 {
					continue
				}
				i := arg() % len(seqs)
				k := arg() % (len(seqs[i]) + 1)
				s.SplitAt(rootOf(seqs[i]), int64(k))
				tail := append([]int32(nil), seqs[i][k:]...)
				seqs[i] = seqs[i][:k]
				seqs = append(seqs, tail)
			case 3: // remove an element; it becomes a singleton
				if len(seqs) == 0 {
					continue
				}
				i := arg() % len(seqs)
				if len(seqs[i]) == 0 {
					continue
				}
				k := arg() % len(seqs[i])
				x := seqs[i][k]
				s.Remove(x)
				seqs[i] = append(seqs[i][:k:k], seqs[i][k+1:]...)
				seqs = append(seqs, []int32{x})
			case 4: // set an element's own value
				if len(seqs) == 0 {
					continue
				}
				i := arg() % len(seqs)
				if len(seqs[i]) == 0 {
					continue
				}
				x := seqs[i][arg()%len(seqs[i])]
				v := Value{Cnt: 1, Size: int32(arg() % 3), NonTree: int32(arg() % 7)}
				s.SetVal(x, v)
				own[x] = v
			case 5: // free a singleton
				for i, seq := range seqs {
					if len(seq) == 1 {
						x := seq[0]
						s.Free(x)
						delete(own, x)
						delete(tag, x)
						seqs = append(seqs[:i], seqs[i+1:]...)
						break
					}
				}
			}
			for _, seq := range seqs {
				if len(seq) == 0 {
					continue
				}
				root := rootOf(seq)
				if msg := s.CheckInvariants(root); msg != "" {
					t.Fatal(msg)
				}
				var agg Value
				for k, x := range seq {
					agg = agg.Add(own[x])
					if s.Root(x) != root {
						t.Fatalf("slot %d: root %d, want %d", x, s.Root(x), root)
					}
					if got := s.Index(x); got != int64(k) {
						t.Fatalf("Index(%d) = %d, want %d", x, got, k)
					}
					if got := s.At(root, int64(k)); got != x {
						t.Fatalf("At(%d) = %d, want %d", k, got, x)
					}
					if s.Data(x) != tag[x] {
						t.Fatalf("Data(%d) = %d, want %d", x, s.Data(x), tag[x])
					}
				}
				if s.Len(seq[0]) != int64(len(seq)) || s.Agg(seq[len(seq)-1]) != agg {
					t.Fatalf("Len/Agg = %d/%+v, want %d/%+v", s.Len(seq[0]), s.Agg(seq[0]), len(seq), agg)
				}
			}
		}
	})
}
