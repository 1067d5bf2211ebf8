package treap

import (
	"math/rand"
	"testing"
)

func benchSequence(n int) (*Slab, int32, []int32) {
	s := NewSlab(n)
	var root int32
	nodes := make([]int32, n)
	for i := 0; i < n; i++ {
		nodes[i] = s.NewNode(Value{Cnt: 1}, int32(i))
		root = s.Join(root, nodes[i])
	}
	return s, root, nodes
}

func BenchmarkRotate(b *testing.B) {
	n := 1 << 16
	s, root, nodes := benchSequence(n)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := nodes[rng.Intn(n)]
		a, c := s.SplitBefore(x)
		root = s.Join(c, a)
	}
	_ = root
}

func BenchmarkIndex(b *testing.B) {
	n := 1 << 16
	s, _, nodes := benchSequence(n)
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Index(nodes[rng.Intn(n)])
	}
}

func BenchmarkRoot(b *testing.B) {
	n := 1 << 16
	s, _, nodes := benchSequence(n)
	rng := rand.New(rand.NewSource(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Root(nodes[rng.Intn(n)])
	}
}

func BenchmarkAddVal(b *testing.B) {
	n := 1 << 16
	s, _, nodes := benchSequence(n)
	rng := rand.New(rand.NewSource(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AddVal(nodes[rng.Intn(n)], Value{NonTree: 1})
	}
}
