package treap

import (
	"math/rand"
	"testing"
)

func benchSequence(n int) (*Node, []*Node) {
	var root *Node
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		nodes[i] = NewNode(Value{Cnt: 1}, int32(i))
		root = Join(root, nodes[i])
	}
	return root, nodes
}

func BenchmarkRotate(b *testing.B) {
	n := 1 << 16
	root, nodes := benchSequence(n)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := nodes[rng.Intn(n)]
		a, c := SplitBefore(x)
		root = Join(c, a)
	}
	_ = root
}

func BenchmarkIndex(b *testing.B) {
	n := 1 << 16
	_, nodes := benchSequence(n)
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Index(nodes[rng.Intn(n)])
	}
}

func BenchmarkRoot(b *testing.B) {
	n := 1 << 16
	_, nodes := benchSequence(n)
	rng := rand.New(rand.NewSource(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Root(nodes[rng.Intn(n)])
	}
}

func BenchmarkAddVal(b *testing.B) {
	n := 1 << 16
	_, nodes := benchSequence(n)
	rng := rand.New(rand.NewSource(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AddVal(nodes[rng.Intn(n)], Value{NonTree: 1})
	}
}
