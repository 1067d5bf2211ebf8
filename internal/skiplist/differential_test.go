package skiplist

import (
	"testing"
	"testing/quick"

	"repro/internal/treap"
)

// TestDifferentialAgainstTreap drives identical operation scripts through
// both sequence substrates and requires identical observable behaviour:
// sequence order, lengths, aggregates, ranks and collect results. This is
// the strongest evidence the two structures are interchangeable, which is
// what justifies the treap substitution documented in DESIGN.md §3.
func TestDifferentialAgainstTreap(t *testing.T) {
	type op struct {
		Kind uint8
		Pos  uint16
		Amt  uint8
	}
	f := func(ops []op) bool {
		sl := NewList()
		ts := treap.NewSlab(len(ops))
		var tr int32
		var sNodes []*Node
		var tNodes []int32
		next := 0
		for _, o := range ops {
			switch o.Kind % 4 {
			case 0: // append
				sn := NewNode(Value{Cnt: 1}, next)
				tn := ts.NewNode(treap.Value{Cnt: 1}, int32(next))
				Append(sl, sn)
				tr = ts.Join(tr, tn)
				sNodes = append(sNodes, sn)
				tNodes = append(tNodes, tn)
				next++
			case 1: // rotate at position
				if len(sNodes) < 2 {
					continue
				}
				k := 1 + int(o.Pos)%(len(sNodes)-1)
				// Identify the node at rank k in CURRENT order via the
				// treap, then split both structures before it.
				tn := ts.At(tr, int64(k))
				sn := sl.At(int64(k))
				if int(ts.Data(tn)) != sn.Data.(int) {
					return false // order diverged
				}
				ta, tb := ts.SplitBefore(tn)
				tr = ts.Join(tb, ta)
				sa, sb := SplitBefore(sn)
				nl := NewList()
				Join(nl, sb)
				Join(nl, sa)
				sl = nl
			case 2: // point update
				if len(sNodes) == 0 {
					continue
				}
				i := int(o.Pos) % len(sNodes)
				delta := int64(o.Amt % 5)
				AddVal(sNodes[i], Value{NonTree: delta})
				ts.AddVal(tNodes[i], treap.Value{NonTree: int32(delta)})
			case 3: // rank check of a random node
				if len(sNodes) == 0 {
					continue
				}
				i := int(o.Pos) % len(sNodes)
				if Index(sNodes[i]) != ts.Index(tNodes[i]) {
					return false
				}
			}
			// Aggregates must agree at every step.
			var ta treap.Value
			if tr != 0 {
				ta = ts.Agg(tr)
			}
			sa := sl.Agg()
			if sa.Cnt != int64(ta.Cnt) || sa.NonTree != int64(ta.NonTree) {
				return false
			}
		}
		// Final order comparison.
		if tr == 0 {
			return sl.Len() == 0
		}
		i := int64(0)
		ok := true
		ts.Walk(tr, func(n int32) {
			sn := sl.At(i)
			if sn == nil || sn.Data.(int) != int(ts.Data(n)) {
				ok = false
			}
			i++
		})
		if !ok || i != sl.Len() {
			return false
		}
		// Collect must find the same marked nodes in the same order.
		proj := func(v Value) int64 { return v.NonTree }
		tproj := func(v treap.Value) int64 { return int64(v.NonTree) }
		var sOut []*Node
		var tOut []int32
		sGot := sl.Collect(1<<60, proj, &sOut)
		tGot := ts.Collect(tr, 1<<60, tproj, &tOut)
		if sGot != tGot || len(sOut) != len(tOut) {
			return false
		}
		for j := range sOut {
			if sOut[j].Data.(int) != int(ts.Data(tOut[j])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
