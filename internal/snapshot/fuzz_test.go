package snapshot

import (
	"math/rand"
	"sort"
	"testing"
)

// FuzzPublish decodes bytes into Prepare/mutate/Publish epochs on the model
// at a small n with a tiny walk threshold, so nearly every dirty component
// goes through verification, and checks every epoch the way
// TestPublishVerifyDifferential does: labels, the exact Diff.Changed, and
// nil-iff-unchanged.
//
// Encoding: byte 0 picks the threshold (1..4). Each epoch is then a header
// byte h — h&3 inserts, (h>>2)&3 deletes, Prepare skipped when h&0x80 is
// set — followed by two bytes (u, v) per insert and one byte per delete
// indexing the current edge list in sorted order.
func FuzzPublish(f *testing.F) {
	f.Add([]byte{0, 0x01, 0, 1, 0x01, 1, 2, 0x04, 0})
	f.Add([]byte{1, 0x03, 3, 4, 4, 5, 5, 6, 0x08, 1, 0x83, 7, 1, 8, 2, 0, 9})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		b := make([]byte, 64+rng.Intn(192))
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 24
		if len(data) == 0 {
			return
		}
		m := newModel(n)
		s := NewStore(n, 1+int(data[0]%4), m)
		data = data[1:]
		next := func() (byte, bool) {
			if len(data) == 0 {
				return 0, false
			}
			b := data[0]
			data = data[1:]
			return b, true
		}
		for epochs := 0; epochs < 64; epochs++ {
			h, ok := next()
			if !ok {
				return
			}
			var ins, del [][2]int32
			for i := 0; i < int(h&3); i++ {
				u, ok1 := next()
				v, ok2 := next()
				if !ok1 || !ok2 {
					break
				}
				ins = append(ins, [2]int32{int32(u % n), int32(v % n)})
			}
			// Deletes index the post-insert edge set, so an edge inserted
			// and deleted in one epoch composes as it does in the engine.
			es := make([][2]int32, 0, len(m.edges)+len(ins))
			for e := range m.edges {
				es = append(es, e)
			}
			for _, e := range ins {
				if k := key(e[0], e[1]); e[0] != e[1] && !m.edges[k] {
					es = append(es, k)
				}
			}
			sort.Slice(es, func(i, j int) bool { return es[i][0] < es[j][0] || es[i][0] == es[j][0] && es[i][1] < es[j][1] })
			for i := 0; i < int(h>>2&3) && len(es) > 0; i++ {
				b, ok := next()
				if !ok {
					break
				}
				del = append(del, es[int(b)%len(es)])
			}
			m.epoch(t, s, ins, del, h&0x80 != 0)
		}
	})
}
