package repl

import (
	"bufio"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	conn "repro"
	"repro/internal/wal"
	"repro/internal/wire"
)

// collector gathers stream frames and signals when a target seq arrives.
type collector struct {
	mu     sync.Mutex
	frames []Frame
	reach  chan struct{}
	target uint64
}

func newCollector(target uint64) *collector {
	return &collector{reach: make(chan struct{}), target: target}
}

func (c *collector) send(f Frame) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.frames = append(c.frames, f)
	var seq uint64
	if f.EpochRaw != nil {
		seq = f.EpochRaw.Seq
	}
	if seq >= c.target {
		select {
		case <-c.reach:
		default:
			close(c.reach)
		}
	}
	return nil
}

func (c *collector) snapshot() []Frame {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Frame(nil), c.frames...)
}

// retarget re-arms the reach signal for a higher seq and returns the new
// channel (safe while the stream is still delivering).
func (c *collector) retarget(target uint64) chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.target = target
	c.reach = make(chan struct{})
	return c.reach
}

// TestHubStreamsLiveEpochs: a subscriber from seq 0 on a never-checkpointed
// namespace receives every epoch, in order, with no snapshot.
func TestHubStreamsLiveEpochs(t *testing.T) {
	dir := t.TempDir()
	g := conn.New(64)
	b := conn.NewBatcher(g, conn.WithMaxDelay(0), conn.WithDurability(dir))
	defer b.Close()
	h := NewHub(b, dir, 64)
	defer h.Stop()

	const epochs = 16
	col := newCollector(epochs)
	done := make(chan error, 1)
	go func() { done <- h.Stream(0, col.send) }()

	for i := 0; i < epochs; i++ {
		b.Insert(int32(i), int32(i+1))
	}
	select {
	case <-col.reach:
	case err := <-done:
		t.Fatalf("stream ended early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("stream did not deliver all epochs")
	}
	h.Stop()
	if err := <-done; !errors.Is(err, ErrStopped) {
		t.Fatalf("Stream returned %v, want ErrStopped", err)
	}

	want := uint64(1)
	for _, f := range col.snapshot() {
		if f.Snapshot != nil {
			t.Fatal("unexpected snapshot frame on a zero-floor stream")
		}
		if f.EpochRaw.Seq != want || f.EpochRaw.Codec != wal.CodecV2.Version() {
			t.Fatalf("epoch seq %d codec %d, want seq %d codec 2", f.EpochRaw.Seq, f.EpochRaw.Codec, want)
		}
		want++
	}
	if want <= epochs {
		t.Fatalf("received %d epochs, want at least %d", want-1, epochs)
	}
}

// TestHubCatchUpAfterCheckpoint: a follower whose resume point predates the
// WAL floor gets a snapshot first, then the tail — and converges to the
// same state.
func TestHubCatchUpAfterCheckpoint(t *testing.T) {
	dir := t.TempDir()
	g := conn.New(64)
	b := conn.NewBatcher(g, conn.WithMaxDelay(0), conn.WithDurability(dir))
	defer b.Close()

	for i := 0; i < 8; i++ {
		b.Insert(int32(i), int32(i+1))
	}
	if _, err := b.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 8; i < 12; i++ {
		b.Insert(int32(i), int32(i+1))
	}

	h := NewHub(b, dir, 64)
	defer h.Stop()
	col := newCollector(12)
	done := make(chan error, 1)
	go func() { done <- h.Stream(0, col.send) }() // fromSeq 0 < floor 8
	select {
	case <-col.reach:
	case err := <-done:
		t.Fatalf("stream ended early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("catch-up did not reach the log tail")
	}
	h.Stop()
	<-done

	frames := col.snapshot()
	if frames[0].Snapshot == nil {
		t.Fatal("first frame of below-floor catch-up is not a snapshot")
	}
	// Rebuild follower-style and compare against the primary graph.
	fg, applied := replayFrames(t, frames)
	b.Flush()
	if applied < 12 {
		t.Fatalf("follower applied through %d, want ≥ 12", applied)
	}
	if fg.NumEdges() != 12 {
		t.Fatalf("follower has %d edges, want 12", fg.NumEdges())
	}
	for i := 0; i < 12; i++ {
		if !fg.HasEdge(int32(i), int32(i+1)) {
			t.Fatalf("follower missing edge {%d,%d}", i, i+1)
		}
	}
}

// TestHubDropsSlowFollower: a subscriber that cannot drain its buffer is
// dropped with ErrLagging instead of stalling the dispatcher.
func TestHubDropsSlowFollower(t *testing.T) {
	old := subscriberBuffer
	subscriberBuffer = 4
	defer func() { subscriberBuffer = old }()

	dir := t.TempDir()
	g := conn.New(64)
	b := conn.NewBatcher(g, conn.WithMaxDelay(0), conn.WithDurability(dir))
	defer b.Close()
	h := NewHub(b, dir, 64)
	defer h.Stop()

	block := make(chan struct{})
	var once sync.Once
	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- h.Stream(0, func(Frame) error {
			once.Do(func() { close(started) })
			<-block // follower connection "wedged"
			return nil
		})
	}()

	b.Insert(0, 1) // first epoch: reaches the blocked send
	<-started
	// Overflow the 4-slot buffer while send is blocked.
	for i := 1; i < 8; i++ {
		b.Insert(int32(i), int32(i+1))
	}
	close(block)
	select {
	case err := <-done:
		if !errors.Is(err, ErrLagging) {
			t.Fatalf("Stream returned %v, want ErrLagging", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("slow follower was not dropped")
	}
}

// oracleApplier is a follower-side Applier over a plain Graph, for tests.
type oracleApplier struct {
	mu      sync.Mutex
	g       *conn.Graph
	applied atomic.Uint64
	epochs  atomic.Int64
}

func (a *oracleApplier) AppliedSeq() uint64 { return a.applied.Load() }

func (a *oracleApplier) Universe() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.g.N()
}

func (a *oracleApplier) ApplySnapshot(seq uint64, n int, edges []conn.Edge) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	g := conn.New(n)
	g.InsertEdges(edges)
	a.g = g
	a.applied.Store(seq)
	return nil
}

func (a *oracleApplier) ApplyEpoch(seq uint64, ins, del []conn.Edge) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.g.InsertEdges(ins)
	a.g.DeleteEdges(del)
	a.applied.Store(seq)
	a.epochs.Add(1)
	return nil
}

// fakePrimary is a minimal wire server that serves scripted subscription
// streams, so follower behavior (resume point, reconnect, backoff) is
// testable without a real connserver.
type fakePrimary struct {
	ln       net.Listener
	mu       sync.Mutex
	resumes  []uint64 // FromSeq of each subscribe received
	sessions int
	serve    func(sess int, fromSeq uint64, send func(*wire.Response) error)
}

func newFakePrimary(t *testing.T) *fakePrimary {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &fakePrimary{ln: ln}
	go p.loop()
	return p
}

func (p *fakePrimary) loop() {
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		go p.handle(c)
	}
}

func (p *fakePrimary) handle(c net.Conn) {
	defer c.Close()
	br := bufio.NewReader(c)
	payload, err := wire.ReadFrame(br)
	if err != nil {
		return
	}
	req, err := wire.DecodeRequest(payload)
	if err != nil || req.Cmd != wire.CmdSubscribe {
		return
	}
	p.mu.Lock()
	p.resumes = append(p.resumes, req.FromSeq)
	sess := p.sessions
	p.sessions++
	serve := p.serve
	p.mu.Unlock()
	bw := bufio.NewWriter(c)
	send := func(resp *wire.Response) error {
		resp.ID = req.ID
		pl, err := wire.EncodeResponse(resp)
		if err != nil {
			return err
		}
		if err := wire.WriteFrame(bw, pl); err != nil {
			return err
		}
		return bw.Flush()
	}
	if serve != nil {
		serve(sess, req.FromSeq, send)
	}
}

// TestFollowerAppliesAndResumes: the follower applies a stream, survives a
// mid-stream disconnect, and resubscribes from its last applied seq.
func TestFollowerAppliesAndResumes(t *testing.T) {
	p := newFakePrimary(t)
	defer p.ln.Close()

	epoch := func(seq uint64) *wire.Response {
		return rawEpoch(wal.Record{Seq: seq, Ins: []conn.Edge{{U: int32(seq - 1), V: int32(seq)}}})
	}
	p.mu.Lock()
	p.serve = func(sess int, fromSeq uint64, send func(*wire.Response) error) {
		switch sess {
		case 0:
			// Session 1: epochs 1..3, then hang up mid-stream.
			for s := uint64(1); s <= 3; s++ {
				if send(epoch(s)) != nil {
					return
				}
			}
		default:
			// Later sessions: continue from wherever the follower resumed.
			for s := fromSeq + 1; s <= 6; s++ {
				if send(epoch(s)) != nil {
					return
				}
			}
			// Keep the connection open so the follower blocks in read.
			time.Sleep(time.Hour)
		}
	}
	p.mu.Unlock()

	a := &oracleApplier{g: conn.New(64)}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		RunFollower(stop, p.ln.Addr().String(), "g", a, FollowerOptions{
			MinBackoff: 5 * time.Millisecond, MaxBackoff: 50 * time.Millisecond,
		})
	}()

	deadline := time.Now().Add(10 * time.Second)
	for a.AppliedSeq() < 6 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if a.AppliedSeq() != 6 {
		t.Fatalf("follower applied through %d, want 6", a.AppliedSeq())
	}
	for s := uint64(1); s <= 6; s++ {
		if !a.g.HasEdge(int32(s-1), int32(s)) {
			t.Fatalf("missing edge from epoch %d", s)
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.resumes) < 2 {
		t.Fatalf("follower never reconnected: %d session(s)", len(p.resumes))
	}
	if p.resumes[0] != 0 {
		t.Fatalf("first subscribe resumed from %d, want 0", p.resumes[0])
	}
	if p.resumes[1] != 3 {
		t.Fatalf("reconnect resumed from %d, want 3 (last applied)", p.resumes[1])
	}
	if got := a.epochs.Load(); got != 6 {
		t.Fatalf("applied %d epochs, want exactly 6 (no duplicates)", got)
	}
}

// TestFollowerSnapshotReset: a snapshot frame replaces follower state
// wholesale, including chunked transfers.
func TestFollowerSnapshotReset(t *testing.T) {
	p := newFakePrimary(t)
	defer p.ln.Close()
	p.mu.Lock()
	p.serve = func(sess int, fromSeq uint64, send func(*wire.Response) error) {
		// Two chunks of one snapshot at seq 10, then one epoch.
		send(&wire.Response{Snapshot: &wire.SnapshotBody{
			Seq: 10, N: 32, Edges: []wire.Pair{{U: 1, V: 2}, {U: 2, V: 3}},
		}})
		send(&wire.Response{Snapshot: &wire.SnapshotBody{
			Seq: 10, N: 32, Final: true, Edges: []wire.Pair{{U: 5, V: 6}},
		}})
		send(rawEpoch(wal.Record{Seq: 11, Ins: []conn.Edge{{U: 7, V: 8}}}))
		time.Sleep(time.Hour)
	}
	p.mu.Unlock()

	a := &oracleApplier{g: conn.New(4)} // wrong universe: snapshot must replace it
	a.g.InsertEdges([]conn.Edge{{U: 0, V: 1}})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		RunFollower(stop, p.ln.Addr().String(), "g", a, FollowerOptions{
			MinBackoff: 5 * time.Millisecond,
		})
	}()
	deadline := time.Now().Add(10 * time.Second)
	for a.AppliedSeq() < 11 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if a.AppliedSeq() != 11 {
		t.Fatalf("follower applied through %d, want 11", a.AppliedSeq())
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.g.N() != 32 {
		t.Fatalf("snapshot did not replace the universe: n=%d", a.g.N())
	}
	for _, e := range []conn.Edge{{U: 1, V: 2}, {U: 2, V: 3}, {U: 5, V: 6}, {U: 7, V: 8}} {
		if !a.g.HasEdge(e.U, e.V) {
			t.Fatalf("missing edge {%d,%d}", e.U, e.V)
		}
	}
	if a.g.HasEdge(0, 1) {
		t.Fatal("pre-snapshot state survived the reset")
	}
}

// rawEpoch is the stream response carrying r as a v2 record, the way a
// primary with a fresh log ships it.
func rawEpoch(r wal.Record) *wire.Response {
	return &wire.Response{EpochRaw: &wire.EpochRawBody{
		Seq: r.Seq, Codec: wal.CodecV2.Version(), Enc: wal.CodecV2.Encode(nil, r)}}
}

// replayFrames rebuilds follower state from a captured frame sequence the
// way streamOnce would: snapshots replace, raw epochs decode through the
// codec registry. It returns the rebuilt graph and the last applied seq.
func replayFrames(t *testing.T, frames []Frame) (*conn.Graph, uint64) {
	t.Helper()
	var fg *conn.Graph
	var snapEdges []conn.Edge
	applied := uint64(0)
	for _, f := range frames {
		switch {
		case f.Snapshot != nil:
			for _, p := range f.Snapshot.Edges {
				snapEdges = append(snapEdges, conn.Edge{U: p.U, V: p.V})
			}
			if f.Snapshot.Final {
				fg = conn.New(int(f.Snapshot.N))
				fg.InsertEdges(snapEdges)
				applied, snapEdges = f.Snapshot.Seq, nil
			}
		case f.EpochRaw != nil:
			er := f.EpochRaw
			if er.Seq <= applied {
				continue
			}
			if er.Seq != applied+1 {
				t.Fatalf("raw epoch gap: applied %d, got %d", applied, er.Seq)
			}
			c, ok := wal.CodecByVersion(er.Codec)
			if !ok {
				t.Fatalf("raw epoch shipped unknown codec version %d", er.Codec)
			}
			rec, err := c.Decode(er.Enc, fg.N(), er.Seq-1)
			if err != nil {
				t.Fatalf("raw epoch %d undecodable: %v", er.Seq, err)
			}
			fg.InsertEdges(rec.Ins)
			fg.DeleteEdges(rec.Del)
			applied = er.Seq
		}
	}
	return fg, applied
}

// TestHubShipsRawCodec: a primary ships its v2 records unchanged
// (epochraw frames, live and catch-up), and below-floor catch-up ships the
// newest checkpoint, then the WAL tail from its seq — converging to the
// primary's exact state.
func TestHubShipsRawCodec(t *testing.T) {
	dir := t.TempDir()
	g := conn.New(64)
	b := conn.NewBatcher(g, conn.WithMaxDelay(0), conn.WithDurability(dir))
	defer b.Close()

	for i := 0; i < 6; i++ {
		b.Insert(int32(i), int32(i+1))
	}
	b.Insert(10, 11)
	b.Delete(0, 1)
	if _, err := b.Checkpoint(); err != nil { // moves the floor to seq 8
		t.Fatal(err)
	}
	b.Insert(11, 12) // WAL tail past the checkpoint

	h := NewHub(b, dir, 64)
	defer h.Stop()
	const lastCatchUp = 9
	col := newCollector(lastCatchUp)
	done := make(chan error, 1)
	go func() { done <- h.Stream(0, col.send) }() // fromSeq 0 < floor
	select {
	case <-col.reach:
	case err := <-done:
		t.Fatalf("stream ended early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("catch-up did not reach the log tail")
	}
	// Live phase after catch-up: still shipped raw.
	liveReach := col.retarget(lastCatchUp + 1)
	b.Insert(12, 13)
	select {
	case <-liveReach:
	case <-time.After(10 * time.Second):
		t.Fatal("live epoch never arrived")
	}
	h.Stop()
	<-done

	frames := col.snapshot()
	var sawSnapshot, sawRaw bool
	for _, f := range frames {
		sawSnapshot = sawSnapshot || f.Snapshot != nil
		if f.EpochRaw != nil {
			sawRaw = true
			if f.EpochRaw.Codec != wal.CodecV2.Version() {
				t.Fatalf("epoch %d shipped as codec %d, want 2", f.EpochRaw.Seq, f.EpochRaw.Codec)
			}
		}
	}
	if !sawSnapshot {
		t.Fatal("below-floor catch-up never shipped the checkpoint")
	}
	if !sawRaw {
		t.Fatal("primary never shipped an epoch frame")
	}

	fg, applied := replayFrames(t, frames)
	b.Flush()
	if want := b.WALSeq(); applied != want {
		t.Fatalf("follower applied through %d, primary at %d", applied, want)
	}
	if fg.NumEdges() != g.NumEdges() {
		t.Fatalf("follower has %d edges, primary has %d", fg.NumEdges(), g.NumEdges())
	}
	for _, e := range []conn.Edge{{U: 10, V: 11}, {U: 11, V: 12}, {U: 12, V: 13}} {
		if !fg.HasEdge(e.U, e.V) {
			t.Fatalf("follower missing edge {%d,%d}", e.U, e.V)
		}
	}
	if fg.HasEdge(0, 1) {
		t.Fatal("checkpointed deletion missing on the follower")
	}
}

// seedLegacyV1WAL writes an empty legacy log into dir: the documented WAL
// header (magic, version byte 1, n, baseSeq 0, crc32c) an older build
// created, so the Batcher opened on dir keeps appending v1 records.
func seedLegacyV1WAL(t *testing.T, dir string, n int) {
	t.Helper()
	hdr := append([]byte("connwal\x01"), make([]byte, 16)...)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(n))
	binary.LittleEndian.PutUint32(hdr[20:], crc32.Checksum(hdr[:20], crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(filepath.Join(dir, "wal.log"), hdr, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestHubShipsLegacyV1Log: a primary still appending to a legacy v1 log
// ships its records as codec-1 epochraw frames, on catch-up and live, and a
// real follower over the wire converges to the primary. The checkpoint
// upgrades the log to v2, and the epochs after it ship as codec 2.
func TestHubShipsLegacyV1Log(t *testing.T) {
	dir := t.TempDir()
	seedLegacyV1WAL(t, dir, 64)
	g := conn.New(64)
	b := conn.NewBatcher(g, conn.WithMaxDelay(0), conn.WithDurability(dir))
	defer b.Close()
	for i := 0; i < 6; i++ {
		b.Insert(int32(i), int32(i+1))
	}
	b.Delete(0, 1) // seq 7: on disk before any follower subscribes

	h := NewHub(b, dir, 64)
	defer h.Stop()
	col := newCollector(0)
	p := newFakePrimary(t)
	defer p.ln.Close()
	p.mu.Lock()
	p.serve = func(_ int, fromSeq uint64, send func(*wire.Response) error) {
		_ = h.Stream(fromSeq, func(f Frame) error {
			_ = col.send(f)
			return send(&wire.Response{Snapshot: f.Snapshot, EpochRaw: f.EpochRaw})
		})
	}
	p.mu.Unlock()

	a := &oracleApplier{g: conn.New(64)}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		RunFollower(stop, p.ln.Addr().String(), "g", a, FollowerOptions{MinBackoff: 5 * time.Millisecond})
	}()
	waitApplied := func(seq uint64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for a.AppliedSeq() < seq && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
		if a.AppliedSeq() < seq {
			t.Fatalf("follower applied through %d, want %d", a.AppliedSeq(), seq)
		}
	}
	waitApplied(7)
	b.Insert(20, 21) // seq 8: still appended to the v1 file
	waitApplied(8)
	if _, err := b.Checkpoint(); err != nil { // Reset: the log becomes v2
		t.Fatal(err)
	}
	b.Insert(21, 22) // seq 9: the first v2 record
	waitApplied(9)
	close(stop)
	h.Stop()
	wg.Wait()

	for _, f := range col.snapshot() {
		if f.Snapshot != nil {
			t.Fatal("follower resuming at the log tail was sent a snapshot")
		}
		want := wal.CodecV1.Version()
		if f.EpochRaw.Seq > 8 {
			want = wal.CodecV2.Version()
		}
		if f.EpochRaw.Codec != want {
			t.Fatalf("epoch %d shipped as codec %d, want %d", f.EpochRaw.Seq, f.EpochRaw.Codec, want)
		}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.g.NumEdges() != g.NumEdges() {
		t.Fatalf("follower has %d edges, primary has %d", a.g.NumEdges(), g.NumEdges())
	}
	for _, e := range []conn.Edge{{U: 1, V: 2}, {U: 5, V: 6}, {U: 20, V: 21}, {U: 21, V: 22}} {
		if !a.g.HasEdge(e.U, e.V) {
			t.Fatalf("follower missing edge {%d,%d}", e.U, e.V)
		}
	}
	if a.g.HasEdge(0, 1) {
		t.Fatal("legacy-logged deletion not applied on the follower")
	}
}

// TestFollowerAppliesRawFrames drives streamOnce's epochraw branch through
// a scripted primary: snapshot, then v2-encoded raw epochs — and verifies a
// raw epoch that skips a seq severs the stream instead of applying.
func TestFollowerAppliesRawFrames(t *testing.T) {
	p := newFakePrimary(t)
	defer p.ln.Close()

	v2 := wal.CodecV2
	raw11 := v2.Encode(nil, wal.Record{Seq: 11, Ins: []conn.Edge{{U: 5, V: 6}}, Del: []conn.Edge{{U: 2, V: 3}}})
	raw12 := v2.Encode(nil, wal.Record{Seq: 12, Ins: []conn.Edge{{U: 7, V: 8}}})
	gap := v2.Encode(nil, wal.Record{Seq: 30, Ins: []conn.Edge{{U: 9, V: 10}}})
	p.mu.Lock()
	p.serve = func(sess int, fromSeq uint64, send func(*wire.Response) error) {
		if sess > 0 {
			time.Sleep(time.Hour) // no help for a severed stream: one shot
		}
		send(&wire.Response{Snapshot: &wire.SnapshotBody{
			Seq: 10, N: 32, Final: true, Edges: []wire.Pair{{U: 1, V: 2}, {U: 2, V: 3}},
		}})
		send(&wire.Response{EpochRaw: &wire.EpochRawBody{Seq: 11, Codec: v2.Version(), Enc: raw11}})
		send(&wire.Response{EpochRaw: &wire.EpochRawBody{Seq: 12, Codec: v2.Version(), Enc: raw12}})
		// Seq gap: 30 after 12. Must error, not apply.
		send(&wire.Response{EpochRaw: &wire.EpochRawBody{Seq: 30, Codec: v2.Version(), Enc: gap}})
		time.Sleep(time.Hour)
	}
	p.mu.Unlock()

	a := &oracleApplier{g: conn.New(4)}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		RunFollower(stop, p.ln.Addr().String(), "g", a, FollowerOptions{
			MinBackoff: 5 * time.Millisecond,
		})
	}()
	deadline := time.Now().Add(10 * time.Second)
	for a.AppliedSeq() < 12 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	// Give the gapped epoch a moment to (wrongly) land before stopping.
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	if a.AppliedSeq() != 12 {
		t.Fatalf("follower applied through %d, want 12", a.AppliedSeq())
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, e := range []conn.Edge{{U: 1, V: 2}, {U: 5, V: 6}, {U: 7, V: 8}} {
		if !a.g.HasEdge(e.U, e.V) {
			t.Fatalf("missing edge {%d,%d}", e.U, e.V)
		}
	}
	if a.g.HasEdge(2, 3) {
		t.Fatal("raw epoch deletion not applied")
	}
	if a.g.HasEdge(9, 10) {
		t.Fatal("gapped raw epoch was applied")
	}
}

// TestHubStats: subscriber counts and shipped seqs are reported.
func TestHubStats(t *testing.T) {
	dir := t.TempDir()
	g := conn.New(64)
	b := conn.NewBatcher(g, conn.WithMaxDelay(0), conn.WithDurability(dir))
	defer b.Close()
	h := NewHub(b, dir, 64)
	defer h.Stop()

	if n, _, _ := h.Stats(); n != 0 {
		t.Fatalf("fresh hub reports %d subscribers", n)
	}
	col := newCollector(3)
	done := make(chan error, 1)
	go func() { done <- h.Stream(0, col.send) }()
	for i := 0; i < 3; i++ {
		b.Insert(int32(i), int32(i+1))
	}
	<-col.reach
	n, shipped, _ := h.Stats()
	if n != 1 {
		t.Fatalf("Stats subscribers = %d, want 1", n)
	}
	if shipped != 3 {
		t.Fatalf("Stats lastShipped = %d, want 3", shipped)
	}
	h.Stop()
	<-done
	if n, _, _ := h.Stats(); n != 0 {
		t.Fatalf("stopped hub reports %d subscribers", n)
	}
}
