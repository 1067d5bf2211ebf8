// Package topo is the whole-topology chaos harness: it stands up a real
// sharded durable primary plus read replicas as child processes of the
// current binary, drives randomized workloads through the public client,
// injects a seeded fault schedule (SIGKILLs mid-epoch, torn WAL tails on
// restart, dropped replication streams, reset connections, failed
// checkpoint truncations), and then proves four invariants against
// union-find oracles replayed from acknowledged operations only:
//
//  1. Durability — every acknowledged write survives crash-restore.
//  2. Connectivity — full pairwise connectivity equals the oracle replay.
//  3. Read-your-writes — replica-routed reads never regress behind the
//     client's observed seq fence (a replica claiming a seq ahead of the
//     state it serves surfaces as a probe timeout).
//  4. Shard agreement — the sharded namespace's composed answers equal an
//     unsharded oracle over the same acked operations.
//
// Everything random flows from one seed: the workload, the fault schedule
// (via internal/chaos, whose per-site fire pattern is a pure function of
// seed, site, and hit index), and the kill plan. Re-running with the same
// seed replays the same schedule; the OS-level interleaving of processes is
// of course not reproducible, which is exactly the point — the invariants
// must hold on every interleaving the schedule provokes.
package topo

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"strings"
	"sync"
	"time"

	conn "repro"
	"repro/client"
	"repro/internal/chaos"
)

// Namespaces the harness drives. flat is durable, unsharded and replicated;
// grid is durable and hash-partitioned (the replica manager skips sharded
// namespaces, so grid is verified on the primary only).
const (
	nsFlat = "flat"
	nsGrid = "grid"
)

// universe is the vertex count of both namespaces. Small enough that the
// final sweep checks every one of the n(n-1)/2 pairs; the top two vertices
// are reserved for the read-your-writes probe.
const universe = 48

// defaultPrimarySchedule is the fault mix armed in every primary
// incarnation (planned kills and chaos-induced panics alike respawn with
// it). WAL append failures panic the engine — fail-stop — so the pre-fsync
// torn write and the post-fsync ack loss both crash the primary for real,
// and the torn-tail site corrupts some of the subsequent restores.
var defaultPrimarySchedule = chaos.SiteServerConnRead.String() + ":drop@p=0.008;" +
	chaos.SiteServerConnWrite.String() + ":drop@p=0.008;" +
	chaos.SiteServerAccept.String() + ":delay=2ms@p=0.05;" +
	chaos.SiteReplStreamSend.String() + ":delay=5ms@p=0.02;" +
	chaos.SiteReplStreamSend.String() + ":drop@p=0.004;" +
	chaos.SiteReplSnapshotSend.String() + ":drop@p=0.1,times=4;" +
	chaos.SiteEngineCheckpointReset.String() + ":fail@nth=1;" +
	chaos.SiteWALAppendPostFsync.String() + ":fail@nth=150;" +
	chaos.SiteWALAppendPreFsync.String() + ":torn@after=60,p=0.05,times=1;" +
	chaos.SiteWALOpenTornTail.String() + ":torn@p=0.4"

// defaultReplicaSchedule keeps replicas under mild connection chaos: the
// subscription stream drops and resubscribes, and served reads see resets.
var defaultReplicaSchedule = chaos.SiteReplFollowerConn.String() + ":drop@p=0.01;" +
	chaos.SiteServerConnRead.String() + ":drop@p=0.004;" +
	chaos.SiteServerConnWrite.String() + ":drop@p=0.004"

// Config parameterizes one chaos run. The zero value of each field selects
// the default noted on it; Seed has no default — seed 0 is a real seed.
type Config struct {
	Seed     int64
	Shards   int           // grid namespace partition count (default 3)
	Replicas int           // read replica count (default 2; negative means none)
	Duration time.Duration // length of the fault-injection phase (default 4s)
	Schedule string        // overrides defaultPrimarySchedule when non-empty

	Logf     func(format string, args ...any)
	ChildLog io.Writer // child process stderr (default: discarded)
}

func (cfg Config) withDefaults() Config {
	if cfg.Shards <= 0 {
		cfg.Shards = 3
	}
	if cfg.Replicas < 0 {
		cfg.Replicas = 0
	} else if cfg.Replicas == 0 {
		cfg.Replicas = 2
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 4 * time.Second
	}
	return cfg
}

// repro is the exact command that replays this configuration.
func (cfg Config) repro() string {
	s := fmt.Sprintf("go run ./cmd/connchaos -seed %d -topology %dx%d -duration %s",
		cfg.Seed, cfg.Shards, cfg.Replicas, cfg.Duration)
	if cfg.Schedule != "" {
		s += fmt.Sprintf(" -schedule %q", cfg.Schedule)
	}
	return s
}

// driver is the shared state of one run: addresses, oracles, the stop
// signal, and the violation list every goroutine reports into.
type driver struct {
	cfg          Config
	n            int
	primaryAddr  string
	replicaAddrs []string
	flatOracle   *oracle
	gridOracle   *oracle
	stop         chan struct{}
	wg           sync.WaitGroup

	vmu        sync.Mutex
	violations []string
}

func (d *driver) violatef(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	d.vmu.Lock()
	d.violations = append(d.violations, msg)
	d.vmu.Unlock()
	if d.cfg.Logf != nil {
		d.cfg.Logf("connchaos: VIOLATION: %s", msg)
	}
}

func (d *driver) failed() []string {
	d.vmu.Lock()
	defer d.vmu.Unlock()
	return append([]string(nil), d.violations...)
}

// ------------------------------------------------------------- supervisor

// supervisor owns one child server process and respawns it whenever it
// dies — whether from a planned SIGKILL or a chaos-induced panic. The
// schedule field is re-read at every spawn, so swapping it (or clearing it)
// takes effect on the next incarnation.
type supervisor struct {
	name     string
	logf     func(format string, args ...any)
	childLog io.Writer

	mu       sync.Mutex
	cmd      *exec.Cmd
	stopped  bool
	schedule string
	seed     int64
	role     string
	addr     string
	data     string
	primary  string

	done chan struct{}
}

func (s *supervisor) start() {
	s.done = make(chan struct{})
	go s.loop()
}

func (s *supervisor) loop() {
	defer close(s.done)
	for {
		s.mu.Lock()
		if s.stopped {
			s.mu.Unlock()
			return
		}
		cmd := exec.Command(os.Args[0])
		cmd.Env = childEnv(s.role, s.addr, s.data, s.primary, s.seed, s.schedule)
		cmd.Stdout = s.childLog
		cmd.Stderr = s.childLog
		err := cmd.Start()
		if err == nil {
			s.cmd = cmd
		}
		s.mu.Unlock()
		if err != nil {
			s.logf("connchaos: %s: spawn: %v", s.name, err)
			return
		}
		_ = cmd.Wait()
		s.mu.Lock()
		s.cmd = nil
		stopped := s.stopped
		s.mu.Unlock()
		if stopped {
			return
		}
		// Give the OS a beat to release the listen address before rebinding.
		time.Sleep(30 * time.Millisecond)
	}
}

// kill SIGKILLs the current incarnation; the loop respawns it. Nothing in
// the child gets to run shutdown code — that is the contract under test.
func (s *supervisor) kill() {
	s.mu.Lock()
	cmd := s.cmd
	s.mu.Unlock()
	if cmd != nil && cmd.Process != nil {
		_ = cmd.Process.Kill()
	}
}

// setSchedule changes the chaos schedule for future incarnations ("" runs
// them clean).
func (s *supervisor) setSchedule(sched string) {
	s.mu.Lock()
	s.schedule = sched
	s.mu.Unlock()
}

// stopAndWait kills the child for good and waits for the respawn loop to
// exit.
func (s *supervisor) stopAndWait() {
	s.mu.Lock()
	s.stopped = true
	cmd := s.cmd
	s.mu.Unlock()
	if cmd != nil && cmd.Process != nil {
		_ = cmd.Process.Kill()
	}
	<-s.done
}

// ------------------------------------------------------------- plumbing

func pickAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	l.Close()
	return addr, nil
}

// waitPing blocks until the server at addr answers a ping — retrying
// through chaos-induced resets and restart windows.
func waitPing(addr string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var last error
	for {
		c, err := client.Dial(addr, client.WithDialTimeout(500*time.Millisecond))
		if err == nil {
			err = c.Ping()
			c.Close()
			if err == nil {
				return nil
			}
		}
		last = err
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s not serving after %v: %v", addr, timeout, last)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// waitApplied blocks until the replica at addr reports an applied seq of at
// least fence for ns. A freshly respawned replica takes a while to even
// rediscover the namespace; every error here just means "not yet".
func waitApplied(addr, ns string, fence uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var lastSeq uint64
	for {
		c, err := client.Dial(addr, client.WithDialTimeout(500*time.Millisecond))
		if err == nil {
			st, serr := c.Namespace(ns).Stats()
			c.Close()
			if serr == nil {
				lastSeq = st.AppliedSeq
				if lastSeq >= fence {
					return nil
				}
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replica %s: applied seq %d never reached fence %d within %v",
				addr, lastSeq, fence, timeout)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// ensure retries a namespace-create until it sticks. Under chaos the ack
// may be dropped after the create applied, so "already exists" is success.
func ensure(create func() error) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := create()
		if err == nil || errors.Is(err, client.ErrExists) {
			return nil
		}
		if time.Now().After(deadline) {
			return err
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// ------------------------------------------------------------- final sweep

// wantBits evaluates the oracle labelling over a pair list.
func wantBits(labels []int32, pairs []conn.Edge) []bool {
	out := make([]bool, len(pairs))
	for i, p := range pairs {
		out[i] = labels[p.U] == labels[p.V]
	}
	return out
}

// sweep compares one server's connectivity answers against the oracle over
// every pair, chunked to keep frames bounded. read issues one chunk on the
// given tier. Mismatches become violations (capped, with a count).
func (d *driver) sweep(desc, addr, nsName string,
	read func(ns *client.Namespace, qs []conn.Edge) ([]bool, error),
	pairs []conn.Edge, want []bool) {
	c, err := client.Dial(addr, client.WithDialTimeout(2*time.Second))
	if err != nil {
		d.violatef("%s: dial for sweep: %v", desc, err)
		return
	}
	defer c.Close()
	ns := c.Namespace(nsName)
	const chunk = 256
	mismatches := 0
	for off := 0; off < len(pairs); off += chunk {
		qs := pairs[off:min(off+chunk, len(pairs))]
		var bits []bool
		for attempt := 0; ; attempt++ {
			bits, err = read(ns, qs)
			if err == nil || attempt == 4 {
				break
			}
			time.Sleep(100 * time.Millisecond)
		}
		if err != nil {
			d.violatef("%s: sweep read failed: %v", desc, err)
			return
		}
		if len(bits) != len(qs) {
			d.violatef("%s: sweep returned %d bits for %d pairs", desc, len(bits), len(qs))
			return
		}
		for i, got := range bits {
			if got != want[off+i] {
				if mismatches < 5 {
					p := pairs[off+i]
					d.violatef("%s: connected(%d,%d) = %v, oracle says %v", desc, p.U, p.V, got, want[off+i])
				}
				mismatches++
			}
		}
	}
	if mismatches > 5 {
		d.violatef("%s: %d pairwise mismatches total (first 5 shown)", desc, mismatches)
	}
}

// ------------------------------------------------------------- Run

// Run executes one seeded chaos scenario and returns nil only if every
// invariant held. The error message embeds the exact repro command.
func Run(cfg Config) error {
	cfg = cfg.withDefaults()
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	childLog := cfg.ChildLog
	if childLog == nil {
		childLog = io.Discard
	}
	// Fail fast on a malformed schedule: children would panic on it.
	if cfg.Schedule != "" {
		if _, err := chaos.NewPlan(cfg.Seed, cfg.Schedule); err != nil {
			return err
		}
	}

	dataDir, err := os.MkdirTemp("", "connchaos-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dataDir)

	primaryAddr, err := pickAddr()
	if err != nil {
		return err
	}
	replicaAddrs := make([]string, cfg.Replicas)
	for i := range replicaAddrs {
		if replicaAddrs[i], err = pickAddr(); err != nil {
			return err
		}
	}

	d := &driver{
		cfg:          cfg,
		n:            universe,
		primaryAddr:  primaryAddr,
		replicaAddrs: replicaAddrs,
		flatOracle:   &oracle{},
		gridOracle:   &oracle{},
		stop:         make(chan struct{}),
	}
	fail := func(format string, args ...any) error {
		return fmt.Errorf("%s\nrepro: %s", fmt.Sprintf(format, args...), cfg.repro())
	}

	primarySched := cfg.Schedule
	if primarySched == "" {
		primarySched = defaultPrimarySchedule
	}
	prim := &supervisor{
		name: "primary", logf: logf, childLog: childLog,
		role: rolePrimary, addr: primaryAddr, data: dataDir,
		seed: cfg.Seed, schedule: primarySched,
	}
	prim.start()
	defer prim.stopAndWait()
	if err := waitPing(primaryAddr, 15*time.Second); err != nil {
		return fail("primary never came up: %v", err)
	}

	admin, err := client.Dial(primaryAddr, client.WithDialTimeout(2*time.Second))
	if err != nil {
		return fail("admin dial: %v", err)
	}
	if err := ensure(func() error { return admin.Create(nsFlat, universe, true) }); err != nil {
		admin.Close()
		return fail("create %s: %v", nsFlat, err)
	}
	if err := ensure(func() error { return admin.CreateSharded(nsGrid, universe, true, cfg.Shards) }); err != nil {
		admin.Close()
		return fail("create %s: %v", nsGrid, err)
	}
	admin.Close()

	reps := make([]*supervisor, cfg.Replicas)
	for i := range reps {
		reps[i] = &supervisor{
			name: fmt.Sprintf("replica%d", i), logf: logf, childLog: childLog,
			role: roleReplica, addr: replicaAddrs[i], primary: primaryAddr,
			// Distinct derived seeds so the replicas' fault patterns differ.
			seed: cfg.Seed + int64(i+1)*7919, schedule: defaultReplicaSchedule,
		}
		reps[i].start()
		defer reps[i].stopAndWait()
	}
	for i := range reps {
		if err := waitPing(replicaAddrs[i], 15*time.Second); err != nil {
			return fail("replica %d never came up: %v", i, err)
		}
	}

	// Workload: two writers per namespace over disjoint vertex ranges, the
	// read-your-writes probe on the reserved pair, and a checkpointer.
	rng := rand.New(rand.NewSource(cfg.Seed))
	half := int32(universe-2) / 2
	writers := []struct {
		ns     string
		lo, hi int32
		oc     *oracle
	}{
		{nsFlat, 0, half, d.flatOracle},
		{nsFlat, half, universe - 2, d.flatOracle},
		{nsGrid, 0, universe / 2, d.gridOracle},
		{nsGrid, universe / 2, universe, d.gridOracle},
	}
	for _, w := range writers {
		d.wg.Add(1)
		go d.runWriter(w.ns, w.lo, w.hi, rand.New(rand.NewSource(rng.Int63())), w.oc)
	}
	d.wg.Add(1)
	go d.runProbe()
	d.wg.Add(1)
	go d.runCheckpointer(cfg.Duration / 6)

	// Kill plan: fractions of the fault phase, drawn from the run seed.
	type event struct {
		at   time.Duration
		what string
		do   func()
	}
	var plan []event
	if len(reps) > 0 {
		plan = append(plan, event{cfg.Duration * 25 / 100, "SIGKILL replica 0", reps[0].kill})
	}
	plan = append(plan, event{cfg.Duration * 45 / 100, "SIGKILL primary mid-traffic", prim.kill})
	if len(reps) > 0 {
		last := len(reps) - 1
		plan = append(plan, event{cfg.Duration * 70 / 100,
			fmt.Sprintf("SIGKILL replica %d", last), reps[last].kill})
	}
	if rng.Intn(2) == 0 {
		plan = append(plan, event{cfg.Duration * 85 / 100, "second primary SIGKILL", prim.kill})
	}
	start := time.Now()
	for _, ev := range plan {
		if wait := ev.at - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		logf("connchaos: t=%v %s", ev.at, ev.what)
		ev.do()
	}
	if rest := cfg.Duration - time.Since(start); rest > 0 {
		time.Sleep(rest)
	}

	// Final phase: disarm everything, SIGKILL the whole topology mid-traffic
	// one last time, and let it come back clean — the respawned replicas
	// rediscover and catch up from scratch.
	logf("connchaos: fault phase over; disarming, final SIGKILL, verifying")
	prim.setSchedule("")
	prim.kill()
	for _, r := range reps {
		r.setSchedule("")
		r.kill()
	}
	if err := waitPing(primaryAddr, 20*time.Second); err != nil {
		return fail("primary never recovered for verification: %v", err)
	}
	time.Sleep(300 * time.Millisecond) // post-recovery traffic against the clean topology
	close(d.stop)
	d.wg.Wait()

	// Fence: one last acked flat mutation pins the seq every replica must
	// reach before its state is judged. Insert-then-delete of the reserved
	// pair in one batch leaves the edge set unchanged; it still goes through
	// the oracle so replay stays exact even if the probe stopped mid-cycle.
	fc, err := client.Dial(primaryAddr, client.WithDialTimeout(2*time.Second))
	if err != nil {
		return fail("fence dial: %v", err)
	}
	fenceOps := []conn.Op{
		{Kind: conn.OpInsert, U: universe - 2, V: universe - 1},
		{Kind: conn.OpDelete, U: universe - 2, V: universe - 1},
	}
	if d.ackBatch(fc.Namespace(nsFlat), fenceOps) {
		d.flatOracle.append(fenceOps)
	}
	fence := fc.ObservedSeq(nsFlat)
	fc.Close()
	logf("connchaos: fence seq %d; %d flat / %d grid acked batches",
		fence, d.flatOracle.count(), d.gridOracle.count())

	for i, addr := range replicaAddrs {
		if err := waitApplied(addr, nsFlat, fence, 20*time.Second); err != nil {
			d.violatef("replica %d: %v", i, err)
		}
	}

	pairs := allPairs(universe)
	flatWant := wantBits(d.flatOracle.labels(universe), pairs)
	gridWant := wantBits(d.gridOracle.labels(universe), pairs)
	readNow := func(ns *client.Namespace, qs []conn.Edge) ([]bool, error) {
		return ns.ReadNowBatch(qs)
	}
	readRecent := func(ns *client.Namespace, qs []conn.Edge) ([]bool, error) {
		return ns.ReadRecentBatch(qs)
	}
	connected := func(ns *client.Namespace, qs []conn.Edge) ([]bool, error) {
		return ns.ConnectedBatch(qs)
	}
	d.sweep("primary "+nsFlat+" (ReadNow)", primaryAddr, nsFlat, readNow, pairs, flatWant)
	for i, addr := range replicaAddrs {
		d.sweep(fmt.Sprintf("replica %d %s (ReadRecent)", i, nsFlat), addr, nsFlat, readRecent, pairs, flatWant)
	}
	d.sweep("primary "+nsGrid+" (Connected, sharded)", primaryAddr, nsGrid, connected, pairs, gridWant)

	if v := d.failed(); len(v) > 0 {
		return fail("%d invariant violation(s):\n  %s", len(v), strings.Join(v, "\n  "))
	}
	logf("connchaos: all invariants held over %d pairs × %d states", len(pairs), 2+len(replicaAddrs))
	return nil
}
