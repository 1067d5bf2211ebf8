// Replica example: WAL-shipping read replicas under real process kills.
//
// The parent re-executes itself as three child servers — one durable
// primary and two read-only replicas following it — then drives traffic
// through a routing client (client.WithReplicas) while a writer extends a
// path graph on the primary one acknowledged insert at a time. Mid-traffic
// it SIGKILLs one replica and shows reads failing over without a single
// user-visible error; restarts the replica and shows it catching up from
// the primary's checkpoint + WAL tail (the primary checkpointed meanwhile,
// so the dead replica's resume point is below the WAL floor — the snapshot
// path, not just a tail replay); and finally SIGKILLs the primary itself
// and shows the replicas still answering bounded-stale reads from their
// last applied state.
//
//	go run ./examples/replica
package main

import (
	"fmt"
	"log"
	"net"
	"os"
	"os/exec"
	"time"

	"repro/client"
	"repro/internal/server"
)

const (
	roleEnv    = "CONN_REPLICA_ROLE"
	addrEnv    = "CONN_REPLICA_ADDR"
	dataEnv    = "CONN_REPLICA_DATA"
	primaryEnv = "CONN_REPLICA_PRIMARY"

	universe = 1 << 13
	ns       = "social"
)

func main() {
	if role := os.Getenv(roleEnv); role != "" {
		child(role)
		return
	}
	parent()
}

// child runs one server process until killed.
func child(role string) {
	logger := log.New(os.Stderr, role+": ", 0)
	opts := server.Options{Logf: logger.Printf}
	switch role {
	case "primary":
		opts.DataDir = os.Getenv(dataEnv)
	case "replica":
		opts.ReplicaOf = os.Getenv(primaryEnv)
	default:
		logger.Fatalf("unknown role %q", role)
	}
	srv, err := server.New(opts)
	if err != nil {
		logger.Fatal(err)
	}
	if err := srv.ListenAndServe(os.Getenv(addrEnv)); err != nil {
		logger.Fatal(err)
	}
}

// pickAddr reserves a loopback port by listening and immediately closing.
func pickAddr() string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func fatal(v ...any) {
	fmt.Fprintln(os.Stderr, v...)
	os.Exit(1)
}

// spawn starts one child server process.
func spawn(role, addr, data, primary string) *exec.Cmd {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		roleEnv+"="+role, addrEnv+"="+addr, dataEnv+"="+data, primaryEnv+"="+primary)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		fatal(err)
	}
	return cmd
}

// waitPing polls until a server answers on addr.
func waitPing(addr string) {
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		cl, err := client.Dial(addr, client.WithDialTimeout(time.Second))
		if err == nil {
			err = cl.Ping()
			cl.Close()
			if err == nil {
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	fatal("server at " + addr + " never came up")
}

// appliedSeq reads a replica's applied seq for the namespace (0 on error).
func appliedSeq(addr string) uint64 {
	cl, err := client.Dial(addr, client.WithDialTimeout(time.Second))
	if err != nil {
		return 0
	}
	defer cl.Close()
	st, err := cl.Namespace(ns).Stats()
	if err != nil {
		return 0
	}
	return st.AppliedSeq
}

// waitApplied polls until the replica has applied at least seq.
func waitApplied(addr string, seq uint64) time.Duration {
	t0 := time.Now()
	deadline := t0.Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if appliedSeq(addr) >= seq {
			return time.Since(t0)
		}
		time.Sleep(10 * time.Millisecond)
	}
	fatal("replica at " + addr + " never caught up")
	return 0
}

func parent() {
	dir, err := os.MkdirTemp("", "conn-replica-*")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)

	primaryAddr, r1Addr, r2Addr := pickAddr(), pickAddr(), pickAddr()
	primary := spawn("primary", primaryAddr, dir, "")
	defer func() { primary.Process.Kill(); primary.Wait() }()
	waitPing(primaryAddr)

	wcl, err := client.Dial(primaryAddr)
	if err != nil {
		fatal(err)
	}
	defer wcl.Close()
	if err := wcl.Create(ns, universe, true); err != nil {
		fatal(err)
	}
	wns := wcl.Namespace(ns)

	// Writer: extend a path graph one acknowledged insert at a time, so
	// "state at seq s" is trivially checkable (0 connects to the frontier).
	frontier := 0
	extend := func(k int) {
		for i := 0; i < k; i++ {
			if _, err := wns.Insert(int32(frontier), int32(frontier+1)); err != nil {
				fatal("writer:", err)
			}
			frontier++
		}
	}
	extend(500)

	r1 := spawn("replica", r1Addr, "", primaryAddr)
	defer func() {
		if r1 != nil && r1.Process != nil {
			r1.Process.Kill()
			r1.Wait()
		}
	}()
	r2 := spawn("replica", r2Addr, "", primaryAddr)
	defer func() { r2.Process.Kill(); r2.Wait() }()
	waitPing(r1Addr)
	waitPing(r2Addr)
	seq := wcl.ObservedSeq(ns)
	waitApplied(r1Addr, seq)
	waitApplied(r2Addr, seq)
	fmt.Printf("primary %s + replicas %s, %s — all caught up at seq %d (path frontier %d)\n",
		primaryAddr, r1Addr, r2Addr, seq, frontier)

	// Routing client: bounded-stale reads fan out over the replicas.
	rcl, err := client.Dial(primaryAddr, client.WithReplicas(r1Addr, r2Addr))
	if err != nil {
		fatal(err)
	}
	defer rcl.Close()
	rns := rcl.Namespace(ns)
	read := func(rounds int) (okCount, errCount int) {
		for i := 0; i < rounds; i++ {
			ok, err := rns.ReadRecent(0, int32(frontier))
			if err != nil {
				errCount++
			} else if ok {
				okCount++
			}
		}
		return
	}
	if ok, errs := read(200); errs > 0 || ok == 0 {
		fatal(fmt.Sprintf("baseline reads: %d ok, %d errors", ok, errs))
	}
	fmt.Println("routing client serving ReadRecent from the replica set ✓")

	// --- Kill one replica mid-traffic: routing must fail over.
	r1.Process.Kill()
	r1.Wait()
	extend(200)
	ok, errs := read(200)
	fmt.Printf("SIGKILL replica 1 mid-traffic: %d/%d reads served, %d errors (failover to replica 2 / primary) %s\n",
		ok, ok, errs, checkmark(errs == 0))
	if errs > 0 {
		fatal("reads failed after replica kill")
	}

	// --- Checkpoint so the dead replica's resume point falls below the WAL
	// floor, then restart it: catch-up must go through the snapshot path.
	if _, err := wns.Checkpoint(); err != nil {
		fatal(err)
	}
	extend(200)
	r1 = spawn("replica", r1Addr, "", primaryAddr)
	waitPing(r1Addr)
	d := waitApplied(r1Addr, wcl.ObservedSeq(ns))
	direct, err := client.Dial(r1Addr)
	if err != nil {
		fatal(err)
	}
	okFront, err1 := direct.Namespace(ns).ReadNow(0, int32(frontier))
	okPast, err2 := direct.Namespace(ns).ReadNow(0, int32(frontier+1))
	direct.Close()
	if err1 != nil || err2 != nil || !okFront || okPast {
		fatal("restarted replica state is wrong")
	}
	fmt.Printf("replica 1 restarted: checkpoint+tail catch-up in %v, state matches the primary ✓\n",
		d.Round(time.Millisecond))

	// --- Kill the primary: replicas keep serving bounded-stale reads.
	primaryFrontier := frontier
	primary.Process.Kill()
	primary.Wait()
	ok, errs = read(200)
	fmt.Printf("SIGKILL primary: %d reads still served from replicas, %d errors %s\n",
		ok, errs, checkmark(ok > 0 && errs == 0))
	if ok == 0 || errs > 0 {
		fatal("replicas stopped serving after primary death")
	}
	// Writes now fail with a transport error (the primary is simply gone);
	// against a live replica they fail with a typed redirect instead.
	if _, err := wns.Insert(int32(frontier), int32(frontier+1)); err == nil {
		fatal("write succeeded with no primary")
	}
	fmt.Printf("replicas answer exactly the last replicated state (path of %d edges), writes refused — bounded staleness, not silent divergence\n",
		primaryFrontier)
}

func checkmark(ok bool) string {
	if ok {
		return "✓"
	}
	return "✗"
}
