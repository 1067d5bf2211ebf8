// Durable example: kill the process mid-stream, resurrect it, lose nothing.
//
// The parent re-executes itself as a child worker three times. Each child
// restores the durability directory (empty on the first round), wraps the
// graph in a durable Batcher, and extends a path graph one acknowledged
// insert at a time, printing "ack u v" after each Insert returns. The
// parent reads a quota of acks and then SIGKILLs the child — no shutdown
// hook, no Close, the process just dies, possibly mid-fsync. It then
// Restores the directory and checks the durability contract: every insert
// that was acknowledged before the kill is present in the recovered graph.
//
// The last round also takes a checkpoint and shows the WAL shrinking: the
// snapshot now carries the history and a restart replays only the tail.
//
//	go run ./examples/durable
package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"time"

	conn "repro"
)

const (
	childEnv = "CONN_DURABLE_CHILD_DIR"
	universe = 1 << 14
)

func main() {
	if dir := os.Getenv(childEnv); dir != "" {
		child(dir)
		return
	}
	parent()
}

// child is the worker process: restore, then stream acknowledged inserts
// until killed. It never exits cleanly on its own.
func child(dir string) {
	g, err := conn.Restore(dir)
	if errors.Is(err, conn.ErrNoDurableState) {
		g = conn.New(universe) // first boot: nothing to recover
	} else if err != nil {
		// Any other failure means durable state exists but cannot be read;
		// starting empty would overwrite real history. Fail loudly.
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	start := int32(g.NumEdges()) // path edges {i, i+1} were inserted in order
	b := conn.NewBatcher(g, conn.WithDurability(dir))
	defer b.Close()
	for i := start; i < universe-1; i++ {
		b.Insert(i, i+1) // returns only after the epoch is fsynced
		fmt.Printf("ack %d %d\n", i, i+1)
	}
}

// spawnAndKill runs one child round, reads quota acks, then SIGKILLs it.
// Returns the edges the child acknowledged.
func spawnAndKill(dir string, quota int) ([]conn.Edge, error) {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), childEnv+"="+dir)
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var acked []conn.Edge
	sc := bufio.NewScanner(out)
	for len(acked) < quota && sc.Scan() {
		var u, v int32
		if _, err := fmt.Sscanf(sc.Text(), "ack %d %d", &u, &v); err == nil {
			acked = append(acked, conn.Edge{U: u, V: v})
		}
	}
	cmd.Process.Kill() // no shutdown handshake: simulate a crash
	cmd.Wait()
	return acked, nil
}

func parent() {
	dir, err := os.MkdirTemp("", "conn-durable-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	fmt.Printf("durability dir: %s (universe n=%d, path workload)\n\n", dir, universe)

	totalAcked := 0
	for round := 1; round <= 3; round++ {
		t0 := time.Now()
		acked, err := spawnAndKill(dir, 150)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		totalAcked += len(acked)

		g, err := conn.Restore(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "restore after kill: %v\n", err)
			os.Exit(1)
		}
		lost := 0
		for _, e := range acked {
			if !g.HasEdge(e.U, e.V) {
				lost++
			}
		}
		fmt.Printf("round %d: child acked %d inserts, then SIGKILL (%v)\n",
			round, len(acked), time.Since(t0).Round(time.Millisecond))
		fmt.Printf("         restore: %d edges recovered, %d acked writes lost",
			g.NumEdges(), lost)
		if lost == 0 {
			fmt.Printf(" — acked ⇒ durable ✓")
		}
		fmt.Println()
		// The child runs ahead of the parent's pipe reads, so inserts beyond
		// the quota may also have become durable before the kill landed —
		// allowed (they were just never observed). What must hold: nothing
		// acked is missing, and the recovered edges form a contiguous path
		// prefix — exactly the state of some epoch boundary.
		m := g.NumEdges()
		if m < totalAcked {
			fmt.Println("         BUG: recovered fewer inserts than were acknowledged")
			os.Exit(1)
		}
		if !g.Connected(0, int32(m)) || g.HasEdge(int32(m), int32(m+1)) {
			fmt.Println("         BUG: recovered state is not an epoch-boundary prefix")
			os.Exit(1)
		}
		totalAcked = m // the child resumes from the recovered frontier
	}

	// Checkpoint: fold the WAL into a snapshot and show the log shrinking.
	walSize := func() int64 {
		st, err := os.Stat(dir + "/wal.log")
		if err != nil {
			return 0
		}
		return st.Size()
	}
	before := walSize()
	g, _ := conn.Restore(dir)
	b := conn.NewBatcher(g, conn.WithDurability(dir))
	path, err := b.Checkpoint()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	b.Close()
	fmt.Printf("\ncheckpoint → %s\n", path)
	fmt.Printf("WAL: %d bytes of replay before, %d after (snapshot carries the history)\n",
		before, walSize())
	g2, err := conn.Restore(dir)
	if err != nil || g2.NumEdges() != g.NumEdges() {
		fmt.Fprintf(os.Stderr, "post-checkpoint restore mismatch: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("restore from checkpoint alone: %d edges, path still connected: %v\n",
		g2.NumEdges(), g2.Connected(0, int32(totalAcked)))
}
