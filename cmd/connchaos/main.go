// Command connchaos runs the whole-topology chaos harness from the command
// line: a sharded durable primary plus read replicas as child processes,
// randomized workloads through the real client, and a seeded fault schedule
// (SIGKILLs, torn WAL tails, dropped replication streams, connection
// resets), verified against union-find oracles built from acknowledged
// operations only.
//
//	go run ./cmd/connchaos -seed 1                      # default 3x2, 4s
//	go run ./cmd/connchaos -seed 7 -topology 4x3 -duration 30s
//	go run ./cmd/connchaos -seed 7 -schedule 'wal.open.torn-tail:torn@p=0.5'
//
// Every random decision — the workload, the kill plan, each fault site's
// fire pattern — derives from -seed, so a failing run prints the exact
// command that replays its scenario. Exit status 0 means every invariant
// held; 1 means a violation (the reason and the repro command go to
// stderr); 2 means the flags were unusable.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/topo"
)

func main() {
	// Child incarnations of this binary become servers before flag parsing:
	// the driver re-executes os.Args[0] with only the environment set.
	if topo.IsChild() {
		os.Exit(topo.ChildMain())
	}
	var (
		seed     = flag.Int64("seed", 1, "master seed for workload, kill plan and fault schedule")
		topology = flag.String("topology", "3x2", "shards × replicas, e.g. 3x2 (replicas may be 0)")
		duration = flag.Duration("duration", 4*time.Second, "length of the fault-injection phase")
		schedule = flag.String("schedule", "", "chaos schedule for the primary (default: built-in fault mix)")
		verbose  = flag.Bool("v", false, "stream child server logs to stderr")
	)
	flag.Parse()
	shards, replicas, err := parseTopology(*topology)
	if err != nil {
		fmt.Fprintln(os.Stderr, "connchaos:", err)
		os.Exit(2)
	}

	logger := log.New(os.Stderr, "", log.Ltime|log.Lmicroseconds)
	var childLog io.Writer
	if *verbose {
		childLog = os.Stderr
	}
	cfg := topo.Config{
		Seed:     *seed,
		Shards:   shards,
		Replicas: replicas,
		Duration: *duration,
		Schedule: *schedule,
		Logf:     logger.Printf,
		ChildLog: childLog,
	}
	if err := topo.Run(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "connchaos: FAIL\n%v\n", err)
		os.Exit(1)
	}
	fmt.Printf("connchaos: ok — seed %d, %dx%d, %s: all invariants held\n",
		*seed, shards, replicas, *duration)
}

// parseTopology splits "KxR" into shard and replica counts. R = 0 is a
// primary-only topology (mapped to the Config's negative-means-none form).
func parseTopology(s string) (shards, replicas int, err error) {
	k, r, ok := strings.Cut(strings.ToLower(s), "x")
	if !ok {
		return 0, 0, fmt.Errorf("bad -topology %q: want KxR, e.g. 3x2", s)
	}
	shards, err = strconv.Atoi(k)
	if err == nil {
		replicas, err = strconv.Atoi(r)
	}
	if err != nil || shards < 1 || replicas < 0 {
		return 0, 0, fmt.Errorf("bad -topology %q: want KxR with K ≥ 1, R ≥ 0", s)
	}
	if replicas == 0 {
		replicas = -1
	}
	return shards, replicas, nil
}
