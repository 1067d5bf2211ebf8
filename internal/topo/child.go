package topo

import (
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/server"
)

// Child-process environment: the driver re-executes its own binary with
// these set, so the harness test binary and cmd/connchaos double as the
// server processes they supervise. Chaos arming rides the chaos package's
// own CONNCHAOS_SCHED / CONNCHAOS_SEED variables.
const (
	envRole    = "CONNCHAOS_ROLE"
	envAddr    = "CONNCHAOS_ADDR"
	envData    = "CONNCHAOS_DATA"
	envPrimary = "CONNCHAOS_PRIMARY"

	rolePrimary = "primary"
	roleReplica = "replica"
)

// IsChild reports whether this process was spawned by the topology driver
// as a server child. Binaries embedding the driver (cmd/connchaos, the
// topo test binary) must route to ChildMain before doing anything else.
func IsChild() bool { return os.Getenv(envRole) != "" }

// ChildMain runs one server child to completion and returns its exit code.
// The child serves until killed — the driver stops children exclusively
// with SIGKILL, the whole point being that nothing gets to shut down
// cleanly.
func ChildMain() int {
	role := os.Getenv(envRole)
	logger := log.New(os.Stderr, "connchaos/"+role+": ", 0)
	opts := server.Options{Logf: logger.Printf}
	switch role {
	case rolePrimary:
		opts.DataDir = os.Getenv(envData)
		// A short coalescing window keeps epochs small and frequent: more
		// WAL appends, more snapshot publishes, more seams for the armed
		// sites to fire in.
		opts.MaxDelay = 200 * time.Microsecond
	case roleReplica:
		opts.ReplicaOf = os.Getenv(envPrimary)
	default:
		logger.Printf("unknown role %q", role)
		return 2
	}
	srv, err := server.New(opts)
	if err != nil {
		logger.Printf("start: %v", err)
		return 1
	}
	if err := srv.ListenAndServe(os.Getenv(envAddr)); err != nil {
		logger.Printf("serve: %v", err)
		return 1
	}
	return 0
}

// childEnv builds a child's environment: the parent's, scrubbed of any
// CONNCHAOS_* values (the driver itself must never arm, and a stale
// schedule must not leak into an incarnation meant to run clean), plus the
// role settings and, when schedule is non-empty, the chaos arming pair.
func childEnv(role, addr, data, primary string, seed int64, schedule string) []string {
	env := make([]string, 0, len(os.Environ())+10)
	for _, kv := range os.Environ() {
		if strings.HasPrefix(kv, "CONNCHAOS_") {
			continue
		}
		env = append(env, kv)
	}
	env = append(env,
		envRole+"="+role, envAddr+"="+addr, envData+"="+data, envPrimary+"="+primary)
	if schedule != "" {
		env = append(env,
			chaos.EnvSchedule+"="+schedule,
			fmt.Sprintf("%s=%d", chaos.EnvSeed, seed))
	}
	return env
}
