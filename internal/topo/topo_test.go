package topo

import (
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
)

// TestMain doubles this test binary as the server child: the driver
// re-executes os.Args[0] with the role environment set, and those
// incarnations must become servers, not test runs.
func TestMain(m *testing.M) {
	if IsChild() {
		os.Exit(ChildMain())
	}
	os.Exit(m.Run())
}

// TestChaosTopology is the acceptance run from the issue: a seeded 3-shard
// × 2-replica topology under the default fault schedule — SIGKILLs
// mid-epoch, torn WAL tails on restart, dropped replication streams,
// connection resets — must end with all four invariants intact.
func TestChaosTopology(t *testing.T) {
	dur := 4 * time.Second
	if testing.Short() {
		dur = 1500 * time.Millisecond
	}
	err := Run(Config{
		Seed:     1,
		Shards:   3,
		Replicas: 2,
		Duration: dur,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestChildEnvScrubs: a child's environment must carry exactly its own
// role and chaos settings — stale CONNCHAOS_* values inherited from the
// driver (itself possibly a child once) must not leak through, or a
// "clean" incarnation would respawn armed.
func TestChildEnvScrubs(t *testing.T) {
	t.Setenv(envRole, "stale-role")
	t.Setenv("CONNCHAOS_SCHED", "stale-sched")
	env := childEnv(rolePrimary, "addr:1", "/data", "", 7, "")
	got := map[string]string{}
	for _, kv := range env {
		if k, v, ok := strings.Cut(kv, "="); ok && strings.HasPrefix(k, "CONNCHAOS_") {
			if _, dup := got[k]; dup {
				t.Fatalf("duplicate %s in child env", k)
			}
			got[k] = v
		}
	}
	if got[envRole] != rolePrimary || got[envData] != "/data" {
		t.Fatalf("role env wrong: %v", got)
	}
	if _, ok := got["CONNCHAOS_SCHED"]; ok {
		t.Fatal("stale schedule leaked into a clean child's environment")
	}
}

// TestDefaultSchedulesParse pins the built-in schedules to the grammar —
// a child panics on a malformed schedule, which would take down every run.
func TestDefaultSchedulesParse(t *testing.T) {
	for _, sched := range []string{defaultPrimarySchedule, defaultReplicaSchedule} {
		if _, err := chaos.NewPlan(0, sched); err != nil {
			t.Fatalf("built-in schedule rejected: %v\n%s", err, sched)
		}
	}
}
