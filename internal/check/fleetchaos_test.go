package check

import (
	"reflect"
	"testing"
)

// TestFleetChaos is the fleet chaos run on its own: a master fronting
// three agents on the in-memory network, seeded partitions between the
// master and an agent, master kill/restart cycles, and the mid-stream
// key-movement and mirror-eviction audits. The invariants live inside RunFleetChaos; this
// test also sanity-checks that the schedule actually exercised them.
func TestFleetChaos(t *testing.T) {
	rep, f := RunFleetChaos(FleetChaosDefault(*seedFlag))
	if f != nil {
		t.Fatal(f)
	}
	if rep.Acked == 0 {
		t.Fatal("fleetchaos run acked nothing; the routing path never worked")
	}
	if rep.MasterKills == 0 {
		t.Fatal("fleetchaos run never killed the master; the soft-state audit never ran")
	}
	if rep.KeyMoveFraction <= 0 {
		t.Fatal("fleetchaos key-movement audit did not run")
	}
	t.Logf("fleetchaos: %d steps, %d acked, %d unavailable, %d sheds, %d errors, %d partitions, %d master kills, key movement %.3f",
		rep.Steps, rep.Acked, rep.Unavailable, rep.Sheds, rep.Errors,
		rep.Partitions, rep.MasterKills, rep.KeyMoveFraction)
}

// TestFleetChaosDeterministic pins what the printed seed promises: two
// runs of the default config report identically, so a failure recurs
// at the same step with the same diagnostic.
func TestFleetChaosDeterministic(t *testing.T) {
	cfg := FleetChaosDefault(*seedFlag)
	first, f := RunFleetChaos(cfg)
	if f != nil {
		t.Fatal(f)
	}
	second, f := RunFleetChaos(cfg)
	if f != nil {
		t.Fatal(f)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("two runs of seed %d diverge:\n first: %+v\nsecond: %+v", cfg.Seed, first, second)
	}
}
