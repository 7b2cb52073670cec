package check

import (
	"reflect"
	"testing"
)

// runChaosRow runs one row of the fleet chaos suite — agents on the
// in-memory network under one fault schedule: seeded agent partitions,
// primary kills (with two-tick promotion audits in the pair),
// lease-holder isolations with epoch-fenced demotion, the mid-stream
// key-movement and mirror-eviction audits, a warm drain and the durable
// agent's recovery audit. The invariants live inside RunFleetChaos;
// this asserts the schedule exercised them.
func runChaosRow(t *testing.T, cfg FleetChaosConfig) {
	t.Helper()
	rep, f := RunFleetChaos(cfg)
	if f != nil {
		t.Fatal(f)
	}
	t.Logf("fleetchaos masters=%d: %+v", cfg.Masters, rep)
	switch {
	case rep.Acked == 0:
		t.Fatalf("masters=%d: no request was ever acked", cfg.Masters)
	case rep.Kills <= cfg.Kills:
		t.Fatalf("masters=%d: %d kills, want %d scheduled before the closing one", cfg.Masters, rep.Kills, cfg.Kills)
	case rep.Partitions == 0:
		t.Fatalf("masters=%d: no agent was ever partitioned", cfg.Masters)
	case rep.Recovered == 0 || rep.HandoffSpecs == 0 || rep.KeyMoveFraction <= 0:
		t.Fatalf("masters=%d: recovery, handoff or key-movement audit checked nothing", cfg.Masters)
	case rep.Isolations != cfg.Isolations:
		t.Fatalf("masters=%d: %d lease isolations, want %d", cfg.Masters, rep.Isolations, cfg.Isolations)
	case cfg.Masters == 2 && rep.Promotions < rep.Kills+rep.Isolations:
		t.Fatalf("%d promotions for %d kills + %d isolations", rep.Promotions, rep.Kills, rep.Isolations)
	case rep.Demotions < rep.Isolations:
		t.Fatalf("%d demotions for %d isolations", rep.Demotions, rep.Isolations)
	case rep.MaxEpoch < uint64(rep.Promotions):
		t.Fatalf("final epoch %d below promotion count %d", rep.MaxEpoch, rep.Promotions)
	}
}

// runChaosTwice pins what the printed seed promises: two runs of a row
// report identically, so a failure recurs at the same step with the
// same diagnostic.
func runChaosTwice(t *testing.T, cfg FleetChaosConfig) {
	t.Helper()
	first, f := RunFleetChaos(cfg)
	if f != nil {
		t.Fatal(f)
	}
	second, f := RunFleetChaos(cfg)
	if f != nil {
		t.Fatal(f)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("two runs of seed %d, masters=%d diverge:\n first: %+v\nsecond: %+v", cfg.Seed, cfg.Masters, first, second)
	}
}

// TestFleetChaos runs the plain-master row of the fleet chaos suite.
func TestFleetChaos(t *testing.T) { runChaosRow(t, FleetChaosSuite(*seedFlag)[0]) }

// TestHAChaos runs the primary + standby row: on top of the plain
// master's schedule it kills the primary with two-tick promotion audits
// and isolates the lease holder, which must demote.
func TestHAChaos(t *testing.T) { runChaosRow(t, FleetChaosSuite(*seedFlag)[1]) }

// TestFleetChaosDeterministic runs the plain-master row twice.
func TestFleetChaosDeterministic(t *testing.T) { runChaosTwice(t, FleetChaosSuite(*seedFlag)[0]) }

// TestHAChaosDeterministic runs the primary + standby row twice.
func TestHAChaosDeterministic(t *testing.T) { runChaosTwice(t, FleetChaosSuite(*seedFlag)[1]) }
