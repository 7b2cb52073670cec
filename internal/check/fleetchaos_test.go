package check

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/telemetry"
)

// runChaosRow runs one row of the fleet chaos suite — agents on the
// in-memory network under one fault schedule: seeded agent partitions,
// primary kills (with two-tick promotion audits in the pair),
// lease-holder isolations with epoch-fenced demotion, crashes and
// recoveries of the durable agent on its faulty disk, a request burst,
// faulty client links, the mid-stream key-movement and mirror-eviction
// audits and a warm drain. The invariants live inside RunFleetChaos;
// this asserts the schedule exercised them and that the nodes' trace
// rings hold well-formed trees covering every stage.
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
	case rep.CrashKills == 0 || rep.CrashPowers == 0:
		t.Fatalf("masters=%d: agent 0 crashed %d times killed, %d powered off; want both", cfg.Masters, rep.CrashKills, rep.CrashPowers)
	case rep.DiskFaults == 0 || rep.NetFaults == 0:
		t.Fatalf("masters=%d: %d disk and %d network faults injected; want both", cfg.Masters, rep.DiskFaults, rep.NetFaults)
	case rep.Sheds == 0:
		t.Fatalf("masters=%d: nothing was shed; the shed audit never ran", cfg.Masters)
	case rep.Checkpoints == 0:
		t.Fatalf("masters=%d: agent 0's WAL never grew past its size threshold to compact", cfg.Masters)
	case len(rep.MissingStages) > 0:
		t.Fatalf("masters=%d: trace rings miss stages %v (covered %v)", cfg.Masters, rep.MissingStages, rep.Stages)
	}
	// Every kept trace has a root request span and a consistent tree:
	// parents precede children and durations are non-negative. Agents
	// continue the master's trace, so some kept trace is propagated.
	propagated := 0
	for _, tr := range rep.Dump {
		if len(tr.Spans) == 0 || tr.Spans[0].Stage != telemetry.StageRequest {
			t.Fatalf("trace %s: missing root request span", tr.ID)
		}
		for i, sp := range tr.Spans[1:] {
			if sp.Parent < 0 || int(sp.Parent) > i {
				t.Fatalf("trace %s span %d (%s): parent %d out of order", tr.ID, i+1, sp.Stage, sp.Parent)
			}
			if sp.End < sp.Start {
				t.Fatalf("trace %s span %d (%s): negative duration", tr.ID, i+1, sp.Stage)
			}
		}
		if tr.RemoteParent != 0 {
			propagated++
		}
	}
	if propagated == 0 {
		t.Fatalf("masters=%d: no kept trace continued a propagated header", cfg.Masters)
	}
}

// runChaosTwice pins what the printed seed promises: two runs of a row
// report byte for byte identically, trace dump included, so a failure
// recurs at the same step with the same diagnostic.
func runChaosTwice(t *testing.T, cfg FleetChaosConfig) {
	t.Helper()
	var runs [2][]byte
	for i := range runs {
		rep, f := RunFleetChaos(cfg)
		if f != nil {
			t.Fatal(f)
		}
		var err error
		if runs[i], err = json.Marshal(rep); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(runs[0], runs[1]) {
		t.Fatalf("two runs of seed %d, masters=%d diverge:\n first: %s\nsecond: %s", cfg.Seed, cfg.Masters, runs[0], runs[1])
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
