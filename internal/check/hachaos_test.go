package check

import (
	"reflect"
	"testing"
)

// TestHAChaos runs the high-availability chaos schedule: primary
// kills with two-tick promotion audits, lease-holder isolations with
// epoch-fenced demotion, warm drain handoff, and the persistent agent's
// recovery byte-identity check. The run itself carries the invariants; this
// test asserts the schedule actually exercised them.
func TestHAChaos(t *testing.T) {
	cfg := HAChaosDefault(*seedFlag)
	rep, f := RunHAChaos(cfg)
	if f != nil {
		t.Fatal(f)
	}
	if rep.Kills < 3 {
		t.Fatalf("only %d primary kills, want >= 3", rep.Kills)
	}
	if rep.Isolations < 2 {
		t.Fatalf("only %d lease isolations, want >= 2", rep.Isolations)
	}
	if rep.Promotions < rep.Kills+rep.Isolations {
		t.Fatalf("%d promotions for %d kills + %d isolations", rep.Promotions, rep.Kills, rep.Isolations)
	}
	if rep.Demotions < rep.Isolations {
		t.Fatalf("%d demotions for %d isolations", rep.Demotions, rep.Isolations)
	}
	if rep.Acked == 0 {
		t.Fatal("no request was ever acked")
	}
	if rep.Recovered == 0 {
		t.Fatal("the recovery audits replayed no WAL records")
	}
	if rep.MaxEpoch < uint64(rep.Promotions) {
		t.Fatalf("final epoch %d below promotion count %d", rep.MaxEpoch, rep.Promotions)
	}
	t.Logf("hachaos: steps=%d acked=%d unavailable=%d sheds=%d errors=%d kills=%d isolations=%d promotions=%d demotions=%d epoch=%d recovered=%d staleRejects=%d handoff=%d",
		rep.Steps, rep.Acked, rep.Unavailable, rep.Sheds, rep.Errors,
		rep.Kills, rep.Isolations, rep.Promotions, rep.Demotions,
		rep.MaxEpoch, rep.Recovered, rep.StaleRejects, rep.HandoffSpecs)
}

// TestHAChaosDeterministic pins the same for the HA schedule: two runs
// of the default config report identically.
func TestHAChaosDeterministic(t *testing.T) {
	cfg := HAChaosDefault(*seedFlag)
	first, f := RunHAChaos(cfg)
	if f != nil {
		t.Fatal(f)
	}
	second, f := RunHAChaos(cfg)
	if f != nil {
		t.Fatal(f)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("two runs of seed %d diverge:\n first: %+v\nsecond: %+v", cfg.Seed, first, second)
	}
}
