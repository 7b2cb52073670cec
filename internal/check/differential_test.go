package check

import (
	"reflect"
	"testing"
)

// The production decision procedure (interned bitsets, band index,
// probe-signed sketches) has one reference: the oracle. The MinHash
// rows are where the two differ most in mechanism — production takes
// candidates from band buckets and popcounts, the oracle estimates and
// measures every image from freshly signed id slices — so CI runs them
// on their own under the race detector.

// TestDifferentialEquivalence runs every MinHash row of the unsharded
// and sharded suites: each request's op, target, post-state and victims
// must be the oracle's, with CheckIntegrity (direct-kernel re-sign,
// bitset round trip) after every step.
func TestDifferentialEquivalence(t *testing.T) {
	for i, cfg := range MinHashSuite(*seedFlag) {
		rep, fail := RunSim(cfg)
		if fail != nil {
			t.Fatalf("MinHash row %d (%+v): %v", i, cfg, fail)
		}
		t.Logf("row %d: %d steps, %d images, hits=%d merges=%d inserts=%d, state %s",
			i, rep.Steps, rep.Images, rep.Stats.Hits, rep.Stats.Merges, rep.Stats.Inserts, rep.StateHash[:12])
	}
	sharded := 0
	for _, cfg := range ShardSuite(*seedFlag) {
		if !cfg.MinHash {
			continue
		}
		sharded++
		if _, fail := RunShardSim(cfg); fail != nil {
			t.Fatalf("sharded MinHash row (%+v): %v", cfg, fail)
		}
	}
	if sharded == 0 {
		t.Fatal("ShardSuite has no MinHash row")
	}
}

// TestDifferentialDeterministic pins the rows themselves: the same
// config must reproduce the same report (steps, stats, final state
// hash), or seed-based failure reproduction is worthless. The sharded
// row is covered by TestShardSimDeterministic.
func TestDifferentialDeterministic(t *testing.T) {
	for _, cfg := range MinHashSuite(*seedFlag) {
		a, failA := RunSim(cfg)
		b, failB := RunSim(cfg)
		if failA != nil || failB != nil {
			t.Fatalf("clean config failed: %v / %v", failA, failB)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("two runs of the same config diverged:\n  %+v\n  %+v", a, b)
		}
	}
}
