package check

import (
	"flag"
	"reflect"
	"testing"
)

// seedFlag reproduces a reported failure: every Failure's Error()
// names the exact command. The default matches the CI run.
var seedFlag = flag.Int64("seed", 1, "simulation seed (failures print the seed that reproduces them)")

// TestCheckReplay is the reproduction entry point: a failure anywhere
// in the harness prints `go test ./internal/check -run TestCheckReplay
// -seed=N`, and this test re-runs the full schedule — the in-memory
// suite, the persistent disk-fault chaos runs (exact and MinHash), and both rows of the fleet chaos suite (plain master
// and HA pair, the default kill phase) — under that seed.
func TestCheckReplay(t *testing.T) {
	seed := *seedFlag
	for _, cfg := range Suite(seed) {
		if _, f := RunSim(cfg); f != nil {
			t.Fatal(f)
		}
	}
	for _, cfg := range ChaosSuite(seed, t.TempDir()) {
		if _, f := RunSim(cfg); f != nil {
			t.Fatal(f)
		}
	}
	for _, cfg := range FleetChaosSuite(seed) {
		if _, f := RunFleetChaos(cfg); f != nil {
			t.Fatal(f)
		}
	}
}

// TestSimDeterministic pins the bit-for-bit reproducibility contract:
// two runs of the same config — including injected faults, crashes and
// recoveries — produce identical reports, down to the state hash.
func TestSimDeterministic(t *testing.T) {
	for _, cfg := range []SimConfig{
		{Seed: *seedFlag, Steps: 400, Alpha: 0.6, CapacityFrac: 0.3, PruneEvery: 90},
		{Seed: *seedFlag, Steps: 400, Alpha: 0.6, CapacityFrac: 0.3,
			CheckpointEvery: 50, PruneEvery: 90, CrashEvery: 100, Faults: true},
	} {
		run := func(c SimConfig) SimReport {
			if c.CrashEvery > 0 {
				c.Dir = t.TempDir() // fresh dir per run: state must come from the seed, not the disk
			}
			rep, f := RunSim(c)
			if f != nil {
				t.Fatal(f)
			}
			return rep
		}
		first, second := run(cfg), run(cfg)
		if !reflect.DeepEqual(first, second) {
			t.Errorf("two runs of seed %d diverge:\n first: %+v\nsecond: %+v", cfg.Seed, first, second)
		}
	}
}

// TestShardSimDeterministic pins the persistent MinHash chaos row —
// the site service's shape, once run at two shards — the same way: two
// runs report identically, and the row evicts (a row that never runs
// the eviction step would let the capacity, lru and weigh mutants
// survive it).
func TestShardSimDeterministic(t *testing.T) {
	for _, cfg := range ChaosSuite(*seedFlag, "") {
		if !cfg.MinHash {
			continue
		}
		run := func() SimReport {
			c := cfg
			c.Dir = t.TempDir() // fresh dir per run: state must come from the seed, not the disk
			rep, f := RunSim(c)
			if f != nil {
				t.Fatal(f)
			}
			return rep
		}
		first, second := run(), run()
		if !reflect.DeepEqual(first, second) {
			t.Errorf("two runs of seed %d diverge:\n first: %+v\nsecond: %+v", cfg.Seed, first, second)
		}
		if first.Stats.Deletes == 0 || first.Crashes == 0 {
			t.Errorf("the row never evicted or crashed: %+v", first)
		}
	}
}

// TestStreamDeterministic pins the generators: the same seed yields
// the same repository and the same request sequence.
func TestStreamDeterministic(t *testing.T) {
	repo1, repo2 := SmallRepo(*seedFlag), SmallRepo(*seedFlag)
	if repo1.Len() != repo2.Len() {
		t.Fatalf("repos differ: %d vs %d packages", repo1.Len(), repo2.Len())
	}
	s1, s2 := NewStream(repo1, *seedFlag), NewStream(repo2, *seedFlag)
	for i := 0; i < 2000; i++ {
		a, b := s1.Next(), s2.Next()
		if !a.Equal(b) {
			t.Fatalf("streams diverge at request %d", i)
		}
	}
}

// TestStreamMixesSchemes checks the generator produces all three
// request classes — without them the harness would silently stop
// exercising the hit path or the adversarial uniform scheme.
func TestStreamMixesSchemes(t *testing.T) {
	repo := SmallRepo(*seedFlag)
	s := NewStream(repo, *seedFlag)
	seen := make(map[string]int)
	for i := 0; i < 1000; i++ {
		seen[s.Next().String()]++
	}
	repeats := 0
	for _, n := range seen {
		if n > 1 {
			repeats += n - 1
		}
	}
	if repeats < 100 {
		t.Errorf("only %d repeated requests in 1000; the repeat scheme is not driving the hit path", repeats)
	}
	if len(seen) < 100 {
		t.Errorf("only %d distinct specs in 1000 requests", len(seen))
	}
}

// Metamorphic relations (see metamorphic.go for the arguments why
// each holds only under unlimited capacity).

func TestAlphaMonotonicity(t *testing.T) {
	if f := AlphaMonotonicity(*seedFlag, 500, []float64{0, 0.2, 0.4, 0.6, 0.8, 1}); f != nil {
		t.Fatal(f)
	}
}

func TestHitPermutationInvariance(t *testing.T) {
	if f := HitPermutationInvariance(*seedFlag, 500, 0.6); f != nil {
		t.Fatal(f)
	}
}

func TestDegenerateLRU(t *testing.T) {
	if f := DegenerateLRU(*seedFlag, 500, 0.3); f != nil {
		t.Fatal(f)
	}
}

func TestDegenerateGlob(t *testing.T) {
	if f := DegenerateGlob(*seedFlag, 500); f != nil {
		t.Fatal(f)
	}
}

// TestCheckSoak is the acceptance soak: 50k requests across 8
// goroutines against a persistent store with injected faults, run
// under -race in CI. -short scales it down for the inner loop.
func TestCheckSoak(t *testing.T) {
	cfg := SoakConfig{
		Seed: *seedFlag, Requests: 50000, Workers: 8,
		Alpha: 0.6, CapacityFrac: 0.3, Conflicts: false,
		Dir: t.TempDir(), Faults: true, MaintainEvery: 200,
	}
	if testing.Short() {
		cfg.Requests = 8000
	}
	rep, err := RunSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("soak: %d requests, %d hits, %d merges, %d images, %d faults injected",
		rep.Stats.Requests, rep.Stats.Hits, rep.Stats.Merges, rep.Images, rep.Injected)
}

// TestSoakMemoryOnly soaks the pure in-memory concurrent path (no
// store in the hook chain), where read-path hits take the shared lock.
func TestSoakMemoryOnly(t *testing.T) {
	cfg := SoakConfig{
		Seed: *seedFlag + 7, Requests: 20000, Workers: 8,
		Alpha: 0.8, CapacityFrac: 0.5, MaintainEvery: 300,
	}
	if testing.Short() {
		cfg.Requests = 4000
	}
	if _, err := RunSoak(cfg); err != nil {
		t.Fatal(err)
	}
}
