package check

import (
	"flag"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/spec"
)

// seedFlag reproduces a reported failure: every Failure's Error()
// names the exact command. The default matches the CI run.
var seedFlag = flag.Int64("seed", 1, "simulation seed (failures print the seed that reproduces them)")

// shardsFlag sets the shard count for the sharded soak. The nightly
// workflow randomizes it and echoes the chosen value in the repro
// command; the default matches the per-commit CI run.
var shardsFlag = flag.Int("shards", 4, "shard count for TestShardSoak (nightly randomizes this)")

// TestCheckReplay is the reproduction entry point: a failure anywhere
// in the harness prints `go test ./internal/check -run TestCheckReplay
// -seed=N`, and this test re-runs the full schedule — in-memory suite,
// the sharded-cache suite, the persistent disk-fault chaos runs (exact
// and MinHash), and the network-fault chaos run — under that seed.
func TestCheckReplay(t *testing.T) {
	seed := *seedFlag
	for _, cfg := range Suite(seed) {
		if _, f := RunSim(cfg); f != nil {
			t.Fatal(f)
		}
	}
	for _, cfg := range ShardSuite(seed) {
		if _, f := RunShardSim(cfg); f != nil {
			t.Fatal(f)
		}
	}
	for _, cfg := range ChaosSuite(seed, t.TempDir()) {
		if _, f := RunSim(cfg); f != nil {
			t.Fatal(f)
		}
	}
	if _, f := RunNetChaos(NetChaosDefault(seed, t.TempDir())); f != nil {
		t.Fatal(f)
	}
	if _, f := RunFleetChaos(FleetChaosDefault(seed)); f != nil {
		t.Fatal(f)
	}
}

// TestNetChaos is the end-to-end network chaos run on its own: a real
// HTTP server over a persistent store, a client injecting seeded
// resets/truncations/latency/blackholes, disk faults and crash cycles
// underneath. The audit inside RunNetChaos proves every acked request
// is served as a hit after every recovery, sheds never mutate, and a
// degraded server refuses non-durable acks.
func TestNetChaos(t *testing.T) {
	rep, f := RunNetChaos(NetChaosDefault(*seedFlag, t.TempDir()))
	if f != nil {
		t.Fatal(f)
	}
	if rep.Acked == 0 {
		t.Fatal("netchaos run acked nothing; the harness is not exercising the serving path")
	}
	if rep.Crashes == 0 {
		t.Fatal("netchaos run never crashed; the audit never ran")
	}
	t.Logf("netchaos: %d steps, %d acked, %d sheds, %d degraded, %d circuit-fast, %d net errors (%d injected), %d disk faults, %d crashes, %d heals",
		rep.Steps, rep.Acked, rep.Sheds, rep.Degraded, rep.CircuitFast,
		rep.NetErrors, rep.NetInjected, rep.DiskInjected, rep.Crashes, rep.Heals)
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

// TestShardSimDeterministic pins the sharded driver the same way: two
// runs of each canonical sharded config must report identically, and
// the configs must actually exercise the balancer (a suite that never
// rebalances would let the balance mutant survive).
func TestShardSimDeterministic(t *testing.T) {
	for _, cfg := range ShardSuite(*seedFlag) {
		first, f := RunShardSim(cfg)
		if f != nil {
			t.Fatal(f)
		}
		second, f := RunShardSim(cfg)
		if f != nil {
			t.Fatal(f)
		}
		if !reflect.DeepEqual(first, second) {
			t.Errorf("two sharded runs of seed %d shards %d diverge:\n first: %+v\nsecond: %+v",
				cfg.Seed, cfg.Shards, first, second)
		}
		if cfg.RebalanceEvery > 0 && first.Rebalances == 0 {
			t.Errorf("shards=%d config never rebalanced; the balancer audit is dead weight", cfg.Shards)
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

// TestShardSoak soaks the cache at several shards: 8 goroutines against
// a ShardedManager over a persistent store, with worker 0 interleaving
// checkpoints, audited rebalances, and prune passes. The shard count
// comes from -shards so the nightly can randomize it; a failure names
// the exact count to rerun with.
func TestShardSoak(t *testing.T) {
	shards := *shardsFlag
	cfg := SoakConfig{
		Seed: *seedFlag + 13, Requests: 20000, Workers: 8,
		Alpha: 0.6, CapacityFrac: 0.3, Shards: shards,
		Dir: t.TempDir(), Faults: true, MaintainEvery: 250,
	}
	if testing.Short() {
		cfg.Requests = 4000
	}
	rep, err := RunSoak(cfg)
	if err != nil {
		t.Fatalf("%v\nreproduce: go test ./internal/check -run TestShardSoak -seed=%d -shards=%d", err, *seedFlag, shards)
	}
	t.Logf("shard soak (shards=%d): %d requests, %d hits, %d merges, %d images, %d faults injected",
		shards, rep.Stats.Requests, rep.Stats.Hits, rep.Stats.Merges, rep.Images, rep.Injected)
}

// TestSoakMemoryOnly soaks the pure in-memory concurrent path at one
// shard (no store in the hook chain), where read-path hits take the
// shared lock.
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

// TestRebalancePublishesBudgetsWithoutFalseAlarm is the regression test
// for the 1-in-40 TestShardSoak failure ("shard N at X bytes exceeds
// its budget … at the next request"). Rebalance has released every
// shard lock by the time it returns, so a request can land on a shard
// whose budget just grew before the driver hands the shadow the new
// budgets; audited against the old ones, a legal fill reads as an
// overflow. The scenario is built by hand — shard a holds two images
// and fills its even share, shard b one — and then replayed twice: in
// the old order (rebalance, request, publish) the shadow must raise
// exactly that false alarm, which proves the request really lands in
// the window; through ShardShadow.Rebalanced it must stay silent.
func TestRebalancePublishesBudgetsWithoutFalseAlarm(t *testing.T) {
	repo := SmallRepo(*seedFlag)
	probe, err := core.NewSharded(repo, core.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	// From 64 fresh specs: shard a's two largest to fill its even share,
	// its smallest to overfill it, and shard b's smallest so that nearly
	// all of the balancer's pool follows the bytes to shard a. At alpha
	// 0 each is an insert: the filler must not already be contained in
	// an image.
	stream := NewStream(repo, *seedFlag)
	stream.RepeatProb = 0
	var as, bs []spec.Spec
	for i := 0; i < 64; i++ {
		if s := stream.Next(); probe.ShardFor(s) == 0 {
			as = append(as, s)
		} else {
			bs = append(bs, s)
		}
	}
	bySize := func(ss []spec.Spec) {
		sort.Slice(ss, func(i, j int) bool { return ss[i].Size(repo) > ss[j].Size(repo) })
	}
	bySize(as)
	bySize(bs)
	filler := len(as) - 1
	for as[filler].SubsetOf(as[0]) || as[filler].SubsetOf(as[1]) {
		filler--
	}
	as, b := []spec.Spec{as[0], as[1], as[filler]}, bs[len(bs)-1]
	held := as[0].Size(repo) + as[1].Size(repo)
	capacity := 2 * (held + 1) // shard a's even share holds exactly its first two images

	for _, tc := range []struct {
		name      string
		rebalance func(sm *core.ShardedManager, shadow *ShardShadow, between func())
		wantAlarm bool
	}{
		{"publish-after", func(sm *core.ShardedManager, shadow *ShardShadow, between func()) {
			sm.Rebalance()
			between()
			shadow.SetBudgets(sm.Budgets())
		}, true},
		{"Rebalanced", func(sm *core.ShardedManager, shadow *ShardShadow, between func()) {
			shadow.Rebalanced(func() []int64 {
				sm.Rebalance()
				between()
				return sm.Budgets()
			})
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sm, err := core.NewSharded(repo, core.Config{Capacity: capacity, Shards: 2})
			if err != nil {
				t.Fatal(err)
			}
			shadow := NewShardShadow(repo, 2, *seedFlag, nil)
			shadow.SetBudgets(sm.Budgets())
			sm.SetCommitHook(shadow)
			request := func(s spec.Spec) {
				t.Helper()
				if _, err := sm.Request(s); err != nil {
					t.Fatal(err)
				}
			}
			request(as[0])
			request(as[1])
			request(b)
			old := sm.Budgets()[0]
			tc.rebalance(sm, shadow, func() {
				request(as[2]) // fills shard a past its old budget, inside its new one
				request(as[0]) // the next stamped mutation on shard a: the audit point
			})
			if images, bytes, budget := sm.ShardUsage(0); images != 3 || bytes <= old || bytes > budget {
				t.Fatalf("setup: shard 0 holds %d images, %d bytes, want 3 images above its old budget %d and within its new one %d", images, bytes, old, budget)
			}
			f := shadow.Final()
			switch {
			case tc.wantAlarm && (f == nil || !strings.Contains(f.Diagnostic, "exceeds its budget")):
				t.Fatalf("the old publication order raised %v, want the false budget alarm (the request no longer lands in the window)", f)
			case !tc.wantAlarm && f != nil:
				t.Fatalf("false alarm across a rebalance: %v", f)
			}
		})
	}
}
