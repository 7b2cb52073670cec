package check

import (
	"math/rand"

	"repro/internal/core"
)

// ShardSimConfig parameterizes one deterministic sharded simulation:
// a single goroutine drives seeded requests through a ShardedManager's
// router, with a per-shard Oracle re-deriving Algorithm 1 on the shard
// each request lands on, the ShardShadow validating the demultiplexed
// mutation stream, and periodic Rebalance passes audited for the
// budgets-sum identity.
type ShardSimConfig struct {
	Seed   int64
	Steps  int
	Shards int
	Alpha  float64
	// MinHash as in SimConfig: every shard's oracle runs in margin mode.
	MinHash bool
	// CapacityFrac sizes the global cache as a fraction of the
	// repository's total bytes (0 = unlimited); the balancer divides it
	// across shards.
	CapacityFrac float64
	// RebalanceEvery / PruneEvery are mean gaps, in requests, between
	// the respective maintenance passes (0 disables).
	RebalanceEvery int
	PruneEvery     int
}

// ShardSimReport summarizes a clean sharded run. Runs of the same
// config must report identically.
type ShardSimReport struct {
	Steps      int
	Stats      core.Stats
	Images     int
	Rebalances int64
	Evicted    int64
	StateHash  string
}

// ShardSuite returns the canonical sharded simulation configurations:
// a merge-heavy run under byte pressure with frequent rebalances (the
// regime where the balancer works and budgets move), and a
// higher-alpha run at a different shard count (coprime with the first,
// so residue-class bugs cannot hide in a common divisor). Together
// they issue 1000 requests — the detection budget for the sharding
// mutants (route, balance). The last row is MinHash across four shards:
// the shards share one hasher (and its probe index), each has a band
// index of its own, and each is checked by a margin-mode oracle.
func ShardSuite(seed int64) []ShardSimConfig {
	return []ShardSimConfig{
		{Seed: seed, Steps: 500, Shards: 4, Alpha: 0.6, CapacityFrac: 0.3, RebalanceEvery: 50, PruneEvery: 90},
		{Seed: seed, Steps: 500, Shards: 3, Alpha: 0.8, CapacityFrac: 0.25, RebalanceEvery: 40},
		{Seed: seed, Steps: 200, Shards: 4, Alpha: 0.6, CapacityFrac: 0.3, MinHash: true},
	}
}

// RunShardSim executes one sharded simulation. Every request is routed
// by the production router (ShardFor) and validated by that shard's
// Oracle against the shard's pre-state; the ShardShadow checks the
// commit stream; every Rebalance is followed by the budgets-sum audit
// (budgets must sum exactly to the global capacity — the identity that
// makes the global byte bound the sum of per-shard bounds). The run
// ends with the shadow's density/budget finals and a full replay of
// the mutation stream into a fresh sharded cache.
func RunShardSim(cfg ShardSimConfig) (ShardSimReport, *Failure) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	repo := SmallRepo(cfg.Seed)
	stream := NewStream(repo, cfg.Seed+1)
	capacity := simCapacity(repo, cfg.CapacityFrac)
	n := cfg.Shards
	if n < 1 {
		n = 1
	}

	mcfg := core.Config{Alpha: cfg.Alpha, Capacity: capacity, Shards: n}
	if cfg.MinHash {
		mcfg.MinHash = core.DefaultMinHash()
	}
	var rep ShardSimReport

	sm, err := core.NewSharded(repo, mcfg)
	if err != nil {
		return rep, failf(cfg.Seed, 0, "sharded manager: %v", err)
	}
	shadow := NewShardShadow(repo, n, cfg.Seed, nil)
	if capacity > 0 {
		shadow.SetBudgets(sm.Budgets())
	}
	sm.SetCommitHook(shadow)

	// Capture the per-shard managers once; the driver is single-
	// goroutine, so the oracles may drive them directly.
	var managers []*core.Manager
	sm.WithExclusiveAll(func(ms []*core.Manager) {
		managers = append(managers, ms...)
	})
	oracles := make([]*Oracle, n)
	for i := range oracles {
		oracles[i] = NewOracle(managers[i], cfg.Seed)
	}

	auditBudgets := func(step int) *Failure {
		if capacity <= 0 {
			return nil
		}
		budgets := sm.Budgets()
		var sum int64
		for i, b := range budgets {
			if b <= 0 {
				return failf(cfg.Seed, step, "balancer left shard %d with non-positive budget %d", i, b)
			}
			sum += b
		}
		if sum != capacity {
			return failf(cfg.Seed, step, "shard budgets %v sum to %d, want exactly the global capacity %d",
				budgets, sum, capacity)
		}
		shadow.SetBudgets(budgets)
		return nil
	}

	event := func(mean int) bool {
		return mean > 0 && rng.Float64() < 1/float64(mean)
	}

	for step := 0; step < cfg.Steps; step++ {
		if event(cfg.RebalanceEvery) {
			sm.Rebalance()
			if f := auditBudgets(step); f != nil {
				return rep, f
			}
			if err := sm.CheckIntegrity(); err != nil {
				return rep, failf(cfg.Seed, step, "integrity after rebalance: %v", err)
			}
			if f := shadow.Err(); f != nil {
				return rep, f
			}
		}
		if event(cfg.PruneEvery) {
			if _, err := sm.Prune(0.5, 2); err != nil {
				return rep, failf(cfg.Seed, step, "prune: %v", err)
			}
			if err := sm.CheckIntegrity(); err != nil {
				return rep, failf(cfg.Seed, step, "integrity after prune: %v", err)
			}
			if f := shadow.Err(); f != nil {
				return rep, f
			}
		}

		s := stream.Next()
		shard := sm.ShardFor(s)
		if shard < 0 || shard >= n {
			return rep, failf(cfg.Seed, step, "router returned shard %d outside [0,%d)", shard, n)
		}
		oracles[shard].StartAt(step)
		if _, f := oracles[shard].Step(s); f != nil {
			return rep, f
		}
		if f := shadow.Err(); f != nil {
			return rep, f
		}
		rep.Steps++
	}

	if f := shadow.Final(); f != nil {
		return rep, f
	}
	if f := auditBudgets(cfg.Steps); f != nil {
		return rep, f
	}
	live := sm.ExportState()
	if err := shadow.VerifyState(mcfg, core.ManagerState{}, live); err != nil {
		return rep, failf(cfg.Seed, cfg.Steps, "%v", err)
	}

	bal := sm.BalancerStats()
	rep.Stats = sm.Stats()
	rep.Images = sm.Len()
	rep.Rebalances = bal.Rebalances
	rep.Evicted = bal.Evicted
	rep.StateHash = StateHash(live)
	return rep, nil
}
