package check

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/spec"
)

// SoakConfig parameterizes a concurrent soak: many goroutines
// hammering one cache, with a shadow validating the mutation stream
// and, optionally, a persistent store absorbing it through injected
// filesystem faults. Unlike RunSim, a soak is not bit-reproducible —
// goroutine interleaving is the point — so its detectors are the race
// detector, the shadow's ordering checks, the dense-Seq audit, and the
// final replay equivalence.
type SoakConfig struct {
	Seed         int64
	Requests     int // total, divided among workers
	Workers      int
	Alpha        float64
	CapacityFrac float64
	Conflicts    bool
	// Shards is the cache's shard count (minimum 1). Above 1 the
	// ShardShadow demultiplexes the merged commit stream by owning
	// shard, and maintenance adds audited Rebalance passes.
	Shards int
	// Dir, when non-empty, wires a persistent store (fsync=always)
	// into the hook chain; Faults arms injected write/sync failures
	// partway through, which the store must absorb as a sticky error
	// while the cache keeps serving.
	Dir    string
	Faults bool
	// MaintainEvery makes worker 0 run a checkpoint and a prune pass
	// (plus a rebalance, when sharded) every that many of its own
	// requests (0 disables).
	MaintainEvery int
}

// SoakReport summarizes a clean soak.
type SoakReport struct {
	Stats    core.Stats
	Images   int
	Injected int
}

// RunSoak executes the soak and returns an error describing the first
// violation, if any. Run it under -race: the unsynchronized accesses
// it is designed to expose surface there, not as return values.
func RunSoak(cfg SoakConfig) (SoakReport, error) {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	repo := SmallRepo(cfg.Seed)
	capacity := simCapacity(repo, cfg.CapacityFrac)
	mcfg := core.Config{Alpha: cfg.Alpha, Capacity: capacity}
	if cfg.Conflicts {
		mcfg.Conflicts = spec.NewSingleVersionPolicy(repo)
	}
	mcfg.Shards = max(cfg.Shards, 1)

	var (
		rep   SoakReport
		store *persist.Store
		ffs   *FaultFS
	)
	if cfg.Dir != "" {
		var plan FaultPlan
		if cfg.Faults {
			// Arm faults deep enough into the run that traffic is in
			// full flight when they land.
			plan = FaultPlan{FailSyncAt: 2000, ShortWriteAt: 3000}
		}
		ffs = NewFaultFS(plan)
		var err error
		store, err = persist.Open(cfg.Dir, persist.Options{
			FS:           ffs,
			SyncPolicy:   persist.FsyncAlways,
			SegmentBytes: 64 << 10,
		})
		if err != nil {
			return rep, err
		}
	}

	// Build the cache with its validating hook chain: shadow first,
	// store chained behind it.
	var (
		cache *core.ShardedManager
		next  core.CommitHook
		err   error
	)
	if store != nil {
		next = store
		cache, _, err = store.RecoverSharded(repo, mcfg)
	} else {
		cache, err = core.NewSharded(repo, mcfg)
	}
	if err != nil {
		return rep, err
	}
	shadow := NewShardShadow(repo, mcfg.Shards, cfg.Seed, next)
	if capacity > 0 {
		shadow.SetBudgets(cache.Budgets())
	}
	cache.SetCommitHook(shadow)
	// rebalance runs one audited balancer pass: the budgets it leaves
	// must sum exactly to the global capacity.
	rebalance := func() error {
		if capacity <= 0 || mcfg.Shards < 2 {
			return nil // nothing to balance
		}
		budgets := shadow.Rebalanced(func() []int64 {
			cache.Rebalance()
			return cache.Budgets()
		})
		var sum int64
		for _, b := range budgets {
			sum += b
		}
		if sum != capacity {
			return fmt.Errorf("check: shard budgets %v sum to %d, want the global capacity %d", budgets, sum, capacity)
		}
		return nil
	}

	perWorker := cfg.Requests / cfg.Workers
	total := perWorker * cfg.Workers
	seqs := make([][]uint64, cfg.Workers)
	errs := make([]error, cfg.Workers)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			stream := NewStream(repo, cfg.Seed+1000*int64(w))
			mine := make([]uint64, 0, perWorker)
			for i := 0; i < perWorker; i++ {
				res, err := cache.Request(stream.Next())
				if err != nil {
					errs[w] = fmt.Errorf("worker %d request %d: %w", w, i, err)
					return
				}
				mine = append(mine, res.Seq)
				if store != nil {
					store.WaitDurable() // sticky errors expected once faults fire
				}
				switch {
				case w == 0 && cfg.MaintainEvery > 0 && i%cfg.MaintainEvery == cfg.MaintainEvery-1:
					if store != nil {
						cache.WithExclusiveAll(func(ms []*core.Manager) {
							store.Checkpoint(core.MergedState(ms)) // errors expected under faults
						})
					}
					if err := rebalance(); err != nil {
						errs[w] = err
						return
					}
					if _, err := cache.Prune(0.5, 2); err != nil {
						errs[w] = fmt.Errorf("worker %d prune: %w", w, err)
						return
					}
				case i%64 == 63:
					// Exercise the read path under load.
					cache.Stats()
					cache.Len()
				}
			}
			seqs[w] = mine
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return rep, err
		}
	}

	// Every request got a unique, dense logical timestamp: Seqs are
	// exactly 1..total (nothing else advances the clock — under
	// sharding, every shard draws from the same source).
	var all []uint64
	for _, s := range seqs {
		all = append(all, s...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
	if len(all) != total {
		return rep, fmt.Errorf("check: %d results for %d requests", len(all), total)
	}
	for i, seq := range all {
		if seq != uint64(i+1) {
			return rep, fmt.Errorf("check: Seq sequence has %d at position %d (want dense 1..%d)", seq, i, total)
		}
	}

	if f := shadow.Final(); f != nil {
		return rep, f
	}
	if err := cache.CheckIntegrity(); err != nil {
		return rep, fmt.Errorf("check: integrity after soak: %w", err)
	}
	if err := shadow.VerifyState(mcfg, core.ManagerState{}, cache.ExportState()); err != nil {
		return rep, err
	}

	rep.Stats = cache.Stats()
	rep.Images = cache.Len()
	if ffs != nil {
		rep.Injected = ffs.Injected()
		if cfg.Faults && rep.Injected == 0 {
			return rep, fmt.Errorf("check: fault plan armed but no fault fired (run too short?)")
		}
	}
	return rep, nil
}
