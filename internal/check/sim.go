package check

import (
	"fmt"
	"math/rand"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/pkggraph"
	"repro/internal/spec"
)

// SimConfig parameterizes one deterministic chaos run. Everything
// derives from Seed: the repository, the request stream, the schedule
// of checkpoints, prunes and crashes, and the fault plans.
// The same config always produces the same SimReport or the same
// Failure.
type SimConfig struct {
	Seed  int64
	Steps int // requests to issue
	// Shards is the cache's shard count (0 or 1: one shard).
	Shards int
	// Alpha is the merge threshold; CapacityFrac sizes the cache as a
	// fraction of the repository's total bytes (0 = unlimited), one
	// capacity across all shards.
	Alpha        float64
	CapacityFrac float64
	// Conflicts enables the single-version conflict policy (every
	// package family exclusive).
	Conflicts bool
	// MinHash runs the cache with the default MinHash prefilter (band
	// index as the merge scan's candidate source) and every shard's
	// oracle in margin mode.
	MinHash bool
	// UniformOnly draws every fresh spec from the adversarial
	// uniform-random scheme (no dependency structure, merging defeated).
	UniformOnly bool
	// Dir, when non-empty, runs the simulation over a persistent store
	// (WAL + checkpoints) rooted there, with fsync=always semantics.
	Dir string
	// CheckpointEvery / PruneEvery / CrashEvery are mean gaps, in
	// requests, between the respective events (0 disables). Crashes and
	// checkpoints require Dir.
	CheckpointEvery int
	PruneEvery      int
	CrashEvery      int
	// Faults arms a seeded FaultPlan each process life: injected write
	// failures, torn writes, and sync failures.
	Faults bool
}

// SimReport summarizes a clean run. Two runs of the same config must
// report identically — TestSimDeterministic compares these wholesale.
type SimReport struct {
	Steps     int
	Stats     core.Stats
	Images    int
	Crashes   int
	Injected  int
	Acked     int // mutations covered by an acknowledged request
	StateHash string
}

// simCapacity derives the byte capacity from the repository.
func simCapacity(repo *pkggraph.Repo, frac float64) int64 {
	if frac <= 0 {
		return 0
	}
	var total int64
	for i := 0; i < repo.Len(); i++ {
		total += repo.Package(pkggraph.PkgID(i)).Size
	}
	return int64(frac * float64(total))
}

// simPlan draws one process life's fault plan: each fault class is
// independently armed at a seeded operation count.
func simPlan(rng *rand.Rand) FaultPlan {
	var plan FaultPlan
	if rng.Float64() < 0.4 {
		plan.FailWriteAt = rng.Int63n(300) + 1
	}
	if rng.Float64() < 0.4 {
		plan.ShortWriteAt = rng.Int63n(300) + 1
	}
	if rng.Float64() < 0.4 {
		plan.FailSyncAt = rng.Int63n(300) + 1
	}
	return plan
}

// Suite returns the canonical in-memory simulation configurations the
// replay and mutant tests run. First the one-shard rows: a merge-heavy
// run without conflicts (exercising the α boundary and eviction under
// pressure) and a conflict-policy run (exercising the conflict scan,
// where merges are rare) — together every operation type within 1000
// requests — then the MinHash rows (MinHashSuite), then the sharded
// rows (ShardSuite).
func Suite(seed int64) []SimConfig {
	rows := append([]SimConfig{
		{Seed: seed, Steps: 500, Alpha: 0.6, CapacityFrac: 0.3, PruneEvery: 90},
		{Seed: seed, Steps: 500, Alpha: 0.8, CapacityFrac: 0.5, Conflicts: true, PruneEvery: 90},
	}, MinHashSuite(seed)...)
	return append(rows, ShardSuite(seed)...)
}

// MinHashSuite returns Suite's one-shard MinHash rows: the merge-heavy
// shape with the band index as candidate source (α+margin = 0.85), an
// adversarial uniform-random stream (dense unstructured specs, α+margin
// = 1 exactly), and a conflict run whose α+margin > 1 forces the linear
// margin scan. On every request of those the oracle's index-free margin
// scan must pick the image production's banded bitset scan picked.
func MinHashSuite(seed int64) []SimConfig {
	return []SimConfig{
		{Seed: seed, Steps: 200, Alpha: 0.6, CapacityFrac: 0.3, MinHash: true, PruneEvery: 90},
		{Seed: seed, Steps: 150, Alpha: 0.75, MinHash: true, UniformOnly: true},
		{Seed: seed, Steps: 150, Alpha: 0.8, CapacityFrac: 0.5, Conflicts: true, MinHash: true},
	}
}

// ShardSuite returns Suite's sharded rows: a merge-heavy run under byte
// pressure, and a higher-alpha run at a different shard count (coprime
// with the first, so residue-class bugs cannot hide in a common
// divisor). Together they issue 1000 requests — the detection budget
// for the sharding mutants (route, balance). Next comes MinHash across
// four shards: the shards share one hasher (and its probe index), each
// has a band index of its own, and the oracle runs in margin mode.
// Last, sixteen shards at a fifth of the repository: most victims of
// a request's eviction step then lie on shards other than its own,
// which only a cache-wide pass can reach.
func ShardSuite(seed int64) []SimConfig {
	return []SimConfig{
		{Seed: seed, Steps: 500, Shards: 4, Alpha: 0.6, CapacityFrac: 0.3, PruneEvery: 90},
		{Seed: seed, Steps: 500, Shards: 3, Alpha: 0.8, CapacityFrac: 0.25},
		{Seed: seed, Steps: 200, Shards: 4, Alpha: 0.6, CapacityFrac: 0.3, MinHash: true},
		{Seed: seed, Steps: 300, Shards: 16, Alpha: 0.75, CapacityFrac: 0.2},
	}
}

// ChaosSuite returns the canonical persistent chaos configurations
// rooted under dir: checkpoints, prune passes, injected filesystem
// faults and crash/recovery cycles on one deterministic schedule, in
// exact mode and again with MinHash — where every recovery rebuilds
// signatures, band index and insertion ordinals through ImportState and
// one replay pass, and the run continues under a margin-mode oracle —
// and last the MinHash row at two shards, the site service's shape: a
// checkpoint written by two shards and imported into two, and a WAL
// tail whose shards interleave.
func ChaosSuite(seed int64, dir string) []SimConfig {
	exact := SimConfig{
		Seed: seed, Steps: 600, Alpha: 0.6, CapacityFrac: 0.3,
		Dir: filepath.Join(dir, "exact"), CheckpointEvery: 50, PruneEvery: 90, CrashEvery: 120, Faults: true,
	}
	minhash := exact
	minhash.Dir, minhash.MinHash = filepath.Join(dir, "minhash"), true
	sharded := minhash
	sharded.Dir, sharded.Shards = filepath.Join(dir, "minhash-shards2"), 2
	return []SimConfig{exact, minhash, sharded}
}

// RunSim executes the chaos schedule on the cache that serves,
// core.ShardedManager at cfg.Shards shards: a single goroutine
// interleaving oracle-validated requests with checkpoints, prune passes
// and — when persistence is on — injected filesystem faults and
// simulated crashes, each followed by recovery and a durability audit.
// Every request goes through ShardedManager.Request and is validated by
// the cache's one Oracle: the decision against the routed shard's
// pre-state, the evictions against every shard under the one capacity.
// The ShardShadow checks the commit stream, the capacity bound
// included. The run ends with the shadow's finals and a full replay of
// the mutation stream into a fresh cache. It returns a nil Failure on a
// clean run.
func RunSim(cfg SimConfig) (SimReport, *Failure) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	repo := SmallRepo(cfg.Seed)
	stream := NewStream(repo, cfg.Seed+1)
	if cfg.UniformOnly {
		stream.UniformProb = 1
	}
	capacity := simCapacity(repo, cfg.CapacityFrac)
	n := max(cfg.Shards, 1)

	mcfg := core.Config{Alpha: cfg.Alpha, Capacity: capacity, Shards: n}
	if cfg.Conflicts {
		mcfg.Conflicts = spec.NewSingleVersionPolicy(repo)
	}
	if cfg.MinHash {
		mcfg.MinHash = core.DefaultMinHash()
	}

	var rep SimReport
	persistent := cfg.Dir != ""

	// One process life: the cache, its validating hook chain (the
	// oracle around the cache, the shadow inside, the store last), and
	// the durability bookkeeping for the next crash audit.
	var (
		sm     *core.ShardedManager
		store  *persist.Store
		ffs    *FaultFS
		shadow *ShardShadow
		oracle *Oracle
		base   []core.ManagerState // each shard's state when this life started
		ckpts  []lifeCheckpoint    // checkpoints this life attempted
		acked  int                 // shadow mutations covered by acked requests
	)

	// boot starts a life at global request index step: in memory a
	// fresh cache; with a store, open it (over a fresh FaultFS with a
	// seeded plan) and recover. Then install the validation chain.
	boot := func(step int) *Failure {
		var next core.CommitHook
		var err error
		if persistent {
			var plan FaultPlan
			if cfg.Faults {
				plan = simPlan(rng)
			}
			ffs = NewFaultFS(plan)
			store, err = persist.Open(cfg.Dir, persist.Options{
				FS:           ffs,
				SyncPolicy:   persist.FsyncAlways,
				SegmentBytes: 16 << 10, // small segments exercise rotation
			})
			if err != nil {
				return failf(cfg.Seed, step, "opening store: %v", err)
			}
			if sm, _, err = store.RecoverSharded(repo, mcfg); err != nil {
				return failf(cfg.Seed, step, "recovery: %v", err)
			}
			next = store
		} else if sm, err = core.NewSharded(repo, mcfg); err != nil {
			return failf(cfg.Seed, step, "sharded manager: %v", err)
		}
		base, ckpts = shardStates(sm), nil
		shadow = NewShardShadow(repo, n, capacity, cfg.Seed, next)
		shadow.LoadState(sm.ExportState())
		sm.SetCommitHook(shadow)
		oracle = NewShardedOracle(sm, cfg.Seed)
		acked = 0
		return nil
	}

	// crash kills the current life and audits the recovery: the
	// recovered cache must pass CheckIntegrity — one replay pass derived
	// its specs, bits, signatures and bands — and equal, shard by shard,
	// the life's base state plus some prefix of its observed mutations
	// covering every acknowledged request (see verifyPrefix).
	crash := func(step int) *Failure {
		if f := shadow.Err(); f != nil {
			return f // don't let the reboot discard a pending violation
		}
		mode := CrashKill
		if rng.Float64() < 0.5 {
			mode = CrashPower
		}
		torn := rng.Int63n(64)
		if err := ffs.Crash(mode, torn); err != nil {
			return failf(cfg.Seed, step, "crashing: %v", err)
		}
		rep.Crashes++
		rep.Injected += ffs.Injected()
		muts := shadow.Mutations()
		prevBase, prevCkpts, prevAcked := base, ckpts, acked
		if f := boot(step); f != nil {
			return f
		}
		if err := sm.CheckIntegrity(); err != nil {
			return failf(cfg.Seed, step, "integrity after recovery: %v", err)
		}
		if err := verifyPrefix(repo, mcfg, prevBase, prevCkpts, muts, prevAcked, base); err != nil {
			return failf(cfg.Seed, step, "recovery audit: %v", err)
		}
		return nil
	}

	if f := boot(0); f != nil {
		return rep, f
	}

	event := func(mean int) bool {
		return mean > 0 && rng.Float64() < 1/float64(mean)
	}

	for step := 0; step < cfg.Steps; step++ {
		if persistent && event(cfg.CrashEvery) {
			if f := crash(step); f != nil {
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
		if persistent && event(cfg.CheckpointEvery) {
			// A failed checkpoint (injected fault) may still leave a file
			// recovery loads, so the audit keeps every attempt.
			state := sm.ExportState()
			ckpts = append(ckpts, lifeCheckpoint{at: shadow.Len(), state: state})
			if _, err := store.Checkpoint(state); err == nil {
				acked = shadow.Len()
			}
		}

		oracle.StartAt(step)
		if _, f := oracle.Step(stream.Next()); f != nil {
			return rep, f
		}
		if f := shadow.Err(); f != nil {
			return rep, f
		}
		if persistent {
			if err := store.WaitDurable(); err == nil {
				acked = shadow.Len()
			}
		}
		rep.Steps++
	}

	if f := shadow.Final(); f != nil {
		return rep, f
	}
	if err := shadow.VerifyState(mcfg, base, shardStates(sm)); err != nil {
		return rep, failf(cfg.Seed, cfg.Steps, "%v", err)
	}
	live := sm.ExportState()
	if persistent {
		// End the run with one final crash + recovery audit so every
		// simulation exercises the durability path at least once.
		if f := crash(cfg.Steps); f != nil {
			return rep, f
		}
		live = sm.ExportState()
	}

	rep.Stats = sm.Stats()
	rep.Images = sm.Len()
	rep.StateHash = StateHash(live)
	if persistent {
		rep.Injected += ffs.Injected()
	}
	return rep, nil
}

// lifeCheckpoint is a checkpoint a life attempted: the merged state it
// wrote, and how many of the life's mutations that state covers.
type lifeCheckpoint struct {
	at    int
	state core.ManagerState
}

// verifyPrefix checks the crash-recovery contract shard by shard: every
// shard of recovered must equal its state at one point of the life —
// base plus muts[:k], the same k for every shard, ackedLen ≤ k ≤
// len(muts) — as replay from the life's base rebuilds it. No
// acknowledged request lost, no state invented.
//
// A sharded cache recovered from a checkpoint holds that point in
// another shape: importing a merged checkpoint puts the whole Stats on
// shard 0 and gives every shard the merged clock and NextID, rounded up
// into its residue class. So with more than one shard a recovery may
// instead match a checkpoint the life attempted (see checkpointStart),
// replayed on from the checkpoint's mutation. With one shard the shapes
// coincide and only the base replay is tried.
func verifyPrefix(repo *pkggraph.Repo, mcfg core.Config, base []core.ManagerState, ckpts []lifeCheckpoint, muts []core.Mutation, ackedLen int, recovered []core.ManagerState) error {
	replayer, err := shardReplayer(repo, mcfg, base)
	if err != nil {
		return err
	}
	if ok, err := replaysTo(replayer, muts, 0, ackedLen, recovered); ok || err != nil {
		return err
	}
	if len(base) > 1 {
		for i := len(ckpts) - 1; i >= 0; i-- {
			start, err := checkpointStart(repo, mcfg, base, muts, ckpts[i])
			if err != nil {
				return err
			}
			if ok, err := replaysTo(start, muts, ckpts[i].at, ackedLen, recovered); ok || err != nil {
				return err
			}
		}
	}
	var clock uint64
	images, requests := 0, int64(0)
	for _, st := range recovered {
		clock = max(clock, st.Clock)
		images += len(st.Images)
		requests += st.Stats.Requests
	}
	return fmt.Errorf("recovered state (clock=%d, %d images, %d requests) matches no mutation prefix ≥ the acked boundary %d of %d",
		clock, images, requests, ackedLen, len(muts))
}

// replaysTo applies muts[from:] to replayer one record at a time and
// reports whether, after some prefix muts[:k] with k ≥ ackedLen, it
// equals recovered shard by shard.
func replaysTo(replayer *core.ShardedManager, muts []core.Mutation, from, ackedLen int, recovered []core.ManagerState) (bool, error) {
	for k := from; k <= len(muts); k++ {
		if k > from {
			if err := replayer.ApplyMutation(muts[k-1]); err != nil {
				return false, fmt.Errorf("replaying mutation %d (%s of image %d): %w", k-1, muts[k-1].Kind, muts[k-1].ImageID, err)
			}
		}
		if k < ackedLen {
			continue
		}
		cheap := true // counts first; a full export only when they agree
		replayer.WithSharedAll(func(ms []*core.Manager) {
			for i, m := range ms {
				cheap = cheap && m.Len() == len(recovered[i].Images) && m.Stats().Requests == recovered[i].Stats.Requests
			}
		})
		if cheap && shardsEqual(shardStates(replayer), recovered) == nil {
			return true, nil
		}
	}
	return false, nil
}

// checkpointStart returns the cache recovery rebuilds from ckpt: the
// checkpoint imported into len(base) shards — held first to the
// mutation stream. The checkpoint must be the merged state of the base
// replay to its mutation, and the import must give every shard exactly
// that replay's images, with the merged clock, the merged NextID
// rounded up into the shard's residue class, and the merged Stats on
// shard 0 and none elsewhere. So all the start takes on trust from
// ImportState is that shape, stated here on its own.
func checkpointStart(repo *pkggraph.Repo, mcfg core.Config, base []core.ManagerState, muts []core.Mutation, ckpt lifeCheckpoint) (*core.ShardedManager, error) {
	replayer, err := shardReplayer(repo, mcfg, base)
	if err != nil {
		return nil, err
	}
	for k, mut := range muts[:ckpt.at] {
		if err := replayer.ApplyMutation(mut); err != nil {
			return nil, fmt.Errorf("replaying mutation %d (%s of image %d): %w", k, mut.Kind, mut.ImageID, err)
		}
	}
	merged := replayer.ExportState()
	if err := statesEqual(merged, ckpt.state); err != nil {
		return nil, fmt.Errorf("the checkpoint at mutation %d is not the replay to that point: %w", ckpt.at, err)
	}
	n := uint64(len(base))
	want := shardStates(replayer)
	for i := range want {
		want[i].Clock = merged.Clock
		want[i].NextID = merged.NextID + (uint64(i)+n-merged.NextID%n)%n
		want[i].Stats = core.Stats{}
	}
	want[0].Stats = merged.Stats
	mcfg.Commit, mcfg.Shards = nil, len(base)
	start, err := core.NewSharded(repo, mcfg)
	if err != nil {
		return nil, err
	}
	if err := start.ImportState(ckpt.state); err != nil {
		return nil, fmt.Errorf("importing the checkpoint at mutation %d: %w", ckpt.at, err)
	}
	if err := shardsEqual(want, shardStates(start)); err != nil {
		return nil, fmt.Errorf("importing the checkpoint at mutation %d: %w", ckpt.at, err)
	}
	return start, nil
}
