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
// of checkpoints, prunes and crashes, and the fault plans. The same
// config always produces the same SimReport or the same Failure.
type SimConfig struct {
	Seed  int64
	Steps int // requests to issue
	// Alpha is the merge threshold; CapacityFrac sizes the cache as a
	// fraction of the repository's total bytes (0 = unlimited).
	Alpha        float64
	CapacityFrac float64
	// Conflicts enables the single-version conflict policy (every
	// package family exclusive).
	Conflicts bool
	// MinHash runs the manager with the default MinHash prefilter (band
	// index as the merge scan's candidate source) and the oracle in
	// margin mode.
	MinHash bool
	// UniformOnly draws every fresh spec from the adversarial
	// uniform-random scheme (no dependency structure, merging defeated).
	UniformOnly bool
	// Dir, when non-empty, runs the simulation over a persistent store
	// (WAL + checkpoints) rooted there, with fsync=always semantics.
	Dir string
	// CheckpointEvery / PruneEvery / CrashEvery are mean gaps, in
	// requests, between the respective events (0 disables). Crashes
	// and checkpoints require Dir.
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
// replay and mutant tests run: a merge-heavy run without conflicts
// (exercising the α boundary and eviction under pressure) and a
// conflict-policy run (exercising the conflict scan, where merges are
// rare) — together every operation type within 1000 requests — then the
// MinHash rows: the same merge-heavy shape with the band index as
// candidate source (α+margin = 0.85), an adversarial uniform-random
// stream (dense unstructured specs, α+margin = 1 exactly), and a
// conflict run whose α+margin > 1 forces the linear margin scan. On
// every request of those the oracle's index-free margin scan must pick
// the image production's banded bitset scan picked.
func Suite(seed int64) []SimConfig {
	return append([]SimConfig{
		{Seed: seed, Steps: 500, Alpha: 0.6, CapacityFrac: 0.3, PruneEvery: 90},
		{Seed: seed, Steps: 500, Alpha: 0.8, CapacityFrac: 0.5, Conflicts: true, PruneEvery: 90},
	}, MinHashSuite(seed)...)
}

// MinHashSuite returns Suite's MinHash rows on their own.
func MinHashSuite(seed int64) []SimConfig {
	return []SimConfig{
		{Seed: seed, Steps: 200, Alpha: 0.6, CapacityFrac: 0.3, MinHash: true, PruneEvery: 90},
		{Seed: seed, Steps: 150, Alpha: 0.75, MinHash: true, UniformOnly: true},
		{Seed: seed, Steps: 150, Alpha: 0.8, CapacityFrac: 0.5, Conflicts: true, MinHash: true},
	}
}

// ChaosSuite returns the canonical persistent chaos configurations
// rooted under dir: checkpoints, prune passes, injected filesystem
// faults and crash/recovery cycles on one deterministic schedule, in
// exact mode and again with MinHash — where every recovery rebuilds
// signatures, band index and insertion ordinals through ImportState and
// replay, and the run continues under a margin-mode oracle.
func ChaosSuite(seed int64, dir string) []SimConfig {
	exact := SimConfig{
		Seed: seed, Steps: 600, Alpha: 0.6, CapacityFrac: 0.3,
		Dir: filepath.Join(dir, "exact"), CheckpointEvery: 50, PruneEvery: 90, CrashEvery: 120, Faults: true,
	}
	minhash := exact
	minhash.Dir, minhash.MinHash = filepath.Join(dir, "minhash"), true
	return []SimConfig{exact, minhash}
}

// RunSim executes the chaos schedule: a single goroutine interleaving
// oracle-validated requests with checkpoints, prune passes, and — when
// persistence is on — injected filesystem faults and simulated
// crashes, each followed by recovery and a durability audit. It
// returns a nil Failure on a clean run.
func RunSim(cfg SimConfig) (SimReport, *Failure) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	repo := SmallRepo(cfg.Seed)
	stream := NewStream(repo, cfg.Seed+1)
	if cfg.UniformOnly {
		stream.UniformProb = 1
	}
	capacity := simCapacity(repo, cfg.CapacityFrac)

	mcfg := core.Config{Alpha: cfg.Alpha, Capacity: capacity}
	if cfg.Conflicts {
		mcfg.Conflicts = spec.NewSingleVersionPolicy(repo)
	}
	if cfg.MinHash {
		mcfg.MinHash = core.DefaultMinHash()
	}

	var rep SimReport
	persistent := cfg.Dir != ""

	// One process life: the manager, its validating hook chain
	// (oracle around, shadow inside, store last), and the durability
	// bookkeeping for the next crash audit.
	var (
		mgr    *core.Manager
		store  *persist.Store
		ffs    *FaultFS
		shadow *ShardShadow
		oracle *Oracle
		base   core.ManagerState // state this life started from
		acked  int               // shadow mutations covered by acked requests
	)

	// newShadow builds a life's one-shard shadow in front of next.
	newShadow := func(next core.CommitHook) *ShardShadow {
		sh := NewShardShadow(repo, 1, cfg.Seed, next)
		if capacity > 0 {
			sh.SetBudgets([]int64{capacity})
		}
		return sh
	}

	// boot starts a life at global request index step: open the store
	// (over a fresh FaultFS with a seeded plan), recover, and install
	// the validation chain.
	boot := func(step int) *Failure {
		if !persistent {
			var err error
			mgr, err = core.NewManager(repo, mcfg)
			if err != nil {
				return failf(cfg.Seed, step, "manager: %v", err)
			}
			shadow = newShadow(nil)
			mgr.SetCommitHook(shadow)
			oracle = NewOracle(mgr, cfg.Seed)
			oracle.StartAt(step)
			return nil
		}
		var plan FaultPlan
		if cfg.Faults {
			plan = simPlan(rng)
		}
		ffs = NewFaultFS(plan)
		var err error
		store, err = persist.Open(cfg.Dir, persist.Options{
			FS:           ffs,
			SyncPolicy:   persist.FsyncAlways,
			SegmentBytes: 16 << 10, // small segments exercise rotation
		})
		if err != nil {
			return failf(cfg.Seed, step, "opening store: %v", err)
		}
		m, _, err := store.Recover(repo, mcfg)
		if err != nil {
			return failf(cfg.Seed, step, "recovery: %v", err)
		}
		mgr = m
		base = mgr.ExportState()
		shadow = newShadow(mgr.CommitHook())
		shadow.LoadState(base)
		mgr.SetCommitHook(shadow)
		oracle = NewOracle(mgr, cfg.Seed)
		oracle.StartAt(step)
		acked = 0
		return nil
	}

	// crash kills the current life and audits the recovery: the
	// recovered state must equal the life's base state plus some
	// prefix of its observed mutations covering every acknowledged
	// request.
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
		prevBase, prevAcked := base, acked
		if f := boot(step); f != nil {
			return f
		}
		if err := verifyPrefix(repo, mcfg, prevBase, muts, prevAcked, base); err != nil {
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
			if _, err := mgr.Prune(0.5, 2); err != nil {
				return rep, failf(cfg.Seed, step, "prune: %v", err)
			}
			if err := mgr.CheckIntegrity(); err != nil {
				return rep, failf(cfg.Seed, step, "integrity after prune: %v", err)
			}
			if f := shadow.Err(); f != nil {
				return rep, f
			}
		}
		if persistent && event(cfg.CheckpointEvery) {
			if _, err := store.Checkpoint(mgr.ExportState()); err == nil {
				acked = shadow.Len()
			}
			// A failed checkpoint (injected fault) leaves stale files
			// recovery tolerates; nothing to do.
		}

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
	live := mgr.ExportState()
	if err := shadow.VerifyState(mcfg, base, live); err != nil {
		return rep, failf(cfg.Seed, cfg.Steps, "%v", err)
	}
	if persistent {
		// End the run with one final crash + recovery audit so every
		// simulation exercises the durability path at least once.
		if f := crash(cfg.Steps); f != nil {
			return rep, f
		}
		live = mgr.ExportState()
	}

	rep.Stats = mgr.Stats()
	rep.Images = mgr.Len()
	rep.StateHash = StateHash(live)
	if persistent {
		rep.Injected += ffs.Injected()
	}
	return rep, nil
}

// verifyPrefix checks the crash-recovery contract: recovered must
// equal base plus muts[:k] for some k with ackedLen ≤ k ≤ len(muts) —
// no acknowledged request lost, no state invented.
func verifyPrefix(repo *pkggraph.Repo, mcfg core.Config, base core.ManagerState, muts []core.Mutation, ackedLen int, recovered core.ManagerState) error {
	mcfg.Commit = nil
	mcfg.Tracer = nil
	replayer, err := core.NewManager(repo, mcfg)
	if err != nil {
		return err
	}
	if len(base.Images) > 0 || base.Clock > 0 {
		if err := replayer.ImportState(base); err != nil {
			return fmt.Errorf("importing base state: %w", err)
		}
	}
	match := func() bool {
		if replayer.Clock() != recovered.Clock ||
			replayer.Len() != len(recovered.Images) ||
			replayer.Stats().Requests != recovered.Stats.Requests {
			return false
		}
		return statesEqual(replayer.ExportState(), recovered) == nil
	}
	for k := 0; k <= len(muts); k++ {
		if k > 0 {
			if err := replayer.ApplyMutation(muts[k-1]); err != nil {
				return fmt.Errorf("replaying mutation %d (%s of image %d): %w", k-1, muts[k-1].Kind, muts[k-1].ImageID, err)
			}
		}
		if k >= ackedLen && match() {
			return nil
		}
	}
	return fmt.Errorf("recovered state (clock=%d, %d images, %d requests) matches no mutation prefix ≥ the acked boundary %d of %d",
		recovered.Clock, len(recovered.Images), recovered.Stats.Requests, ackedLen, len(muts))
}
