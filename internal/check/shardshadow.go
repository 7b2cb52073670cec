package check

import (
	"bytes"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/pkggraph"
	"repro/internal/spec"
)

// ShardShadow validates a cache through its commit hook: it maintains
// its own copy of the cache from the mutation stream alone and checks,
// at each mutation, the properties the concurrent pipeline guarantees.
// A sharded cache has no global total order of mutations, only N
// per-shard total orders stitched together by globally unique Seq
// stamps, so the shadow demultiplexes the stream by owning shard
// (ImageID mod N, the strided-allocation invariant) and checks, per
// shard:
//
//   - per-shard stamps are strictly increasing (each shard's hook
//     fires under that shard's stamping lock, so its subsequence is
//     monotone even though cross-shard interleaving is arbitrary); at
//     N = 1 there is no other shard to draw a stamp, so every stamp
//     must be exactly its predecessor plus one — the total order WAL
//     replay depends on, checked as each record arrives;
//   - stamps are globally unique and, at Final, dense — the merged
//     order the WAL replay and the equivalence proofs sort by;
//   - every insert's packages route back to the shard that allocated
//     the ID: core.ShardRoute(packages, N) must equal ImageID mod N.
//     This is the only detector that can see a misrouting bug — each
//     shard is self-consistent no matter which specs it is fed, so a
//     per-shard oracle never notices a spec that landed on the wrong
//     shard;
//   - a merge logs exactly the packages it added on top of the version
//     before it.
//
// Across shards it checks the cache's one capacity. A merge or insert
// stamps and runs its eviction pass under one critical section — its
// shard's write lock, or every shard's when the capacity spans them —
// so no other stamp falls between the two:
//
//   - every delete takes the least-recently-used image of the whole
//     cache, sparing only the image of the last stamped mutation (the
//     one the evicting request used);
//   - after each merge or insert the cache holds at most
//     max(capacity, the size of the image it kept) bytes, audited at
//     the next stamped mutation and at Final.
//
// Install it with SetCommitHook (chaining any existing hook, e.g. the
// persist store) before serving traffic. All methods are safe for
// concurrent use; the hook itself runs under the locks the cache
// already holds, so the shadow's own mutex is uncontended in practice.
type ShardShadow struct {
	repo     *pkggraph.Repo
	n        int
	capacity int64 // the cache's one capacity; zero or negative: unlimited
	seed     int64
	next     core.CommitHook // chained hook, may be nil
	routes   spec.RouteTerms

	mu        sync.Mutex
	shards    []*shardShadowState
	total     int64             // bytes across every shard
	images    int               // images across every shard
	lastImage uint64            // image of the most recent stamped mutation
	lastKind  core.MutationKind // its kind
	muts      []core.Mutation
	stamps    map[uint64]struct{} // global stamp uniqueness
	base      uint64              // clock the stream started from
	failure   *Failure
}

// shardShadowState is one shard's copy of the checkable cache state.
type shardShadowState struct {
	images    map[uint64]*shadowImg
	lastStamp uint64 // clock of the shard's most recent stamped mutation
}

type shadowImg struct {
	spec    spec.Spec
	size    int64
	lastUse uint64
	version uint64
}

// NewShardShadow creates a shadow for a cache of shards shards (1 for a
// plain Manager) and the given byte capacity (zero or negative:
// unlimited) over repo. next, if non-nil, receives every mutation after
// validation — chain the persist store here so the WAL sees the
// identical stream.
func NewShardShadow(repo *pkggraph.Repo, shards int, capacity int64, seed int64, next core.CommitHook) *ShardShadow {
	if shards < 1 {
		shards = 1
	}
	sh := &ShardShadow{
		repo:      repo,
		n:         shards,
		capacity:  capacity,
		seed:      seed,
		next:      next,
		routes:    spec.NewRouteTerms(repo),
		shards:    make([]*shardShadowState, shards),
		stamps:    make(map[uint64]struct{}),
		lastImage: ^uint64(0),
	}
	for i := range sh.shards {
		sh.shards[i] = &shardShadowState{images: make(map[uint64]*shadowImg)}
	}
	return sh
}

// LoadState seeds the shadow with a recovered manager state, so a
// post-crash shadow validates the continuation instead of expecting an
// empty cache. Must be called before any mutation flows.
func (sh *ShardShadow) LoadState(base core.ManagerState) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, snap := range base.Images {
		ss := sh.shards[snap.ID%uint64(sh.n)]
		s := sh.specOf(snap.Packages)
		ss.images[snap.ID] = &shadowImg{spec: s, size: s.Size(sh.repo), lastUse: snap.LastUse, version: snap.Version}
		sh.total += s.Size(sh.repo)
		sh.images++
	}
	// A recovered cache may legitimately exceed capacity (e.g. the WAL
	// was cut between a merge and its evictions); the bound is only
	// re-established by the next merge or insert, so lastKind stays
	// unset and that mutation restarts the capacity audit.
	for _, ss := range sh.shards {
		ss.lastStamp = base.Clock
	}
	sh.base = base.Clock
}

// Err returns the first recorded violation, or nil.
func (sh *ShardShadow) Err() *Failure {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.failure
}

// Mutations returns the validated stream in arrival order. The
// returned slice must not be mutated.
func (sh *ShardShadow) Mutations() []core.Mutation {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.muts
}

// Len returns the number of mutations observed.
func (sh *ShardShadow) Len() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return len(sh.muts)
}

func (sh *ShardShadow) failf(format string, args ...any) {
	if sh.failure == nil {
		sh.failure = failf(sh.seed, len(sh.muts), format, args...)
	}
}

// Commit implements core.CommitHook.
func (sh *ShardShadow) Commit(mut core.Mutation) {
	sh.mu.Lock()
	shard := int(mut.ImageID % uint64(sh.n))
	sh.check(shard, mut)
	sh.apply(shard, mut)
	sh.muts = append(sh.muts, mut)
	sh.mu.Unlock()
	if sh.next != nil {
		sh.next.Commit(mut)
	}
}

// stamped reports whether the mutation carries a request's clock value
// (touches, merges, inserts — one per request). Deletes ride the
// request that caused them; splits come from prune passes.
func stamped(kind core.MutationKind) bool {
	switch kind {
	case core.MutTouch, core.MutMerge, core.MutInsert:
		return true
	}
	return false
}

// overCapacity says how the cache exceeds its capacity after the last
// stamped request's eviction pass, or "" when it does not or that
// request ran none: the pass may keep only the image it spared, if
// that image outgrows the capacity alone.
func (sh *ShardShadow) overCapacity() string {
	if sh.capacity <= 0 || (sh.lastKind != core.MutMerge && sh.lastKind != core.MutInsert) {
		return ""
	}
	limit := sh.capacity
	if img := sh.shards[sh.lastImage%uint64(sh.n)].images[sh.lastImage]; img != nil {
		limit = max(limit, img.size)
	}
	if sh.total <= limit {
		return ""
	}
	return fmt.Sprintf("%d images hold %d bytes, over the capacity %d", sh.images, sh.total, sh.capacity)
}

// check validates mut against shard's shadow state (sh.mu held).
func (sh *ShardShadow) check(shard int, mut core.Mutation) {
	ss := sh.shards[shard]
	if stamped(mut.Kind) {
		// Per-shard total order: this shard's hook fires under its own
		// stamping lock, so its stamps must be strictly increasing.
		if mut.LastUse <= ss.lastStamp {
			sh.failf("shard %d: %s of image %d stamped %d after stamp %d (per-shard commit ordering violated)",
				shard, mut.Kind, mut.ImageID, mut.LastUse, ss.lastStamp)
		} else if sh.n == 1 && mut.LastUse != ss.lastStamp+1 {
			sh.failf("%s of image %d stamped %d, want %d (commit-hook ordering / linearization violated)",
				mut.Kind, mut.ImageID, mut.LastUse, ss.lastStamp+1)
		}
		// Global uniqueness: every stamp is drawn once from the shared
		// clock. A duplicate means two shards raced the clock source.
		if _, dup := sh.stamps[mut.LastUse]; dup {
			sh.failf("shard %d: %s of image %d reuses stamp %d (shared clock not unique)",
				shard, mut.Kind, mut.ImageID, mut.LastUse)
		}
		// The previous request finished its eviction pass before this
		// one stamped, so the cache must fit.
		if over := sh.overCapacity(); over != "" {
			sh.failf("%s at the next request", over)
		}
	}
	img := ss.images[mut.ImageID]
	switch mut.Kind {
	case core.MutTouch:
		if img == nil {
			sh.failf("shard %d: touch of unknown image %d", shard, mut.ImageID)
		}
	case core.MutInsert:
		if img != nil {
			sh.failf("shard %d: insert of already-live image %d", shard, mut.ImageID)
		}
		if len(mut.Packages) == 0 {
			sh.failf("shard %d: insert of image %d with no packages", shard, mut.ImageID)
		}
		// Route audit: the inserted spec must route to the shard whose
		// residue class allocated the ID. Per-shard checks cannot see a
		// misrouted spec (each shard is self-consistent), so this is the
		// detector for router bugs.
		if want := core.ShardRoute(mut.Packages, sh.n); want != shard {
			sh.failf("shard %d: insert of image %d whose packages route to shard %d (request misrouted)",
				shard, mut.ImageID, want)
		} else if got := core.ShardOf(sh.routes.Sum(sh.specOf(mut.Packages)), sh.n); got != want {
			// The interned route table (per-PkgID terms summed) must
			// agree with the streamed string fold on every inserted spec
			// — the pure-function identity the fast routing path rides.
			sh.failf("shard %d: insert of image %d routes to %d interned but %d streamed (route table diverged)",
				shard, mut.ImageID, got, want)
		}
	case core.MutMerge:
		if img == nil {
			sh.failf("shard %d: merge into unknown image %d", shard, mut.ImageID)
			return
		}
		if bad := mergeViolation(img, mut, sh.specOf(mut.Added)); bad != "" {
			sh.failf("shard %d: merge into image %d %s", shard, mut.ImageID, bad)
		}
	case core.MutDelete:
		if img == nil {
			sh.failf("shard %d: delete of unknown image %d", shard, mut.ImageID)
			return
		}
		if mut.ImageID == sh.lastImage {
			sh.failf("shard %d: evicted image %d, the image the in-flight request just used", shard, mut.ImageID)
		}
		oldest, oldestID := img.lastUse, mut.ImageID
		for _, other := range sh.shards {
			for id, o := range other.images {
				if id == mut.ImageID || id == sh.lastImage {
					continue
				}
				if o.lastUse < oldest || (o.lastUse == oldest && id < oldestID) {
					oldest, oldestID = o.lastUse, id
				}
			}
		}
		if oldestID != mut.ImageID {
			sh.failf("shard %d: evicted image %d (lastUse %d) while image %d (lastUse %d) is older — not the cache's LRU victim",
				shard, mut.ImageID, img.lastUse, oldestID, oldest)
		}
	case core.MutSplit:
		if img == nil {
			sh.failf("shard %d: split of unknown image %d", shard, mut.ImageID)
		}
	default:
		sh.failf("unknown mutation kind %q", mut.Kind)
	}
}

// apply folds mut into shard's shadow state (sh.mu held).
func (sh *ShardShadow) apply(shard int, mut core.Mutation) {
	ss := sh.shards[shard]
	if stamped(mut.Kind) {
		if mut.LastUse > ss.lastStamp {
			ss.lastStamp = mut.LastUse
		}
		sh.lastImage = mut.ImageID
		sh.lastKind = mut.Kind
		sh.stamps[mut.LastUse] = struct{}{}
	}
	switch mut.Kind {
	case core.MutTouch:
		if img := ss.images[mut.ImageID]; img != nil {
			img.lastUse = mut.LastUse
		}
	case core.MutInsert:
		s := sh.specOf(mut.Packages)
		ss.images[mut.ImageID] = &shadowImg{spec: s, size: s.Size(sh.repo), lastUse: mut.LastUse, version: mut.Version}
		sh.total += s.Size(sh.repo)
		sh.images++
	case core.MutMerge, core.MutSplit:
		if img := ss.images[mut.ImageID]; img != nil {
			s := sh.specOf(mut.Packages)
			if mut.Kind == core.MutMerge {
				s = img.spec.Union(sh.specOf(mut.Added))
			}
			sh.total += s.Size(sh.repo) - img.size
			img.spec = s
			img.size = s.Size(sh.repo)
			img.version = mut.Version
			if mut.Kind == core.MutMerge {
				img.lastUse = mut.LastUse
			}
		}
	case core.MutDelete:
		if img := ss.images[mut.ImageID]; img != nil {
			sh.total -= img.size
			sh.images--
			delete(ss.images, mut.ImageID)
		}
	}
}

// mergeViolation says what is wrong with a merge record landing on img,
// or "". The record is a delta: it must carry no full list, name at
// least one package, name none twice and none img already holds (the
// live merge logs exactly s minus the image), and step the version by
// one — the base-version rule replay enforces.
func mergeViolation(img *shadowImg, mut core.Mutation, added spec.Spec) string {
	switch {
	case len(mut.Packages) != 0:
		return "carries a full package list, want only the added keys"
	case added.Empty():
		return "adds no packages"
	case added.Len() != len(mut.Added):
		return "names an added package twice"
	case added.IntersectionLen(img.spec) != 0:
		return "adds a package the image already holds"
	case mut.Version != img.version+1:
		return fmt.Sprintf("yields version %d, want %d", mut.Version, img.version+1)
	}
	return ""
}

// specOf resolves package keys; unknown keys are themselves a
// violation (the stream must be self-describing).
func (sh *ShardShadow) specOf(keys []string) spec.Spec {
	ids := make([]pkggraph.PkgID, 0, len(keys))
	for _, key := range keys {
		id, ok := sh.repo.Lookup(key)
		if !ok {
			sh.failf("mutation names unknown package %q", key)
			continue
		}
		ids = append(ids, id)
	}
	return spec.New(ids)
}

// Final runs the end-of-run checks: the capacity bound with no request
// in flight to excuse an overflow, and stamp density — the N
// per-shard total orders, merged by Seq, must form exactly the dense
// sequence base+1..base+K with no gap and no duplicate, which is what
// makes "sort by Seq" a linearization of the whole run.
func (sh *ShardShadow) Final() *Failure {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.failure != nil {
		return sh.failure
	}
	if over := sh.overCapacity(); over != "" {
		sh.failure = failf(sh.seed, len(sh.muts), "%s after the run", over)
		return sh.failure
	}
	for k := uint64(1); k <= uint64(len(sh.stamps)); k++ {
		if _, ok := sh.stamps[sh.base+k]; !ok {
			sh.failure = failf(sh.seed, len(sh.muts), "stamp %d missing: %d stamped mutations do not form the dense range %d..%d",
				sh.base+k, len(sh.stamps), sh.base+1, sh.base+uint64(len(sh.stamps)))
			return sh.failure
		}
	}
	return sh.failure
}

// throughLog frames muts with the WAL record encoder, as the store
// writes them.
func throughLog(muts []core.Mutation) ([]byte, error) {
	var log []byte
	for i, mut := range muts {
		var err error
		if log, err = persist.EncodeRecord(log, mut); err != nil {
			return nil, fmt.Errorf("check: encoding mutation %d: %w", i, err)
		}
	}
	return log, nil
}

// VerifyState replays the observed mutation stream, in arrival order
// and as recovery reads it — framed by the WAL record encoder
// (throughLog) and read back by the reader RecoverSharded uses, keys
// resolved in the scan (persist.ReadRecords) — into a fresh cache of
// the same shard count and compares it, shard by shard, against the
// live one — the crash-recovery equivalence (cross-shard records
// commute; per-shard subsequences are monotone) checked without a
// crash. Each record is a replay pass of its own, as ApplyMutation
// replays. base holds each shard's state when the stream started (nil
// for an initially empty cache) and live each shard's state now (see
// shardStates).
func (sh *ShardShadow) VerifyState(mcfg core.Config, base, live []core.ManagerState) error {
	sh.mu.Lock()
	log, err := throughLog(sh.muts)
	encoded := len(sh.muts)
	sh.mu.Unlock()
	if err != nil {
		return err
	}

	if base == nil {
		base = make([]core.ManagerState, sh.n)
	}
	replayer, err := shardReplayer(sh.repo, mcfg, base)
	if err != nil {
		return fmt.Errorf("check: %w", err)
	}
	read := 0
	var replayErr error
	err = persist.ReadRecords(bytes.NewReader(log), sh.repo, func(rec *core.Record) {
		i := read
		read++
		if replayErr != nil {
			return
		}
		var applyErr error
		settleErr := replayer.Replay(func(apply func(*core.Record) error) { applyErr = apply(rec) })
		if applyErr == nil {
			applyErr = settleErr
		}
		if applyErr != nil {
			replayErr = fmt.Errorf("check: replaying mutation %d (%s of image %d): %w", i, rec.Kind, rec.ImageID, applyErr)
		}
	})
	switch {
	case err != nil:
		return fmt.Errorf("check: reading back the encoded mutations: %w", err)
	case read != encoded:
		return fmt.Errorf("check: %d mutations encoded, %d read back", encoded, read)
	case replayErr != nil:
		return replayErr
	}
	if err := shardsEqual(shardStates(replayer), live); err != nil {
		return fmt.Errorf("check: replayed state diverges from live state: %w", err)
	}
	return nil
}
