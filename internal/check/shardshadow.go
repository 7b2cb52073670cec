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
//     before it;
//   - deletes pick the per-shard LRU victim, sparing the image the
//     shard's in-flight request just used;
//   - each shard's bytes respect its budget whenever a request's
//     eviction pass has completed (via SetBudgets: the whole capacity
//     at N = 1, the balancer's assignment otherwise; the budgets
//     themselves summing to the global capacity is the driver's audit),
//     so the global byte bound is the sum of the per-shard bounds.
//
// Install it with SetCommitHook (chaining any existing hook, e.g. the
// persist store) before serving traffic. All methods are safe for
// concurrent use; the hook itself runs under the locks the cache
// already holds, so the shadow's own mutex is uncontended in practice.
type ShardShadow struct {
	repo   *pkggraph.Repo
	n      int
	seed   int64
	next   core.CommitHook // chained hook, may be nil
	routes spec.RouteTerms

	mu      sync.Mutex
	shards  []*shardShadowState
	budgets []int64 // per-shard byte budgets; nil disables the audit
	muts    []core.Mutation
	stamps  map[uint64]struct{} // global stamp uniqueness
	base    uint64              // clock the stream started from
	failure *Failure
}

// shardShadowState is one shard's copy of the checkable cache state.
type shardShadowState struct {
	images    map[uint64]*shadowImg
	total     int64
	lastStamp uint64            // clock of the shard's most recent stamped mutation
	lastImage uint64            // image stamped by it (eviction must spare it)
	lastKind  core.MutationKind // kind of the shard's most recent stamped mutation
}

type shadowImg struct {
	spec    spec.Spec
	size    int64
	lastUse uint64
	version uint64
}

// NewShardShadow creates a shadow for a cache of shards shards (1 for a
// plain Manager) over repo. next, if non-nil, receives every mutation
// after validation — chain the persist store here so the WAL sees the
// identical stream.
func NewShardShadow(repo *pkggraph.Repo, shards int, seed int64, next core.CommitHook) *ShardShadow {
	if shards < 1 {
		shards = 1
	}
	sh := &ShardShadow{
		repo:   repo,
		n:      shards,
		seed:   seed,
		next:   next,
		routes: spec.NewRouteTerms(repo),
		shards: make([]*shardShadowState, shards),
		stamps: make(map[uint64]struct{}),
	}
	for i := range sh.shards {
		sh.shards[i] = &shardShadowState{images: make(map[uint64]*shadowImg), lastImage: ^uint64(0)}
	}
	return sh
}

// SetBudgets installs the current per-shard byte budgets (a copy is
// taken). The driver calls this after every Rebalance; nil or an
// all-zero slice disables the per-shard capacity audit (unlimited).
func (sh *ShardShadow) SetBudgets(budgets []int64) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if budgets == nil {
		sh.budgets = nil
		return
	}
	sh.budgets = append(sh.budgets[:0], budgets...)
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
		ss.total += s.Size(sh.repo)
	}
	// A recovered cache may legitimately exceed capacity (e.g. the WAL
	// was cut between a merge and its evictions); the bound is only
	// re-established by the next merge or insert, so lastKind stays
	// unset and that mutation restarts the budget audit.
	for _, ss := range sh.shards {
		ss.lastStamp = base.Clock
	}
	sh.base = base.Clock
}

// Rebalanced runs pass — one balancer pass, returning the budgets it
// left, which Rebalanced installs and returns — with the per-shard
// budget audit suspended across it. The pass has released every shard
// lock by the time it returns, so a request on a shard whose budget
// just grew can fill past its *old* budget before the new ones are
// installed here; audited against the old budget that is a false
// "exceeds its budget". The shrink's own deletes are unstamped and stay
// checked (LRU victim order).
func (sh *ShardShadow) Rebalanced(pass func() []int64) []int64 {
	sh.SetBudgets(nil)
	budgets := pass()
	sh.SetBudgets(budgets)
	return budgets
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

func (sh *ShardShadow) budgetOf(shard int) int64 {
	if sh.budgets == nil || shard >= len(sh.budgets) {
		return 0
	}
	return sh.budgets[shard]
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

// evicts reports whether the request that emitted this stamped
// mutation runs the eviction pass afterwards (hits never evict).
func evicts(kind core.MutationKind) bool {
	return kind == core.MutMerge || kind == core.MutInsert
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
		// The shard's previous request finished its eviction pass before
		// this one stamped (same lock), so the shard's budget must hold.
		if b := sh.budgetOf(shard); b > 0 && evicts(ss.lastKind) && ss.total > b && len(ss.images) > 1 {
			sh.failf("shard %d at %d bytes exceeds its budget %d with %d images at the next request",
				shard, ss.total, b, len(ss.images))
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
		if mut.ImageID == ss.lastImage {
			sh.failf("shard %d: evicted image %d, the image the shard's in-flight request just used", shard, mut.ImageID)
		}
		oldest, oldestID := img.lastUse, mut.ImageID
		for id, other := range ss.images {
			if id == mut.ImageID || id == ss.lastImage {
				continue
			}
			if other.lastUse < oldest || (other.lastUse == oldest && id < oldestID) {
				oldest, oldestID = other.lastUse, id
			}
		}
		if oldestID != mut.ImageID {
			sh.failf("shard %d: evicted image %d (lastUse %d) while image %d (lastUse %d) is older — not the shard's LRU victim",
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
		ss.lastImage = mut.ImageID
		ss.lastKind = mut.Kind
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
		ss.total += s.Size(sh.repo)
	case core.MutMerge, core.MutSplit:
		if img := ss.images[mut.ImageID]; img != nil {
			s := sh.specOf(mut.Packages)
			if mut.Kind == core.MutMerge {
				s = img.spec.Union(sh.specOf(mut.Added))
			}
			ss.total += s.Size(sh.repo) - img.size
			img.spec = s
			img.size = s.Size(sh.repo)
			img.version = mut.Version
			if mut.Kind == core.MutMerge {
				img.lastUse = mut.LastUse
			}
		}
	case core.MutDelete:
		if img := ss.images[mut.ImageID]; img != nil {
			ss.total -= img.size
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

// Final runs the end-of-run checks: per-shard budget bounds with no
// in-flight request to excuse an overflow, and stamp density — the N
// per-shard total orders, merged by Seq, must form exactly the dense
// sequence base+1..base+K with no gap and no duplicate, which is what
// makes "sort by Seq" a linearization of the whole run.
func (sh *ShardShadow) Final() *Failure {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.failure != nil {
		return sh.failure
	}
	for i, ss := range sh.shards {
		if b := sh.budgetOf(i); b > 0 && evicts(ss.lastKind) && ss.total > b && len(ss.images) > 1 {
			sh.failure = failf(sh.seed, len(sh.muts), "shard %d at %d bytes exceeds its budget %d with %d images after the run",
				i, ss.total, b, len(ss.images))
			return sh.failure
		}
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

// throughLog returns muts as recovery would read them: framed by the
// WAL record encoder and decoded back by the segment reader. Replay
// audits replay these, so a record that does not survive the codec
// intact shows as a state divergence even in a run with no store.
func throughLog(muts []core.Mutation) ([]core.Mutation, error) {
	var log []byte
	for i, mut := range muts {
		var err error
		if log, err = persist.EncodeRecord(log, mut); err != nil {
			return nil, fmt.Errorf("check: encoding mutation %d: %w", i, err)
		}
	}
	read, err := persist.ReadSegment(bytes.NewReader(log))
	if err != nil {
		return nil, fmt.Errorf("check: reading back the encoded mutations: %w", err)
	}
	if len(read) != len(muts) {
		return nil, fmt.Errorf("check: %d mutations encoded, %d read back", len(muts), len(read))
	}
	return read, nil
}

// VerifyState replays the observed mutation stream, in arrival order
// and as the WAL codec renders it (throughLog), into a fresh cache of
// the same shard count and compares it, shard by shard, against the
// live one — the crash-recovery equivalence (cross-shard records
// commute; per-shard subsequences are monotone) checked without a
// crash. base holds each shard's state when the stream started (nil for
// an initially empty cache) and live each shard's state now (see
// shardStates).
func (sh *ShardShadow) VerifyState(mcfg core.Config, base, live []core.ManagerState) error {
	sh.mu.Lock()
	muts, err := throughLog(sh.muts)
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
	for i, mut := range muts {
		if err := replayer.ApplyMutation(mut); err != nil {
			return fmt.Errorf("check: replaying mutation %d (%s of image %d): %w", i, mut.Kind, mut.ImageID, err)
		}
	}
	if err := shardsEqual(shardStates(replayer), live); err != nil {
		return fmt.Errorf("check: replayed state diverges from live state: %w", err)
	}
	return nil
}
