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
// at each mutation, the properties the concurrent pipeline guarantees:
//
//   - every stamp is exactly its predecessor plus one: the hook fires
//     under the lock that stamped the request (hitMu or the write
//     lock), so the stream is the total order WAL replay depends on,
//     checked as each record arrives;
//   - a merge logs exactly the packages it added on top of the version
//     before it.
//
// A merge or insert stamps and runs its eviction pass under one
// critical section, the write lock, so no other stamp falls between
// the two:
//
//   - every delete takes the cache's least-recently-used image, sparing
//     only the image of the last stamped mutation (the one the evicting
//     request used);
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
	capacity int64 // zero or negative: unlimited
	seed     int64
	next     core.CommitHook // chained hook, may be nil

	mu        sync.Mutex
	images    map[uint64]*shadowImg
	total     int64             // bytes across every image
	lastStamp uint64            // clock of the most recent stamped mutation
	lastImage uint64            // its image
	lastKind  core.MutationKind // its kind
	muts      []core.Mutation
	failure   *Failure
}

type shadowImg struct {
	spec    spec.Spec
	size    int64
	lastUse uint64
	version uint64
}

// NewShardShadow creates a shadow for a cache of the given byte
// capacity (zero or negative: unlimited) over repo. next, if non-nil,
// receives every mutation after validation — chain the persist store
// here so the WAL sees the identical stream.
func NewShardShadow(repo *pkggraph.Repo, capacity int64, seed int64, next core.CommitHook) *ShardShadow {
	return &ShardShadow{
		repo:      repo,
		capacity:  capacity,
		seed:      seed,
		next:      next,
		images:    make(map[uint64]*shadowImg),
		lastImage: ^uint64(0),
	}
}

// LoadState seeds the shadow with a recovered manager state, so a
// post-crash shadow validates the continuation instead of expecting an
// empty cache. Must be called before any mutation flows.
func (sh *ShardShadow) LoadState(base core.ManagerState) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, snap := range base.Images {
		s := sh.specOf(snap.Packages)
		sh.images[snap.ID] = &shadowImg{spec: s, size: s.Size(sh.repo), lastUse: snap.LastUse, version: snap.Version}
		sh.total += s.Size(sh.repo)
	}
	// A recovered cache may legitimately exceed capacity (e.g. the WAL
	// was cut between a merge and its evictions); the bound is only
	// re-established by the next merge or insert, so lastKind stays
	// unset and that mutation restarts the capacity audit.
	sh.lastStamp = base.Clock
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
	sh.check(mut)
	sh.apply(mut)
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
	if img := sh.images[sh.lastImage]; img != nil {
		limit = max(limit, img.size)
	}
	if sh.total <= limit {
		return ""
	}
	return fmt.Sprintf("%d images hold %d bytes, over the capacity %d", len(sh.images), sh.total, sh.capacity)
}

// check validates mut against the shadow state (sh.mu held).
func (sh *ShardShadow) check(mut core.Mutation) {
	if stamped(mut.Kind) {
		if mut.LastUse != sh.lastStamp+1 {
			sh.failf("%s of image %d stamped %d, want %d (commit-hook ordering / linearization violated)",
				mut.Kind, mut.ImageID, mut.LastUse, sh.lastStamp+1)
		}
		// The previous request finished its eviction pass before this
		// one stamped, so the cache must fit.
		if over := sh.overCapacity(); over != "" {
			sh.failf("%s at the next request", over)
		}
	}
	img := sh.images[mut.ImageID]
	switch mut.Kind {
	case core.MutTouch:
		if img == nil {
			sh.failf("touch of unknown image %d", mut.ImageID)
		}
	case core.MutInsert:
		if img != nil {
			sh.failf("insert of already-live image %d", mut.ImageID)
		}
		if len(mut.Packages) == 0 {
			sh.failf("insert of image %d with no packages", mut.ImageID)
		}
	case core.MutMerge:
		if img == nil {
			sh.failf("merge into unknown image %d", mut.ImageID)
			return
		}
		if bad := mergeViolation(img, mut, sh.specOf(mut.Added)); bad != "" {
			sh.failf("merge into image %d %s", mut.ImageID, bad)
		}
	case core.MutDelete:
		if img == nil {
			sh.failf("delete of unknown image %d", mut.ImageID)
			return
		}
		if mut.ImageID == sh.lastImage {
			sh.failf("evicted image %d, the image the in-flight request just used", mut.ImageID)
		}
		oldest, oldestID := img.lastUse, mut.ImageID
		for id, o := range sh.images {
			if id == mut.ImageID || id == sh.lastImage {
				continue
			}
			if o.lastUse < oldest || (o.lastUse == oldest && id < oldestID) {
				oldest, oldestID = o.lastUse, id
			}
		}
		if oldestID != mut.ImageID {
			sh.failf("evicted image %d (lastUse %d) while image %d (lastUse %d) is older — not the cache's LRU victim",
				mut.ImageID, img.lastUse, oldestID, oldest)
		}
	case core.MutSplit:
		if img == nil {
			sh.failf("split of unknown image %d", mut.ImageID)
		}
	default:
		sh.failf("unknown mutation kind %q", mut.Kind)
	}
}

// apply folds mut into the shadow state (sh.mu held).
func (sh *ShardShadow) apply(mut core.Mutation) {
	if stamped(mut.Kind) {
		sh.lastStamp = max(sh.lastStamp, mut.LastUse)
		sh.lastImage = mut.ImageID
		sh.lastKind = mut.Kind
	}
	img := sh.images[mut.ImageID]
	switch mut.Kind {
	case core.MutTouch:
		if img != nil {
			img.lastUse = mut.LastUse
		}
	case core.MutInsert:
		s := sh.specOf(mut.Packages)
		sh.images[mut.ImageID] = &shadowImg{spec: s, size: s.Size(sh.repo), lastUse: mut.LastUse, version: mut.Version}
		sh.total += s.Size(sh.repo)
	case core.MutMerge, core.MutSplit:
		if img != nil {
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
		if img != nil {
			sh.total -= img.size
			delete(sh.images, mut.ImageID)
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

// Final runs the end-of-run check: the capacity bound with no request
// in flight to excuse an overflow. Stamp density needs no final pass:
// each stamp was checked against its predecessor as it arrived.
func (sh *ShardShadow) Final() *Failure {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.failure == nil {
		if over := sh.overCapacity(); over != "" {
			sh.failure = failf(sh.seed, len(sh.muts), "%s after the run", over)
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
// resolved in the scan (persist.ReadRecords) — into a fresh cache
// holding base (the zero state for an initially empty cache) and
// compares it against live, the cache's state now: the crash-recovery
// equivalence checked without a crash. Each record is a replay pass of
// its own, as ApplyMutation replays.
func (sh *ShardShadow) VerifyState(mcfg core.Config, base, live core.ManagerState) error {
	sh.mu.Lock()
	log, err := throughLog(sh.muts)
	encoded := len(sh.muts)
	sh.mu.Unlock()
	if err != nil {
		return err
	}

	replayer, err := newReplayer(sh.repo, mcfg, base)
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
	if err := statesEqual(replayer.ExportState(), live); err != nil {
		return fmt.Errorf("check: replayed state diverges from live state: %w", err)
	}
	return nil
}
