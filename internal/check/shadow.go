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

// Shadow validates a ConcurrentManager through its commit hook: it
// maintains its own copy of the cache from the mutation stream alone
// and checks, at each mutation, the properties the concurrent pipeline
// guarantees — mutations arrive in exactly logical-clock order (the
// linearization the WAL depends on), a merge logs exactly the packages
// it added on top of the version before it, deletes pick the LRU
// victim, and the capacity bound holds whenever a request's eviction
// pass has completed.
//
// Install it with core.Manager.SetCommitHook (chaining any existing
// hook, e.g. the persist store) before serving traffic. All methods
// are safe for concurrent use; the hook itself runs under the locks
// the ConcurrentManager already holds, so the Shadow's own mutex is
// uncontended in practice.
type Shadow struct {
	repo     *pkggraph.Repo
	capacity int64
	seed     int64
	next     core.CommitHook // chained hook, may be nil

	mu        sync.Mutex
	images    map[uint64]*shadowImg
	total     int64
	lastStamp uint64            // clock of the most recent stamped mutation
	lastImage uint64            // image stamped by it (eviction must spare it)
	lastKind  core.MutationKind // kind of the most recent stamped mutation
	muts      []core.Mutation
	failure   *Failure
}

type shadowImg struct {
	spec    spec.Spec
	size    int64
	lastUse uint64
	version uint64
}

// NewShadow creates a Shadow for a manager over repo with the given
// byte capacity (zero or negative = unlimited). next, if non-nil,
// receives every mutation after validation — chain the persist store
// here so the WAL sees the identical stream.
func NewShadow(repo *pkggraph.Repo, capacity int64, seed int64, next core.CommitHook) *Shadow {
	return &Shadow{
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
func (sh *Shadow) LoadState(base core.ManagerState) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, snap := range base.Images {
		s := sh.specOf(snap.Packages)
		sh.images[snap.ID] = &shadowImg{spec: s, size: s.Size(sh.repo), lastUse: snap.LastUse, version: snap.Version}
		sh.total += s.Size(sh.repo)
	}
	sh.lastStamp = base.Clock
	sh.lastImage = ^uint64(0)
	// A recovered cache may legitimately exceed capacity (e.g. the WAL
	// was cut between a merge and its evictions); the bound is only
	// re-established by the next merge or insert, so leave lastKind
	// unset and let that mutation restart capacity checking.
	sh.lastKind = ""
}

// Err returns the first recorded violation, or nil.
func (sh *Shadow) Err() *Failure {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.failure
}

// Mutations returns the validated mutation stream so far. The returned
// slice must not be mutated.
func (sh *Shadow) Mutations() []core.Mutation {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.muts
}

// Len returns the number of mutations observed.
func (sh *Shadow) Len() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return len(sh.muts)
}

// failf records the first violation; later mutations still flow to the
// chained hook so the system under test keeps running.
func (sh *Shadow) failf(format string, args ...any) {
	if sh.failure == nil {
		sh.failure = failf(sh.seed, len(sh.muts), format, args...)
	}
}

// Commit implements core.CommitHook.
func (sh *Shadow) Commit(mut core.Mutation) {
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

// evicts reports whether the request that emitted this stamped
// mutation runs the eviction pass afterwards (hits never evict).
func evicts(kind core.MutationKind) bool {
	return kind == core.MutMerge || kind == core.MutInsert
}

// check validates mut against the shadow state (sh.mu held).
func (sh *Shadow) check(mut core.Mutation) {
	if stamped(mut.Kind) {
		// Total order: the commit hook runs before the lock that
		// stamped the clock is released, so mutations must arrive in
		// exactly clock order with no gaps — the property WAL replay
		// depends on.
		if mut.LastUse != sh.lastStamp+1 {
			sh.failf("%s of image %d stamped %d, want %d (commit-hook ordering / linearization violated)",
				mut.Kind, mut.ImageID, mut.LastUse, sh.lastStamp+1)
		}
		// The previous request's eviction pass has completed by the
		// time the next stamped mutation runs (it held the same lock),
		// so the capacity bound must hold here. Hits never evict, so
		// the bound is only guaranteed once a merge or insert has run
		// the eviction pass (a recovered cache may start oversized).
		if sh.capacity > 0 && evicts(sh.lastKind) && sh.total > sh.capacity && len(sh.images) > 1 {
			sh.failf("cache at %d bytes exceeds capacity %d with %d images at the next request",
				sh.total, sh.capacity, len(sh.images))
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
		// The victim must be the least-recently-used image, never the
		// one the in-flight request just used.
		if mut.ImageID == sh.lastImage {
			sh.failf("evicted image %d, the image the in-flight request just used", mut.ImageID)
		}
		oldest, oldestID := img.lastUse, mut.ImageID
		for id, other := range sh.images {
			if id == mut.ImageID || id == sh.lastImage {
				continue
			}
			if other.lastUse < oldest || (other.lastUse == oldest && id < oldestID) {
				oldest, oldestID = other.lastUse, id
			}
		}
		if oldestID != mut.ImageID {
			sh.failf("evicted image %d (lastUse %d) while image %d (lastUse %d) is older — not the LRU victim",
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
func (sh *Shadow) apply(mut core.Mutation) {
	if stamped(mut.Kind) {
		if mut.LastUse > sh.lastStamp {
			sh.lastStamp = mut.LastUse
		}
		sh.lastImage = mut.ImageID
		sh.lastKind = mut.Kind
	}
	switch mut.Kind {
	case core.MutTouch:
		if img := sh.images[mut.ImageID]; img != nil {
			img.lastUse = mut.LastUse
		}
	case core.MutInsert:
		s := sh.specOf(mut.Packages)
		sh.images[mut.ImageID] = &shadowImg{spec: s, size: s.Size(sh.repo), lastUse: mut.LastUse, version: mut.Version}
		sh.total += s.Size(sh.repo)
	case core.MutMerge, core.MutSplit:
		if img := sh.images[mut.ImageID]; img != nil {
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
		if img := sh.images[mut.ImageID]; img != nil {
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
func (sh *Shadow) specOf(keys []string) spec.Spec {
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

// Final runs the end-of-run checks: the capacity bound (no in-flight
// request can excuse an overflow once traffic has stopped) and any
// deferred violation.
func (sh *Shadow) Final() *Failure {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.failure != nil {
		return sh.failure
	}
	if sh.capacity > 0 && evicts(sh.lastKind) && sh.total > sh.capacity && len(sh.images) > 1 {
		sh.failure = failf(sh.seed, len(sh.muts), "cache at %d bytes exceeds capacity %d with %d images after the run",
			sh.total, sh.capacity, len(sh.images))
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

// VerifyState replays the observed mutation stream, as the WAL codec
// renders it (throughLog), into a fresh manager and compares the
// resulting state with the live manager's exported state — the same
// equivalence crash recovery relies on, checked without a crash. base
// carries the state the stream started from (zero value for an
// initially empty cache).
func (sh *Shadow) VerifyState(mcfg core.Config, base, live core.ManagerState) error {
	sh.mu.Lock()
	muts, err := throughLog(sh.muts)
	sh.mu.Unlock()
	if err != nil {
		return err
	}

	mcfg.Commit = nil
	mcfg.Tracer = nil
	replayer, err := core.NewManager(sh.repo, mcfg)
	if err != nil {
		return err
	}
	if len(base.Images) > 0 || base.Clock > 0 {
		if err := replayer.ImportState(base); err != nil {
			return fmt.Errorf("check: importing base state: %w", err)
		}
	}
	for i, mut := range muts {
		if err := replayer.ApplyMutation(mut); err != nil {
			return fmt.Errorf("check: replaying mutation %d (%s of image %d): %w", i, mut.Kind, mut.ImageID, err)
		}
	}
	if err := statesEqual(replayer.ExportState(), live); err != nil {
		return fmt.Errorf("check: replayed state diverges from live state: %w", err)
	}
	return nil
}
