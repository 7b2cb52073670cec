package core

import (
	"errors"
	"fmt"

	"repro/internal/pkggraph"
	"repro/internal/similarity"
	"repro/internal/spec"
)

// Durable mutation log support.
//
// Algorithm 1 mutates the cache in exactly five ways: a hit refreshes
// an image's LRU position, a merge grows an image, an insert creates
// one, eviction deletes one, and a prune pass splits one. The
// CommitHook receives a Mutation describing each of these as it is
// applied, in application order, which is exactly what a write-ahead
// log needs to reconstruct the manager after a crash
// (internal/persist). ApplyMutation is the replay side: it re-applies
// a logged Mutation without re-running Algorithm 1's decisions, so
// recovery reproduces the logged outcomes byte for byte regardless of
// tie-breaking order.
//
// Counters, stamps and the package lists of insert and split are the
// image's state after the operation. A merge is the one delta: it only
// ever adds packages, so it logs the keys it added (~6 KB at paper
// scale) instead of the image's whole list (~14 KB for a fresh insert,
// ~30 KB for an image merges have grown), and replay adds them to the
// image it finds. That makes a merge record meaningful only on top
// of the image state the live manager merged into, so replay applies
// it only to an image standing at Version-1 and refuses it with
// ErrDeltaBase otherwise; inserts, splits and checkpoints carry full
// lists, so every delta has a full record beneath it.

// MutationKind identifies one of the five state-changing operations.
type MutationKind string

// The mutation kinds, named after the cache operations that emit them.
const (
	MutInsert MutationKind = "insert"
	MutMerge  MutationKind = "merge"
	MutTouch  MutationKind = "touch" // a hit: LRU refresh only
	MutDelete MutationKind = "delete"
	MutSplit  MutationKind = "split"
)

// ErrDeltaBase reports a merge delta whose image does not stand at the
// version the delta was computed against (a record before it is
// missing from the log or stream). The delta is never applied.
var ErrDeltaBase = errors.New("core: merge delta does not match the image's version")

// Mutation is one durable state change.
type Mutation struct {
	Kind    MutationKind `json:"kind"`
	ImageID uint64       `json:"image_id"`
	// LastUse is the logical clock stamped on the image (touch, merge,
	// insert). Replay advances the manager clock to at least this value.
	LastUse uint64 `json:"last_use,omitempty"`
	// Version and Merges are the image's counters after the operation.
	Version uint64 `json:"version,omitempty"`
	Merges  int    `json:"merges,omitempty"`
	// RequestBytes is the size of the request that caused the mutation
	// (touch, merge, insert); replay uses it to rebuild the I/O
	// accounting exactly.
	RequestBytes int64 `json:"request_bytes,omitempty"`
	// Packages are the image's package keys after the operation
	// (insert, split; a merge logged before deltas carries them too and
	// replays like a split). Keys, not IDs, so logs survive repository
	// reloads.
	Packages []string `json:"packages,omitempty"`
	// Added are the keys a merge added to the image as it stood at
	// Version-1.
	Added []string `json:"added,omitempty"`
}

// CommitHook receives each Mutation immediately after it is applied
// in memory, from the goroutine driving the Manager. A nil hook costs
// one branch per mutation. Implementations must not retain the
// Packages or Added slice beyond the call if they mutate it.
type CommitHook interface {
	Commit(mut Mutation)
}

// commit delivers mut to the configured hook, if any.
func (m *Manager) commit(mut Mutation) {
	if m.cfg.Commit != nil {
		m.cfg.Commit.Commit(mut)
	}
}

// keysOf renders a specification as portable package keys.
func (m *Manager) keysOf(s spec.Spec) []string {
	keys := make([]string, 0, s.Len())
	for _, id := range s.IDs() {
		keys = append(keys, m.repo.Key(id))
	}
	return keys
}

// Record is a Mutation with its package keys resolved to repository
// ids: what a replay pass applies. The recovery reader
// (internal/persist) resolves each key as it scans the record;
// ApplyMutation resolves a Mutation's with Resolve. Either way a key
// the repository lacks is not an error until apply reads its list, so
// a record is refused where, and with the words, it always was.
type Record struct {
	Kind         MutationKind
	ImageID      uint64
	LastUse      uint64
	Version      uint64
	Merges       int
	RequestBytes int64
	// Packages and Added are the ids of the Mutation's lists, in their
	// order.
	Packages, Added []pkggraph.PkgID
	// PackagesErr and AddedErr are UnknownPackage of the first key of
	// that list the repository lacks, and nil when it holds them all.
	// A list with an error holds the ids of the keys before that one.
	PackagesErr, AddedErr error
}

// UnknownPackage is the error for a logged package key the repository
// does not hold.
func UnknownPackage(key string) error {
	return fmt.Errorf("core: unknown package %q", key)
}

// resolveKeys appends the ids of keys to ids, stopping at the first key
// the repository lacks with UnknownPackage.
func resolveKeys(repo *pkggraph.Repo, ids []pkggraph.PkgID, keys []string) ([]pkggraph.PkgID, error) {
	for _, key := range keys {
		id, ok := repo.Lookup(key)
		if !ok {
			return ids, UnknownPackage(key)
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// Resolve makes r mut with its keys resolved against repo, reusing r's
// id storage.
func (r *Record) Resolve(repo *pkggraph.Repo, mut Mutation) {
	packages, added := r.Packages[:0], r.Added[:0]
	*r = Record{
		Kind: mut.Kind, ImageID: mut.ImageID, LastUse: mut.LastUse, Version: mut.Version,
		Merges: mut.Merges, RequestBytes: mut.RequestBytes,
	}
	r.Packages, r.PackagesErr = resolveKeys(repo, packages, mut.Packages)
	r.Added, r.AddedErr = resolveKeys(repo, added, mut.Added)
}

// ApplyMutation re-applies one logged mutation during recovery. It
// never invokes the commit hook, never evicts (deletions are replayed
// explicitly), and does not rebuild hot-set windows (split tracking
// restarts fresh after recovery). The stats it accumulates match what
// the live manager recorded for the same operations. It resolves
// Packages and Added to package ids (Record.Resolve) and applies the
// record as a replay pass does; it keeps neither slice, so a caller
// may decode the next record into the same storage.
//
// One call is a replay pass of one record: the image it changed is
// settled before it returns. ShardedManager.Replay runs a whole log as
// one pass.
func (m *Manager) ApplyMutation(mut Mutation) error {
	var r Record
	r.Resolve(m.repo, mut)
	err := m.apply(&r)
	if serr := m.settle(); err == nil {
		err = serr
	}
	return err
}

// apply is one record of a replay pass. Ids, counters, sizes, stamps
// and Stats are applied here, in record order, exactly as the live
// manager applied them. An image's derived state is not: a merge
// delta's ids wait on the image's pending list, its size grows by
// their summed package sizes, and settle derives the spec, interned
// bits, MinHash signature and bands once, from the final package set,
// when the pass ends. A record is validated before anything changes,
// so a rejected one leaves the cache as it was.
func (m *Manager) apply(mut *Record) error {
	switch mut.Kind {
	case MutTouch:
		img, ok := m.byID[mut.ImageID]
		if !ok {
			return fmt.Errorf("core: touch of unknown image %d", mut.ImageID)
		}
		img.lastUse = mut.LastUse
		m.bumpClock(mut.LastUse)
		m.stats.Requests++
		m.stats.Hits++
		m.stats.RequestedBytes += mut.RequestBytes
		m.stats.ContainerEffSum += Result{ImageSize: img.Size, RequestBytes: mut.RequestBytes}.ContainerEfficiency()
		return nil

	case MutInsert:
		if _, ok := m.byID[mut.ImageID]; ok {
			return fmt.Errorf("core: insert of already-live image %d", mut.ImageID)
		}
		if err := mut.PackagesErr; err != nil {
			return fmt.Errorf("core: replaying insert of image %d: %w", mut.ImageID, err)
		}
		s := spec.New(mut.Packages)
		if s.Empty() {
			return fmt.Errorf("core: replaying insert of image %d: empty spec", mut.ImageID)
		}
		img := &Image{
			ID:      mut.ImageID,
			Spec:    s,
			Size:    s.Size(m.repo),
			Version: mut.Version,
			Merges:  mut.Merges,
			lastUse: mut.LastUse,
			hot:     s,
		}
		m.appendImage(img)
		m.note(img)
		m.total += img.Size
		if mut.ImageID >= m.nextID {
			m.nextID = mut.ImageID + m.stride()
			m.alignNextID()
		}
		m.bumpClock(mut.LastUse)
		m.stats.Requests++
		m.stats.Inserts++
		m.stats.BytesWritten += img.Size
		m.stats.RequestedBytes += mut.RequestBytes
		m.stats.ContainerEffSum += Result{ImageSize: img.Size, RequestBytes: mut.RequestBytes}.ContainerEfficiency()
		return nil

	case MutMerge, MutSplit:
		img, ok := m.byID[mut.ImageID]
		if !ok {
			return fmt.Errorf("core: %s of unknown image %d", mut.Kind, mut.ImageID)
		}
		// A merge without a full list is a delta; one with it predates
		// deltas and replays like a split.
		if mut.Kind == MutMerge && len(mut.Packages) == 0 && mut.PackagesErr == nil {
			if mut.Version != img.Version+1 {
				return fmt.Errorf("%w: image %d at version %d, delta yields %d", ErrDeltaBase, mut.ImageID, img.Version, mut.Version)
			}
			err := mut.AddedErr
			if err == nil && len(mut.Added) == 0 {
				err = errors.New("no packages")
			}
			if err != nil {
				return fmt.Errorf("core: replaying merge of image %d: %w", mut.ImageID, err)
			}
			// A delta holds only packages the image lacked, so their
			// summed sizes are what the merge added to it.
			img.pending = append(img.pending, mut.Added...)
			for _, id := range mut.Added {
				img.Size += m.repo.Package(id).Size
				m.total += m.repo.Package(id).Size
			}
		} else {
			var s spec.Spec
			err := mut.PackagesErr
			if err == nil {
				if s = spec.New(mut.Packages); s.Empty() {
					err = errors.New("no packages")
				}
			}
			if err != nil {
				return fmt.Errorf("core: replaying %s of image %d: %w", mut.Kind, mut.ImageID, err)
			}
			m.total -= img.Size
			img.Spec = s
			img.pending = img.pending[:0]
			img.Size = s.Size(m.repo)
			m.total += img.Size
		}
		img.Version = mut.Version
		m.note(img)
		m.stats.BytesWritten += img.Size
		if mut.Kind == MutSplit {
			img.resetHot()
			m.stats.Splits++
			return nil
		}
		img.Merges = mut.Merges
		img.lastUse = mut.LastUse
		m.bumpClock(mut.LastUse)
		m.stats.Requests++
		m.stats.Merges++
		m.stats.RequestedBytes += mut.RequestBytes
		m.stats.ContainerEffSum += Result{ImageSize: img.Size, RequestBytes: mut.RequestBytes}.ContainerEfficiency()
		return nil

	case MutDelete:
		img, ok := m.byID[mut.ImageID]
		if !ok {
			return fmt.Errorf("core: delete of unknown image %d", mut.ImageID)
		}
		for i, cur := range m.images {
			if cur == img {
				m.images[i] = nil
				break
			}
		}
		delete(m.byID, img.ID)
		m.indexRemove(img.ID)
		m.total -= img.Size
		m.stats.Deletes++
		m.compact()
		return nil

	default:
		return fmt.Errorf("core: unknown mutation kind %q", mut.Kind)
	}
}

// note puts img on the pass's settle list, once per pass.
func (m *Manager) note(img *Image) {
	if !img.noted {
		img.noted = true
		m.noted = append(m.noted, img)
	}
}

// settle ends a replay pass. Every image the pass changed that is still
// live has its pending ids unioned into its spec, and is interned,
// signed into its own storage and re-banded once; an image the pass
// evicted gets none of that. The result is byte for byte what settling
// after every record gives (DESIGN.md §6), provided each delta is
// disjoint from its image and duplicate-free, as every delta this
// package logs is. A union shorter than its parts breaks that, and
// settle refuses it with an error naming the image. A pass that changed
// nothing (a touch) returns at once.
func (m *Manager) settle() error {
	if len(m.noted) == 0 {
		return nil
	}
	return m.settleNoted()
}

// settleNoted is settle's work over a non-empty settle list.
func (m *Manager) settleNoted() error {
	var err error
	noted := m.noted
	if mutantEnabled("replaystale") {
		noted = noted[:len(noted)-1]
	}
	for _, img := range noted {
		if m.byID[img.ID] != img {
			continue // evicted within the pass
		}
		if len(img.pending) > 0 {
			base := img.Spec.Len()
			img.Spec = img.Spec.Union(spec.New(img.pending))
			if got, want := img.Spec.Len(), base+len(img.pending); got != want && err == nil {
				err = fmt.Errorf("core: replayed merge deltas of image %d add %d packages to its %d, but the union holds %d: a delta repeats a package",
					img.ID, len(img.pending), base, got)
			}
		}
		m.refreshBits(img)
		if m.hasher != nil {
			if img.sig == nil {
				img.sig = make(similarity.Signature, m.hasher.K())
			}
			m.hasher.SignInto(img.sig, img.Spec)
			m.indexUpdate(img)
		}
	}
	for i, img := range m.noted {
		img.noted, img.pending = false, nil
		m.noted[i] = nil
	}
	m.noted = m.noted[:0]
	return err
}

// bumpClock advances the logical clock to at least t.
func (m *Manager) bumpClock(t uint64) {
	if t > m.clock {
		m.clock = t
	}
}
