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
// ~30 KB for an image merges have grown), and replay unions them into
// the image it finds. That makes a merge record meaningful only on top
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

// specFromKeys resolves package keys against the repository.
func (m *Manager) specFromKeys(keys []string) (spec.Spec, error) {
	ids := make([]pkggraph.PkgID, 0, len(keys))
	for _, key := range keys {
		id, ok := m.repo.Lookup(key)
		if !ok {
			return spec.Spec{}, fmt.Errorf("core: unknown package %q", key)
		}
		ids = append(ids, id)
	}
	return spec.New(ids), nil
}

// ApplyMutation re-applies one logged mutation during recovery. It
// never invokes the commit hook, never evicts (deletions are replayed
// explicitly), and does not rebuild hot-set windows (split tracking
// restarts fresh after recovery). The stats it accumulates match what
// the live manager recorded for the same operations. It resolves
// Packages and Added to package ids at once and keeps neither slice, so
// a caller may decode the next record into the same storage.
func (m *Manager) ApplyMutation(mut Mutation) error {
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
		s, err := m.specFromKeys(mut.Packages)
		if err != nil {
			return fmt.Errorf("core: replaying insert of image %d: %w", mut.ImageID, err)
		}
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
			sig:     m.sign(s),
			hot:     s,
		}
		m.appendImage(img)
		m.indexInsert(img)
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
		delta := mut.Kind == MutMerge && len(mut.Packages) == 0
		keys := mut.Packages
		if delta {
			if mut.Version != img.Version+1 {
				return fmt.Errorf("%w: image %d at version %d, delta yields %d", ErrDeltaBase, mut.ImageID, img.Version, mut.Version)
			}
			keys = mut.Added
		}
		s, err := m.specFromKeys(keys)
		if err == nil && s.Empty() {
			err = errors.New("no packages")
		}
		if err != nil {
			return fmt.Errorf("core: replaying %s of image %d: %w", mut.Kind, mut.ImageID, err)
		}
		if delta {
			if img.sig != nil {
				// As on the live path: MinHash of a union is the
				// positionwise minimum. The delta's own signature is
				// folded in and dropped, so it is signed into scratch.
				if len(m.replaySig) != len(img.sig) {
					m.replaySig = make(similarity.Signature, len(img.sig))
				}
				similarity.MergeSignaturesInto(img.sig, m.hasher.SignInto(m.replaySig, s))
			}
			s = img.Spec.Union(s)
		}
		m.total -= img.Size
		img.Spec = s
		if !delta {
			m.resign(img)
		}
		img.Size = s.Size(m.repo)
		img.Version = mut.Version
		m.indexUpdate(img)
		m.refreshBits(img)
		m.total += img.Size
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

// bumpClock advances the logical clock to at least t.
func (m *Manager) bumpClock(t uint64) {
	if t > m.clock {
		m.clock = t
	}
}
