package core

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/similarity"
	"repro/internal/spec"
)

// CheckIntegrity validates the Manager's internal consistency: the
// image slice and byID index agree, cached sizes and the byte total
// match a recomputation from the repository, specs are canonical,
// LRU stamps never run ahead of the clock, MinHash signatures are
// fresh and the band index holds exactly the live images under them,
// and the operation counters partition the request count. Any
// violation is a bug regardless of the workload that produced it.
//
// The simulation harness (internal/check) calls this after every
// mutation it drives; it is cheap enough (one pass over the cache) to
// run continuously in tests but is not intended for the serving path.
//
// Callers holding a ShardedManager must go through
// ShardedManager.CheckIntegrity, which quiesces the cache first.
func (m *Manager) CheckIntegrity() error {
	var total int64
	live := 0
	seen := make(map[uint64]bool)
	var prevOrd uint64
	ordSeen := false
	for _, img := range m.images {
		if img == nil {
			continue
		}
		live++
		if seen[img.ID] {
			return fmt.Errorf("duplicate image ID %d in slice", img.ID)
		}
		seen[img.ID] = true
		if m.byID[img.ID] != img {
			return fmt.Errorf("byID[%d] does not point at the slice entry", img.ID)
		}
		if img.Spec.Empty() {
			return fmt.Errorf("image %d has an empty spec", img.ID)
		}
		if got := img.Spec.Size(m.repo); got != img.Size {
			return fmt.Errorf("image %d cached size %d != recomputed %d", img.ID, img.Size, got)
		}
		ids := img.Spec.IDs()
		if !sort.SliceIsSorted(ids, func(a, b int) bool { return ids[a] < ids[b] }) {
			return fmt.Errorf("image %d spec not sorted", img.ID)
		}
		if img.lastUse > m.clock {
			return fmt.Errorf("image %d lastUse %d beyond clock %d", img.ID, img.lastUse, m.clock)
		}
		if m.hasher != nil {
			// The direct kernel, not SignInto: the audit must not share
			// the probe index with the signatures it checks.
			want := m.hasher.SignDirect(img.Spec)
			if len(img.sig) != len(want) {
				return fmt.Errorf("image %d signature has %d positions, want %d", img.ID, len(img.sig), len(want))
			}
			for i := range want {
				if img.sig[i] != want[i] {
					return fmt.Errorf("image %d signature stale at position %d", img.ID, i)
				}
			}
			// The merge scan retrieves the image by the bands it is
			// filed under, so they must be its current signature's.
			if m.bandIndex != nil {
				banded, ok := m.bandIndex.Signature(img.ID)
				if !ok {
					return fmt.Errorf("image %d missing from the band index", img.ID)
				}
				if !slices.Equal(banded, img.sig) {
					return fmt.Errorf("image %d banded under a stale signature", img.ID)
				}
			}
		}
		// The interned bitset must round-trip to exactly the spec it was
		// built from — an intern collision or stale bits after a
		// merge/split would silently corrupt every decision.
		if img.bits.Card() != img.Spec.Len() {
			return fmt.Errorf("image %d interned cardinality %d != spec length %d (intern collision or stale bits)", img.ID, img.bits.Card(), img.Spec.Len())
		}
		if !m.fast.intern.SpecOf(img.bits).Equal(img.Spec) {
			return fmt.Errorf("image %d interned bitset does not round-trip to its spec", img.ID)
		}
		// Insertion ordinals must strictly increase in slice order:
		// band-candidate enumeration sorts by ord to reproduce a linear
		// scan's tie-breaking.
		if ordSeen && img.ord <= prevOrd {
			return fmt.Errorf("image %d ordinal %d not above predecessor's %d", img.ID, img.ord, prevOrd)
		}
		prevOrd, ordSeen = img.ord, true
		total += img.Size
	}
	if live != len(m.byID) {
		return fmt.Errorf("live images %d != byID size %d", live, len(m.byID))
	}
	if m.bandIndex != nil && m.bandIndex.Len() != live {
		return fmt.Errorf("band index holds %d images, the cache %d", m.bandIndex.Len(), live)
	}
	if total != m.total {
		return fmt.Errorf("cached total %d != recomputed %d", m.total, total)
	}
	st := m.stats
	if st.Hits+st.Inserts+st.Merges != st.Requests {
		return fmt.Errorf("ops %d+%d+%d do not partition %d requests", st.Hits, st.Inserts, st.Merges, st.Requests)
	}
	return nil
}

// Capacity returns the configured byte capacity (zero or negative
// means unlimited).
func (m *Manager) Capacity() int64 { return m.cfg.Capacity }

// Conflicts returns the configured conflict policy (never nil after
// NewManager).
func (m *Manager) Conflicts() spec.ConflictPolicy { return m.cfg.Conflicts }

// Clock returns the manager's logical clock: the Seq that the next
// request's stamp will follow.
func (m *Manager) Clock() uint64 { return m.clock }

// MinHash returns the approximate-prefilter configuration (nil in exact
// mode). The invariant oracle (internal/check) reads K, Seed and Margin
// from it to re-derive the margin prefilter with signatures of its own.
func (m *Manager) MinHash() *MinHashConfig { return m.cfg.MinHash }

// Signature returns the image's MinHash signature (nil in exact mode).
// The slice is the image's own and must not be modified.
func (img *Image) Signature() similarity.Signature { return img.sig }

// BandCandidates returns the ids of the images the band index files
// under at least one of sig's bands, ascending and de-duplicated, as the
// merge scan retrieves them; nil when MinHash is off.
func (m *Manager) BandCandidates(sig similarity.Signature) ([]uint64, error) {
	if m.bandIndex == nil {
		return nil, nil
	}
	return m.bandIndex.CandidatesAppend(sig, nil)
}

// LastUse returns the logical-clock timestamp of the image's last
// hit, merge, or insert — its LRU position.
func (img *Image) LastUse() uint64 { return img.lastUse }

// SetCommitHook replaces the commit hook. Harnesses use it to stack a
// validating hook (internal/check's shadow checker) in front of an
// already-installed durability hook; it must be called before the
// manager serves traffic (ShardedManager.SetCommitHook forwards here).
func (m *Manager) SetCommitHook(h CommitHook) { m.cfg.Commit = h }

// CommitHook returns the installed commit hook (nil when disabled).
func (m *Manager) CommitHook() CommitHook { return m.cfg.Commit }
