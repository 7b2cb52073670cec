package core

import (
	"fmt"
	"sort"

	"repro/internal/pkggraph"
	"repro/internal/spec"
)

// ImageSnapshot is the serializable state of one cached image, used by
// the persistence layer (internal/persist) and the HTTP
// snapshot/restore endpoints to carry the cache across restarts.
type ImageSnapshot struct {
	// ID is the image's identity. Restore ignores it (legacy snapshots
	// predate it); ImportState preserves it so a recovered cache hands
	// out the same (ImageID, Version) pairs workers already hold.
	ID uint64 `json:"id"`
	// Packages are the image's package keys (name/version/platform),
	// portable across repository reloads.
	Packages []string `json:"packages"`
	// LastUse is the logical-clock timestamp of the image's last use;
	// relative order is what matters for LRU.
	LastUse uint64 `json:"last_use"`
	// Merges counts specifications merged into the image.
	Merges int `json:"merges"`
	// Version is the image's content version (see Image.Version).
	Version uint64 `json:"version,omitempty"`
}

// ManagerState is the complete serializable state of a Manager:
// every image plus the counters that make recovery exact. Images are
// kept in last-use order, which is canonical (each request stamps a
// unique clock value), so two states of equal caches compare equal.
type ManagerState struct {
	Images []ImageSnapshot `json:"images"`
	// NextID and Clock continue ID allocation and the LRU clock where
	// the saved manager left off.
	NextID uint64 `json:"next_id"`
	Clock  uint64 `json:"clock"`
	Stats  Stats  `json:"stats"`
}

// Snapshot captures every cached image in insertion order.
func (m *Manager) Snapshot() []ImageSnapshot {
	snaps := make([]ImageSnapshot, 0, len(m.byID))
	for _, img := range m.images {
		if img == nil {
			continue
		}
		snaps = append(snaps, ImageSnapshot{
			ID:       img.ID,
			Packages: m.keysOf(img.Spec),
			LastUse:  img.lastUse,
			Merges:   img.Merges,
			Version:  img.Version,
		})
	}
	return snaps
}

// ExportState captures the manager's full state for checkpointing.
func (m *Manager) ExportState() ManagerState {
	snaps := m.Snapshot()
	sort.SliceStable(snaps, func(a, b int) bool { return snaps[a].LastUse < snaps[b].LastUse })
	return ManagerState{
		Images: snaps,
		NextID: m.nextID,
		Clock:  m.clock,
		Stats:  m.stats,
	}
}

// ImportState loads a checkpoint into an empty Manager, reconstructing
// images (with their original IDs and versions), sizes, signatures,
// counters, and the LRU clock. Importing into a non-empty Manager is
// an error. A state larger than the manager's capacity is accepted:
// the LRU evictor brings the cache back under budget on the next
// request, which is the right behaviour when a site shrinks its
// configured capacity across a restart.
func (m *Manager) ImportState(st ManagerState) error {
	if len(m.byID) != 0 {
		return fmt.Errorf("core: ImportState into non-empty manager (%d images)", len(m.byID))
	}
	var maxClock, maxID uint64
	var ids []pkggraph.PkgID
	for i, snap := range st.Images {
		var err error
		if ids, err = resolveKeys(m.repo, ids[:0], snap.Packages); err != nil {
			return fmt.Errorf("core: checkpoint image %d: %w", i, err)
		}
		s := spec.New(ids)
		if s.Empty() {
			return fmt.Errorf("core: checkpoint image %d is empty", i)
		}
		if _, dup := m.byID[snap.ID]; dup {
			return fmt.Errorf("core: checkpoint image %d duplicates ID %d", i, snap.ID)
		}
		img := &Image{
			ID:      snap.ID,
			Spec:    s,
			Size:    s.Size(m.repo),
			Version: snap.Version,
			Merges:  snap.Merges,
			lastUse: snap.LastUse,
			sig:     m.sign(s),
		}
		m.appendImage(img)
		m.refreshBits(img)
		m.indexInsert(img)
		m.total += img.Size
		if snap.LastUse > maxClock {
			maxClock = snap.LastUse
		}
		if snap.ID > maxID {
			maxID = snap.ID
		}
	}
	sort.SliceStable(m.images, func(a, b int) bool { return m.images[a].lastUse < m.images[b].lastUse })
	m.reorderOrds()
	m.clock = maxClock
	if st.Clock > m.clock {
		m.clock = st.Clock
	}
	m.nextID = maxID + 1
	if len(st.Images) == 0 {
		m.nextID = 0
	}
	if st.NextID > m.nextID {
		m.nextID = st.NextID
	}
	m.alignNextID()
	m.stats = st.Stats
	return nil
}

// Restore loads a snapshot into an empty Manager, reconstructing
// images, sizes, signatures and the LRU clock. Image IDs are
// reassigned in snapshot order (legacy format; use ImportState to
// preserve identities). Restoring into a non-empty Manager is an error
// (it would silently interleave two cache histories). A snapshot
// larger than the configured capacity restores successfully; the LRU
// evictor trims the overflow on the next request.
func (m *Manager) Restore(snaps []ImageSnapshot) error {
	if len(m.byID) != 0 {
		return fmt.Errorf("core: Restore into non-empty manager (%d images)", len(m.byID))
	}
	var maxClock uint64
	var ids []pkggraph.PkgID
	for i, snap := range snaps {
		var err error
		if ids, err = resolveKeys(m.repo, ids[:0], snap.Packages); err != nil {
			return fmt.Errorf("core: snapshot image %d: %w", i, err)
		}
		s := spec.New(ids)
		if s.Empty() {
			return fmt.Errorf("core: snapshot image %d is empty", i)
		}
		img := &Image{
			ID:      m.nextID,
			Spec:    s,
			Size:    s.Size(m.repo),
			Merges:  snap.Merges,
			lastUse: snap.LastUse,
			sig:     m.sign(s),
		}
		m.nextID += m.stride()
		m.appendImage(img)
		m.refreshBits(img)
		m.indexInsert(img)
		m.total += img.Size
		if snap.LastUse > maxClock {
			maxClock = snap.LastUse
		}
	}
	// Keep insertion order stable by last use so LRU ties resolve the
	// same way across save/load cycles.
	sort.SliceStable(m.images, func(a, b int) bool { return m.images[a].lastUse < m.images[b].lastUse })
	m.reorderOrds()
	m.clock = maxClock
	return nil
}
