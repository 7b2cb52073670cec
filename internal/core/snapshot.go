package core

import (
	"fmt"
	"sort"

	"repro/internal/pkggraph"
	"repro/internal/spec"
)

// ImageSnapshot is the serializable state of one cached image, used by
// the persistence layer (internal/persist) and the HTTP
// snapshot/restore routes to carry the cache across restarts.
type ImageSnapshot struct {
	// ID is the image's identity. ImportState preserves it, so a
	// recovered or restored cache hands out the same (ImageID, Version)
	// pairs workers already hold.
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

// ExportState captures the manager's full state for checkpointing:
// every image in last-use order, and the counters.
func (m *Manager) ExportState() ManagerState {
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
// an error (it would interleave two cache histories), and so is a
// state that names an unknown package, holds an empty image or gives
// two images one ID; a refused state changes nothing. A state larger
// than the manager's capacity is accepted: the LRU evictor brings the
// cache back under budget on the next request, which is the right
// behaviour when a site shrinks its configured capacity across a
// restart.
func (m *Manager) ImportState(st ManagerState) error {
	imgs, err := m.importImages(st.Images)
	if err != nil {
		return err
	}
	m.install(imgs, st)
	return nil
}

// importImages resolves and checks the images of a state imported into
// m, changing nothing: m must be empty, and each image must name only
// known packages, at least one, under an ID no other image carries.
func (m *Manager) importImages(snaps []ImageSnapshot) ([]*Image, error) {
	if len(m.byID) != 0 {
		return nil, fmt.Errorf("core: ImportState into non-empty manager (%d images)", len(m.byID))
	}
	imgs := make([]*Image, len(snaps))
	seen := make(map[uint64]bool, len(snaps))
	var ids []pkggraph.PkgID
	for i, snap := range snaps {
		var err error
		if ids, err = resolveKeys(m.repo, ids[:0], snap.Packages); err != nil {
			return nil, fmt.Errorf("core: image %d: %w", snap.ID, err)
		}
		s := spec.New(ids)
		if s.Empty() {
			return nil, fmt.Errorf("core: image %d is empty", snap.ID)
		}
		if seen[snap.ID] {
			return nil, fmt.Errorf("core: two images have ID %d", snap.ID)
		}
		seen[snap.ID] = true
		imgs[i] = &Image{
			ID:      snap.ID,
			Spec:    s,
			Size:    s.Size(m.repo),
			Version: snap.Version,
			Merges:  snap.Merges,
			lastUse: snap.LastUse,
			sig:     m.sign(s),
		}
	}
	return imgs, nil
}

// install adds the images importImages checked and takes st's stats.
// Image IDs continue past the largest imported one and st.NextID, the
// clock past the newest stamp and st.Clock; neither moves back.
func (m *Manager) install(imgs []*Image, st ManagerState) {
	nextID := max(m.nextID, st.NextID)
	m.clock = max(m.clock, st.Clock)
	for _, img := range imgs {
		m.appendImage(img)
		m.refreshBits(img)
		m.indexInsert(img)
		m.total += img.Size
		m.clock = max(m.clock, img.lastUse)
		nextID = max(nextID, img.ID+1)
	}
	// Keep the image slice in last-use order so LRU ties resolve the
	// same way across save/load cycles.
	sort.SliceStable(m.images, func(a, b int) bool { return m.images[a].lastUse < m.images[b].lastUse })
	m.reorderOrds()
	m.nextID = nextID
	m.stats = st.Stats
}
