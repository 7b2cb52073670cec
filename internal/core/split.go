package core

import (
	"fmt"

	"repro/internal/spec"
)

// Image splitting.
//
// The paper's abstract lists four image operations — LANDLORD
// "creates, merges, splits, or deletes container images" — and Section
// V describes the bloat mechanism splitting addresses: repeated merges
// accumulate infrequently used dependencies, and while eviction
// eventually removes a bloated image entirely, an image that is still
// *partially* hot never becomes idle enough to evict. Splitting trims
// such an image down to the union of the requests it has recently
// served, shedding the cold remainder (which can always be regenerated
// from the repository on demand).
//
// The manager tracks, per image, the union of specifications served
// since the image's last split check. Prune replaces any image whose
// hot subset is sufficiently smaller than the image itself.

// SplitResult reports one image split performed by Prune.
type SplitResult struct {
	ImageID      uint64
	OldSize      int64
	NewSize      int64
	BytesWritten int64 // the trimmed image is rewritten in full
}

// served records a request against an image's hot set. The union is
// skipped when s adds nothing — on the steady-state hit path the hot
// set has usually absorbed the request already, and Union would
// allocate a fresh copy per hit.
func (img *Image) served(s spec.Spec) {
	if !s.SubsetOf(img.hot) {
		img.hot = img.hot.Union(s)
	}
	img.hotCount++
}

// resetHot clears the image's hot-set tracking window.
func (img *Image) resetHot() {
	img.hot = spec.Spec{}
	img.hotCount = 0
}

// Prune performs the split pass: every image that has served at least
// minServed requests since its last check and whose hot set occupies
// at most maxUtilization of its bytes is replaced by its hot set. The
// pass then resets all hot-set windows. It returns the splits
// performed.
//
// maxUtilization must be in (0, 1): at 0.5, an image is split when
// less than half of it was recently useful. minServed guards freshly
// created or rarely used images, whose hot window is not yet
// informative (rarely used images are the LRU evictor's job, not the
// splitter's).
func (m *Manager) Prune(maxUtilization float64, minServed int) ([]SplitResult, error) {
	if maxUtilization <= 0 || maxUtilization >= 1 {
		return nil, fmt.Errorf("core: maxUtilization %v out of range (0,1)", maxUtilization)
	}
	if minServed < 1 {
		minServed = 1
	}
	var out []SplitResult
	for _, img := range m.images {
		if img == nil {
			continue
		}
		if img.hotCount >= minServed && !img.hot.Empty() {
			hotSize := img.hot.Size(m.repo)
			if float64(hotSize) <= maxUtilization*float64(img.Size) {
				res := SplitResult{
					ImageID:      img.ID,
					OldSize:      img.Size,
					NewSize:      hotSize,
					BytesWritten: hotSize,
				}
				m.total -= img.Size
				img.Spec = img.hot
				img.Size = hotSize
				img.Version++
				m.resign(img)
				m.indexUpdate(img)
				m.refreshBits(img)
				m.total += img.Size
				m.stats.Splits++
				m.stats.BytesWritten += hotSize
				if m.cfg.Commit != nil {
					m.commit(Mutation{
						Kind: MutSplit, ImageID: img.ID,
						Version: img.Version, Packages: m.keysOf(img.Spec),
					})
				}
				out = append(out, res)
			}
		}
		img.resetHot()
	}
	return out, nil
}
