package core

import (
	"slices"
	"sync"

	"repro/internal/pkggraph"
	"repro/internal/similarity"
	"repro/internal/spec"
	"repro/internal/telemetry"
)

// The interned decision procedure.
//
// Algorithm 1's decision procedure is two scans: the hit path tests
// s ⊆ image per candidate image, and the miss path computes Jaccard
// distances to every surviving candidate. Both run on one
// representation: every image keeps an interned bitset beside its spec,
// so containment is a word-wise AND-NOT loop, intersection cardinality
// is popcount over AND, and the per-request state (dense query words,
// MinHash signature, candidate buffers) lives in a sync.Pool so the
// steady-state hit path performs zero heap allocations.
//
// With MinHash on, the miss path uses the LSH band index as its primary
// candidate source: instead of walking every image, the band buckets
// are enumerated directly and resolved through byID, so a merge scan
// touches only images sharing at least one MinHash position. Candidates
// are then ordered by each image's insertion ordinal (Image.ord), which
// reproduces a linear scan's iteration order exactly — including after
// ImportState/Restore re-sort the image slice by last use — so the
// stable distance sort breaks ties the way the plain procedure would.
//
// There is no second copy of the procedure in this package to compare
// against. The reference is internal/check's Oracle: a naive
// re-derivation over sorted id slices — linear scans, no bitsets, no
// band index, signatures from the direct kernel — that validates every
// request of the simulation suites, in exact and in MinHash mode;
// CheckIntegrity audits bitset/spec round-trips, signature freshness
// and ordinal monotonicity continuously.

// fastPath is the per-manager state of the interned pipeline.
type fastPath struct {
	intern *spec.Interner
	pool   sync.Pool // *scratch
}

// scratch is the pooled per-request working set. Requests under a
// shard's shared read lock scan concurrently, so scratch must be drawn
// per request, never stored per manager.
type scratch struct {
	words []uint64             // dense form of the request spec
	sig   similarity.Signature // pooled signature storage (miss path)
	band  []uint64             // band-candidate IDs (miss path)
	imgs  []*Image             // resolved band candidates (miss path)
	cands []candidate          // surviving merge candidates (miss path)
}

// newFastPath builds the interner for repo. The "intern" mutant
// aliases two packages at construction — the intern-collision seed bug
// CheckIntegrity's round-trip audit and the oracle must catch.
func newFastPath(repo *pkggraph.Repo) *fastPath {
	f := &fastPath{intern: spec.NewInterner(repo)}
	if mutantEnabled("intern") && repo.Len() >= 2 {
		f.intern.Alias(1, 0)
	}
	f.pool.New = func() any { return &scratch{} }
	return f
}

// get draws a scratch from the pool with the request's dense words
// filled in. Callers must put it back on every return path.
func (f *fastPath) get(s spec.Spec) *scratch {
	sc := f.pool.Get().(*scratch)
	sc.words = f.intern.DenseInto(sc.words, s)
	return sc
}

// put returns a scratch to the pool. The buffers keep their capacity,
// which is what makes the steady state allocation-free.
func (f *fastPath) put(sc *scratch) { f.pool.Put(sc) }

// signScratch computes the request signature into pooled storage, or
// returns nil when MinHash is disabled. The returned signature is only
// valid until the scratch is put back; anything that outlives the
// request (an inserted image's sig) must copy it.
func (m *Manager) signScratch(sc *scratch, s spec.Spec) similarity.Signature {
	if m.hasher == nil {
		return nil
	}
	if len(sc.sig) != m.hasher.K() {
		sc.sig = make(similarity.Signature, m.hasher.K())
	}
	return m.hasher.SignInto(sc.sig, s)
}

// refreshBits re-interns an image's spec after any content change
// (insert, merge, split, replay, import).
func (m *Manager) refreshBits(img *Image) {
	img.bits = m.fast.intern.BitsetOf(img.Spec)
}

// appendImage adds img to the live set, stamping the insertion ordinal
// that keeps band-candidate enumeration in scan order, and interning
// its spec. Every append goes through here.
func (m *Manager) appendImage(img *Image) {
	img.ord = m.ordSrc
	m.ordSrc++
	m.refreshBits(img)
	m.images = append(m.images, img)
	m.byID[img.ID] = img
}

// reorderOrds reassigns insertion ordinals to match the current image
// slice order. ImportState and Restore call it after re-sorting the
// slice by last use: scan order changed, so the ordinals must follow.
func (m *Manager) reorderOrds() {
	for i, img := range m.images {
		img.ord = uint64(i)
	}
	m.ordSrc = uint64(len(m.images))
}

// findSuperset returns the image with s ⊆ i, preferring the smallest
// satisfying image (least bloat for the job), or nil, as a
// superset_scan child span of at. The subset test is a word-wise
// AND-NOT against the pooled query words — exact, so no signature
// prefilter is needed. When ev is non-nil it records the number of
// images the scan examined.
func (m *Manager) findSuperset(at *telemetry.ActiveTrace, s spec.Spec, sc *scratch, ev *telemetry.Event) *Image {
	scanSpan := at.Begin(telemetry.StageSupersetScan, at.Root())
	var best *Image
	scanned := 0
	reqLen := s.Len()
	for _, img := range m.images {
		if img == nil || img.Spec.Len() < reqLen {
			continue
		}
		if best != nil && img.Size >= best.Size {
			continue
		}
		scanned++
		if img.bits.SupersetOfWords(sc.words, reqLen) {
			best = img
		} else if mutantEnabled("superset") && img.bits.IntersectWords(sc.words) >= reqLen-1 {
			best = img
		}
	}
	if ev != nil {
		ev.SupersetScanned = scanned
		at.AttrInt(scanSpan, "scanned", int64(scanned))
	}
	at.End(scanSpan)
	return best
}

// dist is similarity.JaccardDistance computed from the interned
// representation: popcount intersection, identical integers, identical
// float expression — bit-for-bit the distance over the id slices. Both
// sets are non-empty here (requests and image specs are validated
// non-empty).
func (m *Manager) dist(s spec.Spec, img *Image, sc *scratch) float64 {
	inter := img.bits.IntersectWords(sc.words)
	if mutantEnabled("popcount") && inter > 0 {
		inter-- // seeded popcount-off-by-one bug
	}
	union := s.Len() + img.Spec.Len() - inter
	return 1 - float64(inter)/float64(union)
}

// findMergeTarget returns the closest non-conflicting image with
// d_j(s, j) < alpha, or nil. With MinHash enabled (sig non-nil), exact
// distances are only computed for images whose estimated distance is
// below alpha+margin, and when alpha+margin ≤ 1 the candidates come
// straight out of the band buckets: an image sharing no signature
// position has estimated distance exactly 1 and would be
// margin-rejected anyway, so the scan touches only banded images and
// does not rescan the image slice when the buckets come up empty.
// Candidates are ordered by insertion ordinal so the stable sort's ties
// break exactly as a linear scan's would. When the index does not apply
// (exact mode, or alpha+margin > 1 admitting disjoint images) the
// linear scan runs.
//
// When ev is non-nil it records the prefilter's accept/reject counts
// and every candidate under α with its exact distance; live images
// outside the bands count as prefilter rejections.
func (m *Manager) findMergeTarget(s spec.Spec, sig similarity.Signature, sc *scratch, ev *telemetry.Event) *Image {
	alpha := m.cfg.Alpha
	if mutantEnabled("threshold") {
		alpha += 0.2
	}
	sc.cands = sc.cands[:0]
	banded := false
	if sig != nil && m.bandIndex != nil && m.cfg.Alpha+m.cfg.MinHash.Margin <= 1 {
		ids, err := m.bandIndex.CandidatesAppend(sig, sc.band[:0])
		if cap(ids) > cap(sc.band) {
			sc.band = ids
		}
		if err == nil {
			banded = true
			if mutantEnabled("lshmiss") && len(ids) > 0 {
				ids = ids[1:] // seeded LSH-candidate-miss bug
			}
			sc.imgs = sc.imgs[:0]
			for _, id := range ids {
				if img := m.byID[id]; img != nil {
					sc.imgs = append(sc.imgs, img)
				}
			}
			slices.SortFunc(sc.imgs, func(a, b *Image) int {
				switch {
				case a.ord < b.ord:
					return -1
				case a.ord > b.ord:
					return 1
				}
				return 0
			})
			if ev != nil {
				// Non-banded live images are exactly what a linear scan
				// would count as prefilter rejections.
				ev.PrefilterRejected += len(m.byID) - len(sc.imgs)
			}
			for _, img := range sc.imgs {
				est := similarity.EstimateDistance(sig, img.sig)
				if est >= m.cfg.Alpha+m.cfg.MinHash.Margin {
					if ev != nil {
						ev.PrefilterRejected++
					}
					continue
				}
				if ev != nil {
					ev.PrefilterAccepted++
				}
				if d := m.dist(s, img, sc); d < alpha {
					sc.cands = append(sc.cands, candidate{img, d})
				}
			}
		}
	}
	if !banded {
		for _, img := range m.images {
			if img == nil {
				continue
			}
			if sig != nil {
				est := similarity.EstimateDistance(sig, img.sig)
				if est >= m.cfg.Alpha+m.cfg.MinHash.Margin {
					if ev != nil {
						ev.PrefilterRejected++
					}
					continue
				}
				if ev != nil {
					ev.PrefilterAccepted++
				}
			}
			if d := m.dist(s, img, sc); d < alpha {
				sc.cands = append(sc.cands, candidate{img, d})
			}
		}
	}
	return m.pickMergeTarget(s, sc.cands, ev)
}
