package check

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/similarity"
	"repro/internal/spec"
)

// Oracle validates a single-threaded Manager one request at a time: it
// captures the cache before each request, independently re-derives the
// decision Algorithm 1 must make (hit / merge / insert, on which
// image, evicting which victims), and compares the manager's actual
// transition against that derivation. It is a second, deliberately
// naive implementation of the algorithm — O(images) per phase over
// sorted id slices, no bitsets, no band index, no caching — and the
// only reference there is: a bug must be present in both the production
// code and the oracle, in compatible ways, to go unseen.
//
// It has two modes, following the manager's configuration (candidate
// sorting must be on). Exact (Config.MinHash nil): every image is a
// merge candidate. Margin (MinHash set): the documented approximation
// is part of the specification, so the oracle applies it too — an image
// is skipped when the estimated distance between the request's and the
// image's signatures is at least α+margin — with a hasher of its own
// built from the manager's K and Seed and every signature computed
// afresh by the direct kernel, so it shares neither stored signatures,
// nor the merge fold, nor the probe index with the code it checks.
type Oracle struct {
	m      *core.Manager
	seed   int64
	step   int
	hasher *similarity.Hasher // nil in exact mode
	margin float64
}

// oimg is the oracle's copy of one image's checkable state.
type oimg struct {
	id      uint64
	spec    spec.Spec
	size    int64
	lastUse uint64
	version uint64
}

// NewOracle wraps m for validation. The seed labels failures for
// reproduction; step counting starts at 0.
func NewOracle(m *core.Manager, seed int64) *Oracle {
	o := &Oracle{m: m, seed: seed}
	if mh := m.MinHash(); mh != nil {
		h, err := similarity.NewHasher(mh.K, mh.Seed)
		if err != nil {
			panic(fmt.Sprintf("check: oracle hasher: %v", err)) // the manager validated the same K
		}
		o.hasher, o.margin = h, mh.Margin
	}
	return o
}

// Steps returns how many requests the oracle has validated.
func (o *Oracle) Steps() int { return o.step }

// StartAt sets the step counter. The chaos driver re-creates the
// oracle after each simulated crash and continues the global request
// index here, so a failure names the same step no matter how many
// recoveries preceded it.
func (o *Oracle) StartAt(step int) { o.step = step }

// capture copies the checkable state of every image, in insertion
// order (the order Algorithm 1's scans and tie-breaks follow).
func (o *Oracle) capture() []oimg {
	imgs := o.m.Images()
	out := make([]oimg, len(imgs))
	for i, img := range imgs {
		out[i] = oimg{id: img.ID, spec: img.Spec, size: img.Size, lastUse: img.LastUse(), version: img.Version}
	}
	return out
}

// Step issues one request through the manager and validates the
// transition. A nil Failure means the step upheld every invariant.
func (o *Oracle) Step(s spec.Spec) (core.Result, *Failure) {
	pre := o.capture()
	preClock := o.m.Clock()

	res, err := o.m.Request(s)
	step := o.step
	o.step++
	if err != nil {
		return res, failf(o.seed, step, "request error: %v", err)
	}
	if res.Seq != preClock+1 {
		return res, failf(o.seed, step, "Seq %d, want clock %d+1", res.Seq, preClock)
	}

	post := o.capture()
	postByID := make(map[uint64]oimg, len(post))
	for _, img := range post {
		postByID[img.id] = img
	}

	// Independently derive what Algorithm 1 must do.
	wantOp, wantID := o.derive(pre, s)
	if res.Op != wantOp {
		return res, failf(o.seed, step, "op %v on image %d, oracle derives %v on image %d",
			res.Op, res.ImageID, wantOp, wantID)
	}
	if wantOp != core.OpInsert && res.ImageID != wantID {
		return res, failf(o.seed, step, "%v targeted image %d, oracle derives image %d", res.Op, res.ImageID, wantID)
	}
	if o.m.Alpha() == 0 && res.Op == core.OpMerge {
		return res, failf(o.seed, step, "merge at alpha=0 (must degenerate to pure LRU)")
	}

	// Per-op post-state: the served image and only the served image
	// changed (modulo eviction, simulated below).
	served, ok := postByID[res.ImageID]
	if !ok {
		return res, failf(o.seed, step, "served image %d not live after %v", res.ImageID, res.Op)
	}
	if served.lastUse != res.Seq {
		return res, failf(o.seed, step, "served image %d lastUse %d, want Seq %d (LRU stamp not refreshed)",
			res.ImageID, served.lastUse, res.Seq)
	}
	preByID := make(map[uint64]oimg, len(pre))
	for _, img := range pre {
		preByID[img.id] = img
	}
	switch res.Op {
	case core.OpHit:
		was := preByID[res.ImageID]
		if !s.SubsetOf(served.spec) {
			return res, failf(o.seed, step, "hit on image %d which does not contain the request (superset rule violated)", res.ImageID)
		}
		if !served.spec.Equal(was.spec) || served.version != was.version {
			return res, failf(o.seed, step, "hit mutated image %d contents", res.ImageID)
		}
		if res.Evicted != 0 || len(post) != len(pre) {
			return res, failf(o.seed, step, "hit evicted %d image(s); hits must not evict", res.Evicted)
		}
	case core.OpMerge:
		was := preByID[res.ImageID]
		want := was.spec.Union(s)
		if !served.spec.Equal(want) {
			return res, failf(o.seed, step, "merged image %d spec is not old∪request", res.ImageID)
		}
		if served.version != was.version+1 {
			return res, failf(o.seed, step, "merge left image %d at version %d, want %d", res.ImageID, served.version, was.version+1)
		}
	case core.OpInsert:
		if _, existed := preByID[res.ImageID]; existed {
			return res, failf(o.seed, step, "insert reused live image ID %d", res.ImageID)
		}
		if !served.spec.Equal(s) {
			return res, failf(o.seed, step, "inserted image %d spec differs from the request", res.ImageID)
		}
	}

	// Unrelated images must be untouched (evicted ones handled below).
	for _, was := range pre {
		if was.id == res.ImageID {
			continue
		}
		now, live := postByID[was.id]
		if !live {
			continue
		}
		if !now.spec.Equal(was.spec) || now.version != was.version || now.lastUse != was.lastUse {
			return res, failf(o.seed, step, "%v of image %d mutated unrelated image %d", res.Op, res.ImageID, was.id)
		}
	}

	// Hits never run the eviction pass (asserted above), so the
	// capacity bound is only checked after merges and inserts; a
	// recovered over-capacity cache legitimately stays oversized while
	// it serves only hits.
	if res.Op != core.OpHit {
		if f := o.checkEviction(step, pre, res); f != nil {
			return res, f
		}
	}
	if err := o.m.CheckIntegrity(); err != nil {
		return res, failf(o.seed, step, "integrity: %v", err)
	}
	return res, nil
}

// derive re-runs Algorithm 1's decision procedure over the captured
// pre-state: smallest superset in insertion order, else closest
// non-conflicting candidate under α (stable by distance, then
// insertion order) among the images the margin prefilter admits (all
// of them in exact mode), else insert.
func (o *Oracle) derive(pre []oimg, s spec.Spec) (core.Op, uint64) {
	best := -1
	for i, img := range pre {
		if img.spec.Len() < s.Len() {
			continue
		}
		if best >= 0 && img.size >= pre[best].size {
			continue
		}
		if s.SubsetOf(img.spec) {
			best = i
		}
	}
	if best >= 0 {
		return core.OpHit, pre[best].id
	}

	alpha := o.m.Alpha()
	type cand struct {
		idx int
		d   float64
	}
	var cands []cand
	var sig similarity.Signature
	if o.hasher != nil {
		sig = o.hasher.SignDirect(s)
	}
	for i, img := range pre {
		if sig != nil && similarity.EstimateDistance(sig, o.hasher.SignDirect(img.spec)) >= alpha+o.margin {
			continue
		}
		if d := similarity.JaccardDistance(s, img.spec); d < alpha {
			cands = append(cands, cand{i, d})
		}
	}
	sort.SliceStable(cands, func(a, b int) bool { return cands[a].d < cands[b].d })
	policy := o.m.Conflicts()
	for _, c := range cands {
		if !policy.Conflicts(s, pre[c.idx].spec) {
			return core.OpMerge, pre[c.idx].id
		}
	}
	return core.OpInsert, 0
}

// checkEviction simulates the LRU pass Algorithm 1 must run after the
// request's op and compares the victims (identity, count, bytes) and
// the surviving set against what actually happened.
func (o *Oracle) checkEviction(step int, pre []oimg, res core.Result) *Failure {
	cap := o.m.Capacity()
	if cap <= 0 {
		if res.Evicted != 0 {
			return failf(o.seed, step, "evicted %d image(s) with unlimited capacity", res.Evicted)
		}
		return nil
	}

	// Rebuild the momentary state after the op but before eviction.
	sim := make([]oimg, 0, len(pre)+1)
	var total int64
	found := false
	for _, img := range pre {
		if img.id == res.ImageID {
			img.size = res.ImageSize
			img.lastUse = res.Seq
			found = true
		}
		sim = append(sim, img)
		total += img.size
	}
	if !found { // insert
		sim = append(sim, oimg{id: res.ImageID, size: res.ImageSize, lastUse: res.Seq})
		total += res.ImageSize
	}

	wantEvicted := make(map[uint64]bool)
	var wantBytes int64
	for total > cap {
		vi := -1
		for i, img := range sim {
			if img.id == res.ImageID || wantEvicted[img.id] {
				continue
			}
			if vi < 0 || img.lastUse < sim[vi].lastUse {
				vi = i
			}
		}
		if vi < 0 {
			break // only the served image remains; overflow is allowed
		}
		wantEvicted[sim[vi].id] = true
		wantBytes += sim[vi].size
		total -= sim[vi].size
	}

	if res.Evicted != len(wantEvicted) || res.EvictedBytes != wantBytes {
		return failf(o.seed, step, "evicted %d image(s)/%d byte(s), oracle derives %d/%d (LRU order or capacity bound violated)",
			res.Evicted, res.EvictedBytes, len(wantEvicted), wantBytes)
	}
	liveWant := make(map[uint64]bool, len(sim))
	for _, img := range sim {
		if !wantEvicted[img.id] {
			liveWant[img.id] = true
		}
	}
	for _, img := range o.m.Images() {
		if !liveWant[img.ID] {
			return failf(o.seed, step, "image %d survived but the oracle derives it as the LRU victim", img.ID)
		}
		delete(liveWant, img.ID)
	}
	if len(liveWant) > 0 {
		low, first := uint64(0), true
		for id := range liveWant {
			if first || id < low {
				low, first = id, false
			}
		}
		return failf(o.seed, step, "image %d was evicted but is not the LRU victim", low)
	}
	return nil
}
