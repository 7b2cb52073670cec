// Package core implements LANDLORD's online container cache manager —
// the paper's primary contribution (Section V, Algorithm 1).
//
// For each submitted job specification s, the Manager:
//
//  1. returns any cached image i with s ⊆ i (a hit: the concrete image
//     meets the specified requirements);
//  2. otherwise scans cached images j with Jaccard distance
//     d_j(s, j) < α in order of increasing distance, and replaces the
//     first non-conflicting j with merge(s, j) (a merge);
//  3. otherwise inserts a new image for s (an insert);
//
// and finally evicts least-recently-used images while the cache
// exceeds its byte capacity (deletes).
//
// α ∈ [0, 1] is the "globbiness": at 0 the manager degenerates to an
// LRU cache of single-purpose images, at 1 to a single all-purpose
// image. Every operation is fully accounted (bytes written, requested
// bytes, unique versus total cached data) so the simulation harness can
// regenerate the paper's figures.
package core

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/pkggraph"
	"repro/internal/similarity"
	"repro/internal/spec"
	"repro/internal/telemetry"
)

// Op identifies how a request was satisfied.
type Op uint8

// Request outcomes, in the order Algorithm 1 considers them.
const (
	OpHit Op = iota
	OpMerge
	OpInsert
)

// String returns the lower-case operation name.
func (o Op) String() string {
	switch o {
	case OpHit:
		return "hit"
	case OpMerge:
		return "merge"
	case OpInsert:
		return "insert"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// MinHashConfig enables the MinHash candidate prefilter. The paper
// singles this out as important in practice: metadata listings for
// full-repository images are gigabytes, so an O(k) first pass at
// selecting similar images matters.
type MinHashConfig struct {
	// K is the signature size (hash functions). Estimator standard
	// error is about 1/sqrt(K).
	K int
	// Seed derives the hash functions.
	Seed int64
	// Margin widens the candidate net: images whose estimated distance
	// is below Alpha+Margin get an exact distance check. Larger margins
	// trade speed for fidelity to the exact algorithm.
	Margin float64
}

// DefaultMinHash returns the prefilter configuration used by the
// simulation harness: 64 hashes and a 2σ margin.
func DefaultMinHash() *MinHashConfig {
	return &MinHashConfig{K: 64, Seed: 0x1a2b3c, Margin: 0.25}
}

// Config parameterizes a Manager.
type Config struct {
	// Alpha is the maximal Jaccard distance at which two
	// specifications are "close enough" to merge. Must be in [0, 1].
	Alpha float64
	// Capacity is the cache limit in bytes. Zero or negative means
	// unlimited.
	Capacity int64
	// Conflicts decides whether two specs may merge. Nil means
	// spec.NoConflicts (the CVMFS case).
	Conflicts spec.ConflictPolicy
	// MinHash, when non-nil, enables approximate candidate selection.
	// When nil every distance is computed exactly.
	MinHash *MinHashConfig
	// NoCandidateSort disables sorting merge candidates by distance
	// (ablation A2 in DESIGN.md). Candidates are then considered in
	// image insertion order, which Algorithm 1's comment ("Selection
	// can be sorted by dj()") marks as optional.
	NoCandidateSort bool
	// Commit, when non-nil, receives one Mutation per state change
	// (touch/merge/insert/delete/split) as it is applied — the hook the
	// durability layer (internal/persist) logs through. A nil hook
	// costs one branch per mutation.
	Commit CommitHook
}

// Image is a cached container image: the union of every specification
// merged into it.
type Image struct {
	ID   uint64
	Spec spec.Spec
	Size int64
	// Version increments whenever the image's contents change (merge
	// or split); distribution layers use it to detect that a worker's
	// local copy went stale.
	Version uint64
	Merges  int    // how many specs have been merged in
	lastUse uint64 // logical clock of last hit/merge/insert
	sig     similarity.Signature

	// bits is the interned form of Spec (see fastpath.go), refreshed on
	// every content change; ord is the insertion ordinal that keeps
	// band-candidate enumeration in scan order.
	bits spec.Bitset
	ord  uint64

	// hot tracks the union of specifications this image served since
	// the last Prune pass, and hotCount how many; see split.go.
	hot      spec.Spec
	hotCount int

	// pending holds the package ids the open replay pass's merge deltas
	// added, not yet unioned into Spec; noted marks the image as on the
	// manager's settle list. See mutation.go.
	pending []pkggraph.PkgID
	noted   bool
}

// Result reports how one request was satisfied.
type Result struct {
	// Seq is the request's logical timestamp (the manager clock value
	// stamped on it): the position of this request in the cache's
	// linearization order. Concurrent callers (ShardedManager) can sort
	// results by Seq to reconstruct the equivalent sequential execution.
	Seq     uint64
	Op      Op
	ImageID uint64
	// ImageVersion is the content version of the image served; a
	// worker holding (ImageID, ImageVersion) can reuse its local copy.
	ImageVersion uint64
	ImageSize    int64 // size of the image the job runs in
	RequestBytes int64 // size of the requested specification
	BytesWritten int64 // image bytes written by this request
	Evicted      int   // images deleted to make room
	EvictedBytes int64
}

// ContainerEfficiency is the per-request efficiency: requested bytes
// over the size of the container actually used (Section VI).
func (r Result) ContainerEfficiency() float64 {
	if r.ImageSize == 0 {
		return 1
	}
	return float64(r.RequestBytes) / float64(r.ImageSize)
}

// Stats accumulates operation counts and I/O totals over a Manager's
// lifetime. The JSON tags define the serialized form used by
// checkpoints (core.ManagerState / internal/persist).
type Stats struct {
	Requests int64 `json:"requests"`
	Hits     int64 `json:"hits"`
	Inserts  int64 `json:"inserts"`
	Merges   int64 `json:"merges"`
	Deletes  int64 `json:"deletes"`
	// Splits counts images trimmed by Prune (see split.go).
	Splits int64 `json:"splits"`

	// BytesWritten is the cumulative data written into the cache
	// ("Actual Writes" in Figure 4c): each insert writes the new image,
	// each merge rewrites the merged image in its entirety.
	BytesWritten int64 `json:"bytes_written"`
	// RequestedBytes is the cumulative size of every requested
	// specification ("Requested Writes"): what a system creating each
	// requested image directly would write.
	RequestedBytes int64 `json:"requested_bytes"`
	// ContainerEffSum accumulates per-request container efficiency;
	// divide by Requests for the mean.
	ContainerEffSum float64 `json:"container_eff_sum"`
}

// MeanContainerEfficiency returns the mean per-request container
// efficiency, or 1 when no requests have been made.
func (s Stats) MeanContainerEfficiency() float64 {
	if s.Requests == 0 {
		return 1
	}
	return s.ContainerEffSum / float64(s.Requests)
}

// Manager is the LANDLORD cache manager: one cache, one goroutine. It
// is not safe for concurrent use: the simulator runs one Manager per
// goroutine, and the site service runs one behind a ShardedManager,
// which serves hits under a shared read lock and everything else under
// its write lock.
type Manager struct {
	repo   *pkggraph.Repo
	cfg    Config
	hasher *similarity.Hasher

	images []*Image // insertion order; nil entries are compacted lazily
	byID   map[uint64]*Image
	total  int64 // sum of image sizes
	clock  uint64
	nextID uint64
	stats  Stats

	// bandIndex, when non-nil (MinHash on), maps MinHash signatures to
	// image IDs for the merge scan's candidate retrieval (see
	// findMergeTarget). It is maintained alongside byID under the same
	// locks.
	bandIndex *similarity.LSHIndex

	// fast holds the interned representation every scan runs on: the
	// package interner and the pooled per-request scratch (fastpath.go).
	// ordSrc issues Image.ord insertion ordinals.
	fast   *fastPath
	ordSrc uint64

	// noted lists the images the open replay pass changed, in the
	// order first changed; settle derives their spec, bits, signature
	// and bands when the pass ends (mutation.go). Replay holds the
	// manager exclusively.
	noted []*Image
}

// NewManager validates cfg and creates an empty Manager over repo.
func NewManager(repo *pkggraph.Repo, cfg Config) (*Manager, error) {
	if cfg.Alpha < 0 || cfg.Alpha > 1 {
		return nil, fmt.Errorf("core: alpha %v out of range [0,1]", cfg.Alpha)
	}
	if cfg.Conflicts == nil {
		cfg.Conflicts = spec.NoConflicts{}
	}
	m := &Manager{
		repo: repo,
		cfg:  cfg,
		byID: make(map[uint64]*Image),
		fast: newFastPath(repo),
	}
	if cfg.MinHash != nil {
		h, err := similarity.NewHasher(cfg.MinHash.K, cfg.MinHash.Seed)
		if err != nil {
			return nil, err
		}
		h.HintUniverse(repo.Len())
		if cfg.MinHash.Margin < 0 {
			return nil, fmt.Errorf("core: MinHash margin %v must be non-negative", cfg.MinHash.Margin)
		}
		m.hasher = h
		// One band per signature position (rows=1): an image is a band
		// candidate iff it shares at least one MinHash value with the
		// query. Any image the margin prefilter would accept
		// (est < alpha+margin ≤ 1) shares a position, so the candidate
		// set is a superset of the prefilter's accept set and consulting
		// it first changes no decision.
		idx, err := similarity.NewLSHIndex(cfg.MinHash.K, 1)
		if err != nil {
			return nil, err
		}
		m.bandIndex = idx
	}
	return m, nil
}

// indexInsert/indexUpdate/indexRemove maintain the merge-scan band
// index alongside byID. Index failures (impossible unless signatures
// change length) degrade to the full scan rather than corrupting
// lookups.
func (m *Manager) indexInsert(img *Image) {
	if m.bandIndex == nil {
		return
	}
	if err := m.bandIndex.Insert(img.ID, img.sig); err != nil {
		m.bandIndex = nil
	}
}

func (m *Manager) indexUpdate(img *Image) {
	if m.bandIndex == nil {
		return
	}
	if err := m.bandIndex.Update(img.ID, img.sig); err != nil {
		m.bandIndex = nil
	}
}

func (m *Manager) indexRemove(id uint64) {
	if m.bandIndex == nil {
		return
	}
	m.bandIndex.Remove(id)
}

// MustNewManager is NewManager that panics on error.
func MustNewManager(repo *pkggraph.Repo, cfg Config) *Manager {
	m, err := NewManager(repo, cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Len returns the number of cached images.
func (m *Manager) Len() int { return len(m.byID) }

// TotalData returns the summed size of all cached images ("Total Data"
// in Figure 4b).
func (m *Manager) TotalData() int64 { return m.total }

// UniqueData returns the size of the union of all cached images'
// package sets ("Unique Data" in Figure 4b): what a perfectly
// deduplicated cache would store.
func (m *Manager) UniqueData() int64 {
	var u spec.Spec
	for _, img := range m.images {
		if img != nil {
			u = u.Union(img.Spec)
		}
	}
	return u.Size(m.repo)
}

// CacheEfficiency returns UniqueData/TotalData, the paper's cache
// efficiency metric. An empty cache is perfectly efficient (1).
func (m *Manager) CacheEfficiency() float64 {
	if m.total == 0 {
		return 1
	}
	return float64(m.UniqueData()) / float64(m.total)
}

// Stats returns a copy of the accumulated counters.
func (m *Manager) Stats() Stats { return m.stats }

// Images returns the cached images in insertion order. The returned
// slice is fresh; the *Image values are live and must not be modified.
func (m *Manager) Images() []*Image {
	out := make([]*Image, 0, len(m.byID))
	for _, img := range m.images {
		if img != nil {
			out = append(out, img)
		}
	}
	return out
}

// Alpha returns the configured merge threshold.
func (m *Manager) Alpha() float64 { return m.cfg.Alpha }

// sign computes the MinHash signature of s into storage of its own —
// for a signature an image keeps — or nil when the prefilter is
// disabled.
func (m *Manager) sign(s spec.Spec) similarity.Signature {
	if m.hasher == nil {
		return nil
	}
	return m.hasher.Sign(s)
}

// resign recomputes img's signature after its spec was replaced rather
// than grown (a split, a replayed full-list record), into the storage
// the image already owns.
func (m *Manager) resign(img *Image) {
	if m.hasher != nil {
		m.hasher.SignInto(img.sig, img.Spec)
	}
}

// Request runs Algorithm 1 for specification s and returns how it was
// satisfied. Empty specifications are rejected: they indicate an
// unresolved job and must not silently hit every image.
func (m *Manager) Request(s spec.Spec) (Result, error) {
	return m.RequestTraced(s, nil)
}

// RequestTraced is Request with span-level latency attribution: each
// phase of Algorithm 1 (superset scan, merge scan, hit/merge/insert
// bookkeeping, WAL append, eviction) is recorded as a child span of at,
// and the scans' work counts, the merge candidates and the cache's
// occupancy as span attributes (EventOf reads them back). A nil at
// costs one branch per span site — the uninstrumented hit path stays
// allocation-free.
func (m *Manager) RequestTraced(s spec.Spec, at *telemetry.ActiveTrace) (Result, error) {
	if s.Empty() {
		return Result{}, errEmptySpec()
	}
	reqBytes := s.Size(m.repo)

	// Dense query words from the pooled scratch; signing is deferred to
	// the miss path (hits never need a signature).
	sc := m.fast.get(s)
	defer m.fast.put(sc)

	// Phase 1: an existing image satisfies s.
	if img := m.findSuperset(at, s, sc); img != nil {
		hitSpan := at.Begin(telemetry.StageHit, at.Root())
		res := m.hit(at, hitSpan, img, s, reqBytes)
		at.EndInt(hitSpan, "image_id", int64(img.ID))
		m.noteOccupancy(at, hitSpan)
		return res, nil
	}
	m.clock++
	m.stats.Requests++
	m.stats.RequestedBytes += reqBytes

	// Phase 2: merge into a close-enough image.
	mergeScan := at.Begin(telemetry.StageMergeScan, at.Root())
	sig := m.signScratch(sc, s)
	img := m.findMergeTarget(at, mergeScan, s, sig, sc)
	at.End(mergeScan)
	if img != nil {
		mergeSpan := at.Begin(telemetry.StageMerge, at.Root())
		var added []string // what the merge record logs; nothing reads it without a hook
		if m.cfg.Commit != nil {
			added = m.keysOf(s.Diff(img.Spec))
			if mutantEnabled("deltadrop") && len(added) > 1 {
				added = added[1:]
			}
		}
		merged := img.Spec.Union(s)
		m.total -= img.Size
		img.Spec = merged
		img.Size = merged.Size(m.repo)
		img.Merges++
		img.Version++
		img.lastUse = m.clock
		img.served(s)
		if m.hasher != nil {
			// img.sig is image-owned (cloned at insert), so the pooled
			// request signature can be folded in place.
			similarity.MergeSignaturesInto(img.sig, sig)
			m.indexUpdate(img)
		}
		m.refreshBits(img)
		m.total += img.Size
		m.stats.Merges++
		m.stats.BytesWritten += img.Size // the merged image is rewritten whole
		if m.cfg.Commit != nil {
			m.commitSpan(at, mergeSpan, Mutation{
				Kind: MutMerge, ImageID: img.ID, LastUse: img.lastUse,
				Version: img.Version, Merges: img.Merges,
				RequestBytes: reqBytes, Added: added,
			})
		}
		res := Result{
			Seq:          m.clock,
			Op:           OpMerge,
			ImageID:      img.ID,
			ImageVersion: img.Version,
			ImageSize:    img.Size,
			RequestBytes: reqBytes,
			BytesWritten: img.Size,
		}
		at.EndInt(mergeSpan, "bytes_written", img.Size)
		res.Evicted, res.EvictedBytes = m.evictTraced(at, img.ID)
		m.stats.ContainerEffSum += res.ContainerEfficiency()
		m.noteOccupancy(at, mergeSpan)
		return res, nil
	}

	// Phase 3: insert a new image. The pooled signature is recycled on
	// return; the image keeps its own copy.
	insSpan := at.Begin(telemetry.StageInsert, at.Root())
	img = &Image{
		ID:      m.nextID,
		Spec:    s,
		Size:    reqBytes,
		lastUse: m.clock,
		sig:     slices.Clone(sig),
		hot:     s,
	}
	m.nextID++
	m.appendImage(img)
	m.refreshBits(img)
	m.indexInsert(img)
	m.total += img.Size
	m.stats.Inserts++
	m.stats.BytesWritten += img.Size
	if m.cfg.Commit != nil {
		m.commitSpan(at, insSpan, Mutation{
			Kind: MutInsert, ImageID: img.ID, LastUse: img.lastUse,
			RequestBytes: reqBytes, Packages: m.keysOf(img.Spec),
		})
	}
	res := Result{
		Seq:          m.clock,
		Op:           OpInsert,
		ImageID:      img.ID,
		ImageVersion: img.Version,
		ImageSize:    img.Size,
		RequestBytes: reqBytes,
		BytesWritten: img.Size,
	}
	at.EndInt(insSpan, "bytes_written", img.Size)
	res.Evicted, res.EvictedBytes = m.evictTraced(at, img.ID)
	m.stats.ContainerEffSum += res.ContainerEfficiency()
	m.noteOccupancy(at, insSpan)
	return res, nil
}

// hit commits a hit on img: it draws the request's clock stamp and
// applies the whole mutable remainder — request and hit counters, the
// image's LRU stamp and hot-set window, the touch record — as a child
// of the caller's hit span. Callers hold whatever orders this manager's
// commits: nothing (single-threaded use), the ShardedManager's write
// lock, or its hitMu under the read lock.
func (m *Manager) hit(at *telemetry.ActiveTrace, hitSpan telemetry.SpanRef, img *Image, s spec.Spec, reqBytes int64) Result {
	m.clock++
	clock := m.clock
	if !mutantEnabled("touch") {
		img.lastUse = clock
	}
	img.served(s)
	m.stats.Requests++
	m.stats.Hits++
	m.stats.RequestedBytes += reqBytes
	res := Result{Seq: clock, Op: OpHit, ImageID: img.ID, ImageVersion: img.Version, ImageSize: img.Size, RequestBytes: reqBytes}
	m.stats.ContainerEffSum += res.ContainerEfficiency()
	m.commitSpan(at, hitSpan, Mutation{Kind: MutTouch, ImageID: img.ID, LastUse: img.lastUse, RequestBytes: reqBytes})
	return res
}

// noteOccupancy records the cache's occupancy after the request —
// bytes cached and images resident, read under the lock that ordered
// it — on the request's hit, merge or insert span.
func (m *Manager) noteOccupancy(at *telemetry.ActiveTrace, outcome telemetry.SpanRef) {
	if at == nil {
		return
	}
	at.AttrInt(outcome, "cached_bytes", m.total)
	at.AttrInt(outcome, "images", int64(len(m.byID)))
}

// commitSpan is commit wrapped in a wal_append child span: the commit
// hook is where the durability layer appends to its WAL, so its cost is
// attributed separately from the in-memory bookkeeping around it.
func (m *Manager) commitSpan(at *telemetry.ActiveTrace, parent telemetry.SpanRef, mut Mutation) {
	if m.cfg.Commit == nil {
		return
	}
	ws := at.Begin(telemetry.StageWALAppend, parent)
	m.cfg.Commit.Commit(mut)
	at.End(ws)
}

// evictTraced wraps evict in an evict span when a capacity limit makes
// eviction possible at all.
func (m *Manager) evictTraced(at *telemetry.ActiveTrace, keep uint64) (int, int64) {
	if m.cfg.Capacity <= 0 {
		return 0, 0
	}
	es := at.Begin(telemetry.StageEvict, at.Root())
	n, bytes := m.evict(keep)
	at.EndInt(es, "evicted_bytes", bytes)
	return n, bytes
}

// errEmptySpec is the rejection both request paths share.
func errEmptySpec() error { return fmt.Errorf("core: empty specification") }

// EventOf is the one place a request's telemetry.Event is built: the
// flat view /v1/events and `landlord-sim -events` serve, read from the
// request's Result and the attributes core recorded on its spans. It
// must run before at is finished. s is the submitted specification and
// d the caller's timing of the whole cache call. With a nil at the scan
// counts, candidates and occupancy read as zero.
//
// A request that missed on a ShardedManager's read path carries two
// superset scans; the event reports the last, the one that decided it
// under the write lock.
func EventOf(s spec.Spec, res Result, at *telemetry.ActiveTrace, d time.Duration) telemetry.Event {
	ev := telemetry.Event{
		Seq:           res.Seq,
		Op:            res.Op.String(),
		SpecPackages:  s.Len(),
		RequestBytes:  res.RequestBytes,
		ImageID:       res.ImageID,
		ImageVersion:  res.ImageVersion,
		ImageSize:     res.ImageSize,
		BytesWritten:  res.BytesWritten,
		Evicted:       res.Evicted,
		EvictedBytes:  res.EvictedBytes,
		DurationNanos: d.Nanoseconds(),
		TraceID:       at.TraceID(),
	}
	for _, a := range at.LastAttrs(telemetry.StageSupersetScan) {
		if a.Key == "scanned" {
			ev.SupersetScanned = int(a.Num)
		}
	}
	for _, a := range at.LastAttrs(telemetry.StageMergeScan) {
		switch a.Key {
		case "prefilter_accepted":
			ev.PrefilterAccepted = int(a.Num)
		case "prefilter_rejected":
			ev.PrefilterRejected = int(a.Num)
		case "candidate":
			ev.Candidates = append(ev.Candidates, telemetry.Candidate{ImageID: uint64(a.Num), Distance: a.F})
		}
	}
	for _, a := range at.LastAttrs(res.Op.String()) { // the outcome span is named after its op
		switch a.Key {
		case "cached_bytes":
			ev.CachedBytes = a.Num
		case "images":
			ev.Images = int(a.Num)
		}
	}
	return ev
}

// candidate pairs an image with its (exact) distance from the request.
type candidate struct {
	img *Image
	d   float64
}

// pickMergeTarget is the tail of the merge scan: the stable distance
// sort, one candidate attribute per candidate on the scan span (image
// ID and exact distance, in the order considered), and the conflict
// walk that returns the closest non-conflicting candidate. Candidates
// must arrive in scan (insertion) order so the stable sort breaks
// distance ties the way Algorithm 1's linear scan does — the order the
// oracle derives.
func (m *Manager) pickMergeTarget(at *telemetry.ActiveTrace, scanSpan telemetry.SpanRef, s spec.Spec, cands []candidate) *Image {
	if !m.cfg.NoCandidateSort {
		sort.SliceStable(cands, func(a, b int) bool { return cands[a].d < cands[b].d })
	}
	for _, c := range cands {
		at.Attr(scanSpan, telemetry.Attr{Key: "candidate", Num: int64(c.img.ID), F: c.d})
	}
	for _, c := range cands {
		if mutantEnabled("conflict") || !m.cfg.Conflicts.Conflicts(s, c.img.Spec) {
			return c.img
		}
	}
	return nil
}

// evict runs Algorithm 1's eviction step: it removes least-recently-
// used images until the cache fits its capacity, never evicting the
// image just used (keep), and commits each delete. It returns the
// number of images and bytes evicted.
func (m *Manager) evict(keep uint64) (int, int64) {
	capacity := m.cfg.Capacity
	if capacity <= 0 {
		return 0, 0
	}
	limit := capacity
	if mutantEnabled("capacity") {
		limit += limit / 4
	}
	var spared int64 // bytes the weighing leaves out
	if img := m.byID[keep]; img != nil && mutantEnabled("weigh") {
		spared = img.Size
	}
	var n int
	var bytes int64
	for m.total-spared > limit {
		vi := -1
		for i, img := range m.images {
			if img == nil || img.ID == keep {
				continue
			}
			older := vi < 0 || img.lastUse < m.images[vi].lastUse
			if vi >= 0 && mutantEnabled("lru") {
				older = img.lastUse > m.images[vi].lastUse
			}
			if older {
				vi = i
			}
		}
		if vi < 0 {
			break // only the in-use image remains; allow overflow
		}
		victim := m.images[vi]
		m.drop(vi)
		m.commit(Mutation{Kind: MutDelete, ImageID: victim.ID})
		n++
		bytes += victim.Size
	}
	if n > 0 {
		m.compact()
	}
	return n, bytes
}

// drop removes the image at position i of the insertion-ordered slice
// and counts the delete. Callers commit the delete, if it is to be
// logged, and compact.
func (m *Manager) drop(i int) {
	img := m.images[i]
	m.images[i] = nil
	delete(m.byID, img.ID)
	m.indexRemove(img.ID)
	m.total -= img.Size
	m.stats.Deletes++
}

// compact removes nil entries from the insertion-ordered slice once
// they outnumber the live images.
func (m *Manager) compact() {
	if len(m.images) < 2*len(m.byID)+8 {
		return
	}
	live := m.images[:0]
	for _, img := range m.images {
		if img != nil {
			live = append(live, img)
		}
	}
	m.images = live
}

// ImageByID returns the live cached image with the given ID, or false
// if it has been evicted. The returned Image must not be modified.
func (m *Manager) ImageByID(id uint64) (*Image, bool) {
	img, ok := m.byID[id]
	return img, ok
}
