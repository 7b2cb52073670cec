package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pkggraph"
	"repro/internal/similarity"
	"repro/internal/spec"
	"repro/internal/telemetry"
)

// Sharded cache core.
//
// A ShardedManager is the concurrent front of the cache: N ≥ 1
// independently locked shards, each one single-threaded Manager behind
// a lock pair, keyed by the request's package keys (the route fold the
// fleet shares, internal/spec's RouteTerms). Hits — the overwhelmingly common case in the paper's
// operational zone — are served under a shard's shared read lock so
// they scale across cores; maintenance takes that shard's write lock,
// and so do merges and inserts (with their evictions) unless the cache
// has a capacity, which one eviction step enforces across every shard:
// those slow paths take every shard's write lock. Without a capacity,
// slow-path traffic on different shards proceeds in parallel too.
// shards=1 is the plain concurrent cache and is byte-identical to an
// unsharded Manager.
//
// Lock hierarchy (acquire strictly in this order, release in reverse;
// multi-shard sections take shards in index order):
//
//  1. shard.mu (RWMutex): guards the shard's cache *structure* — the
//     image set, image specs/sizes/signatures, the byte total. Readers
//     may scan; only writers add, remove, or resize images.
//  2. shard.hitMu: serializes the tiny mutable remainder of a hit — the
//     logical clock, the stats counters, the image's LRU stamp and
//     hot-set window, and the commit-hook call — among concurrent
//     read-lock holders. Write-lock holders never take hitMu: the
//     write lock already excludes every reader.
//  3. Whatever lock the CommitHook takes internally (the persist
//     store's own mutex).
//
// Linearization-order guarantee: every request is stamped with a unique
// logical clock value while holding either its shard's hitMu (hits) or
// write lock (merges/inserts), and the commit hook is invoked before
// that lock is released. Each shard's hook invocations are therefore
// totally ordered and the WAL observes a shard's mutations in exactly
// clock order, so single-threaded replay of the log (internal/persist
// recovery) reconstructs the concurrent execution byte for byte —
// including the order-sensitive float accumulation in
// Stats.ContainerEffSum. The oracle-equivalence harness
// (concurrent_test.go) asserts this at shards=1.
//
// Three mechanisms keep the partitioned cache provably equivalent to a
// single Algorithm 1 cache over the shard-local image sets:
//
//   - One shared atomic logical clock: every shard draws Seq stamps
//     from the same source, so stamps are globally unique and dense
//     (1..requests) and the merged mutation stream still linearizes by
//     Seq. Records from different shards commute on replay because
//     mutations carry absolute values and shards own disjoint images.
//
//   - Strided image IDs: shard i of N allocates IDs ≡ i (mod N), so
//     ImageID mod N names the owning shard in every mutation and
//     checkpoint. Recovery and checkpoint import route records with no
//     format change.
//
//   - One byte capacity for the whole cache. With one shard the shard
//     holds it and evicts within itself, exactly as an unsharded
//     Manager does. With more, no shard has a capacity of its own:
//     every shard evicts within the whole shard set (Manager.peers),
//     the globally least-recently-used image first and never the image
//     the request just used, so a request's slow path holds every
//     shard's write lock (see requestCtx).
//
// Commit hooks configured on a ShardedManager must be safe for
// concurrent use (the persist store is). A request's spans belong to
// its own ActiveTrace, so recording them needs no lock of its own.
type ShardedManager struct {
	repo     *pkggraph.Repo
	shards   []*shard
	clockSrc *atomic.Uint64
	capacity int64 // the one byte capacity (zero or negative: unlimited)

	// routes is the interned route-term table ShardFor sums (nil with
	// one shard: there is nothing to route).
	routes spec.RouteTerms
}

// shard is one partition: a Manager behind its lock pair.
type shard struct {
	mu    sync.RWMutex
	hitMu sync.Mutex
	m     *Manager

	// slowSet is what a slow-path request on this shard write-locks:
	// the shard itself, or every shard when the cache's one capacity
	// spans them and the request may evict from any.
	slowSet []*shard

	// Contention accounting, always on (atomics are ~free next to a
	// cache scan): hits served under the read lock, and write-lock
	// acquisitions (slow-path requests plus maintenance).
	readHits  atomic.Int64
	writeAcqs atomic.Int64

	// Optional lock-wait histograms (seconds), set via
	// SetLockWaitMetrics; nil skips the clock reads.
	readWait  *telemetry.Histogram
	writeWait *telemetry.Histogram
}

// rlock acquires the read lock, timing the wait when metrics are on.
func (sh *shard) rlock() {
	if sh.readWait != nil {
		start := time.Now()
		sh.mu.RLock()
		sh.readWait.Observe(time.Since(start).Seconds())
		return
	}
	sh.mu.RLock()
}

// lock acquires the write lock, timing the wait when metrics are on.
func (sh *shard) lock() {
	if sh.writeWait != nil {
		start := time.Now()
		sh.mu.Lock()
		sh.writeWait.Observe(time.Since(start).Seconds())
	} else {
		sh.mu.Lock()
	}
	sh.writeAcqs.Add(1)
}

// read runs fn under the read lock alone: the image set and byte total
// are stable; clock, stats and LRU stamps are not (hits still commit
// under hitMu).
func (sh *shard) read(fn func(m *Manager)) {
	sh.rlock()
	defer sh.mu.RUnlock()
	fn(sh.m)
}

// shared runs fn with the shard quiescent for reading: the read lock
// plus hitMu, so stats, clock, and LRU stamps are stable too.
// Concurrent hits wait (briefly — keep fn short); merges and inserts
// wait on the read lock.
func (sh *shard) shared(fn func(m *Manager)) {
	sh.rlock()
	sh.hitMu.Lock()
	defer func() {
		sh.hitMu.Unlock()
		sh.mu.RUnlock()
	}()
	fn(sh.m)
}

// exclusive runs fn as the sole user of the shard's Manager.
func (sh *shard) exclusive(fn func(m *Manager)) {
	sh.lock()
	defer sh.mu.Unlock()
	fn(sh.m)
}

// requestCtx runs Algorithm 1 for s on this shard.
//
// Read path: under the read lock, scan for an image with s ⊆ i. A hit
// only refreshes LRU/stats/hot-set state, so it commits under hitMu
// without ever taking the write lock — concurrent hits on a multi-core
// head node proceed in parallel through the scan, which dominates the
// cost. Miss: fall back to the write lock and re-run the full
// algorithm (the superset check must be re-decided under exclusion —
// another writer may have inserted a satisfying image in the window
// between the two locks).
//
// The context is checked before the read path, before queueing on the
// write lock, and again immediately after acquiring it — an expired
// request aborts *before* mutating anything, never mid-merge. Once the
// slow-path algorithm starts, it runs to completion (a half-applied
// merge is worse than a late one); expiry between the WAL append and
// the response is the client's problem, which is exactly why the
// durability audit counts only acked responses.
func (sh *shard) requestCtx(ctx context.Context, s spec.Spec) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	m := sh.m
	// Span tracing rides the context: the server attaches the request's
	// ActiveTrace and every layer below records into it. A nil trace
	// (untraced callers, benchmarks) costs one branch per span site.
	at := telemetry.TraceFromContext(ctx)
	// Pure pre-computation: no locks needed, Repo and Spec are
	// immutable. Signing is deferred entirely — a hit never needs it,
	// and the slow path (RequestTraced) signs with its own scratch.
	// Scratch is drawn per request: concurrent read-lock holders scan
	// simultaneously and must not share buffers.
	sc := m.fast.get(s)
	defer m.fast.put(sc)
	reqBytes := s.Size(m.repo)

	rlSpan := at.Begin(telemetry.StageLockWaitRead, at.Root())
	sh.rlock()
	at.End(rlSpan)
	if img := m.findSuperset(at, s, sc); img != nil {
		hitSpan := at.Begin(telemetry.StageHit, at.Root())
		// The hook must run before hitMu is released so the WAL sees
		// touches in clock order (see the linearization guarantee above).
		sh.hitMu.Lock()
		res := m.hit(at, hitSpan, img, s, reqBytes)
		sh.hitMu.Unlock()
		at.EndInt(hitSpan, "image_id", int64(img.ID))
		if len(sh.slowSet) == 1 {
			m.noteOccupancy(at, hitSpan)
		}
		sh.readHits.Add(1)
		sh.mu.RUnlock()
		if len(sh.slowSet) > 1 {
			sh.noteOccupancy(at, hitSpan)
		}
		return res, nil
	}
	sh.mu.RUnlock()

	// Slow path: the full algorithm under exclusion — of this shard,
	// or of every shard when its eviction step may take any shard's
	// image. Reuses the single-threaded Request verbatim — including
	// its own phase-1 rescan — so the decision procedure has exactly
	// one implementation. The second ctx check catches deadlines that
	// expired while this request queued behind the write lock — the
	// common shape under overload, and the window where aborting still
	// costs nothing.
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	wlSpan := at.Begin(telemetry.StageLockWaitWrite, at.Root())
	lockAll(sh.slowSet)
	at.End(wlSpan)
	if err := ctx.Err(); err != nil {
		unlockAll(sh.slowSet)
		return Result{}, err
	}
	res, err := m.RequestTraced(s, at)
	unlockAll(sh.slowSet)
	return res, err
}

// noteOccupancy is Manager.noteOccupancy for a hit on a shard whose
// capacity spans the whole set, which holds only its own read lock:
// once that is released it reads each shard under its read lock in
// turn, never two at once (a writer waiting for all of them in index
// order would deadlock against a reader holding one and asking for
// another), so the sum may include requests that finished meanwhile.
func (sh *shard) noteOccupancy(at *telemetry.ActiveTrace, outcome telemetry.SpanRef) {
	if at == nil {
		return
	}
	var bytes, images int64
	for _, p := range sh.slowSet {
		p.mu.RLock()
		bytes += p.m.total
		images += int64(len(p.m.byID))
		p.mu.RUnlock()
	}
	at.AttrInt(outcome, "cached_bytes", bytes)
	at.AttrInt(outcome, "images", images)
}

// lockAll write-locks shards in index order, the fixed order that makes
// multi-shard exclusion deadlock-free; unlockAll releases them in
// reverse.
func lockAll(shards []*shard) {
	for _, sh := range shards {
		sh.lock()
	}
}

func unlockAll(shards []*shard) {
	for i := len(shards) - 1; i >= 0; i-- {
		shards[i].mu.Unlock()
	}
}

// peekHit answers "would this spec hit?" under the read lock alone.
func (sh *shard) peekHit(s spec.Spec) (Result, bool) {
	m := sh.m
	reqBytes := s.Size(m.repo)
	sc := m.fast.get(s)
	defer m.fast.put(sc)
	sh.rlock()
	defer sh.mu.RUnlock()
	img := m.findSuperset(nil, s, sc)
	if img == nil {
		return Result{}, false
	}
	return Result{
		Op:           OpHit,
		ImageID:      img.ID,
		ImageVersion: img.Version,
		ImageSize:    img.Size,
		RequestBytes: reqBytes,
	}, true
}

// ShardRoute maps a request's package keys to a shard index in [0,
// shards): the string form of the route, spec.RouteSum's fold reduced
// by ShardOf. A sum of per-key terms is a pure function of the key
// multiset — key order cannot matter by construction, and duplicate
// keys do not cancel (a XOR would erase pairs) — the properties the
// shadow checker audits on every insert and FuzzShardRoute fuzzes.
// shards < 2 always routes to 0.
func ShardRoute(packages []string, shards int) int {
	return ShardOf(spec.RouteSum(packages), shards)
}

// ShardOf reduces a route sum to a shard index in [0, shards):
// spec.RouteMix, then mod shards. shards < 2 always routes to 0.
func ShardOf(sum uint64, shards int) int {
	if shards < 2 {
		return 0
	}
	return int(spec.RouteMix(sum) % uint64(shards))
}

// NewSharded validates cfg and creates an empty sharded manager with
// cfg.Shards shards (minimum 1). cfg.Capacity bounds the whole cache,
// not each shard. cfg.Commit is shared by every shard and must be safe
// for concurrent use.
func NewSharded(repo *pkggraph.Repo, cfg Config) (*ShardedManager, error) {
	n := cfg.Shards
	if n < 1 {
		n = 1
	}
	sm := &ShardedManager{
		repo:     repo,
		capacity: cfg.Capacity,
		clockSrc: new(atomic.Uint64),
	}
	scfg := cfg
	scfg.Shards = n
	if n >= 2 {
		sm.routes = spec.NewRouteTerms(repo)
	}
	var hasher *similarity.Hasher // the first shard's, shared: one probe index per cache
	for i := 0; i < n; i++ {
		m, err := newManager(repo, scfg, hasher)
		if err != nil {
			return nil, err
		}
		hasher = m.hasher
		m.clockSrc = sm.clockSrc
		m.idOffset = uint64(i)
		m.idStride = uint64(n)
		m.nextID = uint64(i)
		sh := &shard{m: m}
		sh.slowSet = []*shard{sh}
		sm.shards = append(sm.shards, sh)
	}
	if n >= 2 && cfg.Capacity > 0 { // a merge or insert may evict from any shard
		ms := sm.managers()
		for i, sh := range sm.shards {
			sh.slowSet, ms[i].peers = sm.shards, ms
		}
	}
	return sm, nil
}

// NumShards returns the shard count.
func (sm *ShardedManager) NumShards() int { return len(sm.shards) }

// ShardUsage returns shard i's resident image count and bytes — the
// per-shard gauges.
func (sm *ShardedManager) ShardUsage(i int) (images int, bytes int64) {
	sm.shards[i].read(func(m *Manager) { images, bytes = m.Len(), m.TotalData() })
	return images, bytes
}

// Capacity returns the cache's one byte capacity (zero or negative
// means unlimited).
func (sm *ShardedManager) Capacity() int64 { return sm.capacity }

// ShardFor returns the shard a request for s routes to: the interned
// route terms summed, the same route as ShardRoute(keysOf(s), n)
// without reading a key byte or allocating.
func (sm *ShardedManager) ShardFor(s spec.Spec) int {
	if len(sm.shards) < 2 {
		return 0
	}
	return ShardOf(sm.routes.Sum(s), len(sm.shards))
}

// Request runs Algorithm 1 for s on the shard its key set routes to.
func (sm *ShardedManager) Request(s spec.Spec) (Result, error) {
	return sm.RequestCtx(context.Background(), s)
}

// RequestCtx is Request with deadline/cancellation awareness and span
// tracing riding the context (see shard.requestCtx). Empty
// specifications are rejected.
func (sm *ShardedManager) RequestCtx(ctx context.Context, s spec.Spec) (Result, error) {
	if s.Empty() {
		return Result{}, errEmptySpec()
	}
	return sm.shards[sm.ShardFor(s)].requestCtx(ctx, s)
}

// PeekHit answers "would this spec hit?" with zero mutation: no clock
// bump, no stats, no LRU touch, no commit-hook call. It exists for
// degraded-mode serving — when the WAL is broken the server may still
// answer superset hits from memory, but it must not generate mutations
// it cannot make durable. The returned Result carries Seq 0 since the
// request was never linearized into the mutation order.
func (sm *ShardedManager) PeekHit(s spec.Spec) (Result, bool) {
	if s.Empty() {
		return Result{}, false
	}
	return sm.shards[sm.ShardFor(s)].peekHit(s)
}

// managers lists the shards' Managers for a multi-shard section.
func (sm *ShardedManager) managers() []*Manager {
	ms := make([]*Manager, len(sm.shards))
	for i, sh := range sm.shards {
		ms[i] = sh.m
	}
	return ms
}

// WithExclusiveAll runs fn as the sole user of every shard's Manager:
// shard locks are acquired in index order (the fixed order that makes
// multi-shard exclusion deadlock-free) and released in reverse. This is
// the critical section for checkpoints (export state + WAL rotation
// with no mutation in between), restores, and the slow path of a
// request that may evict from any shard — anything
// that must observe or mutate a globally frozen cache. fn must not
// retain ms or its elements.
func (sm *ShardedManager) WithExclusiveAll(fn func(ms []*Manager)) {
	lockAll(sm.shards)
	fn(sm.managers())
	unlockAll(sm.shards)
}

// WithSharedAll runs fn with every shard quiescent for reading (read
// lock plus hitMu each, acquired in index order). fn must not retain
// ms or its elements.
func (sm *ShardedManager) WithSharedAll(fn func(ms []*Manager)) {
	for _, sh := range sm.shards {
		sh.rlock()
	}
	for _, sh := range sm.shards {
		sh.hitMu.Lock()
	}
	fn(sm.managers())
	for i := len(sm.shards) - 1; i >= 0; i-- {
		sm.shards[i].hitMu.Unlock()
	}
	for i := len(sm.shards) - 1; i >= 0; i-- {
		sm.shards[i].mu.RUnlock()
	}
}

// Stats returns the field-wise sum of every shard's counters. Each
// shard's copy is internally consistent; across shards the sum may lag
// in-flight requests by a request or two (use WithSharedAll +
// MergedStats for a quiesced view).
func (sm *ShardedManager) Stats() Stats {
	var out Stats
	for _, sh := range sm.shards {
		sh.shared(func(m *Manager) { out = addStats(out, m.stats) })
	}
	return out
}

// Len returns the number of cached images across all shards.
func (sm *ShardedManager) Len() int {
	n := 0
	for _, sh := range sm.shards {
		sh.read(func(m *Manager) { n += m.Len() })
	}
	return n
}

// TotalData returns the summed size of all cached images.
func (sm *ShardedManager) TotalData() int64 {
	var t int64
	for _, sh := range sm.shards {
		sh.read(func(m *Manager) { t += m.TotalData() })
	}
	return t
}

// UniqueData returns the size of the union of all shards' package sets.
func (sm *ShardedManager) UniqueData() int64 {
	var u int64
	sm.WithSharedAll(func(ms []*Manager) { u = UnionData(ms) })
	return u
}

// CacheEfficiency returns UniqueData/TotalData across all shards.
func (sm *ShardedManager) CacheEfficiency() float64 {
	var u, t float64
	sm.WithSharedAll(func(ms []*Manager) {
		u = float64(UnionData(ms))
		for _, m := range ms {
			t += float64(m.TotalData())
		}
	})
	if t == 0 {
		return 1
	}
	return u / t
}

// Alpha returns the configured merge threshold.
func (sm *ShardedManager) Alpha() float64 { return sm.shards[0].m.Alpha() }

// CheckIntegrity validates every shard (see Manager.CheckIntegrity),
// each quiescent (read lock plus hitMu) so concurrent traffic cannot
// produce torn reads of the structures being validated.
func (sm *ShardedManager) CheckIntegrity() error {
	for i, sh := range sm.shards {
		var err error
		sh.shared(func(m *Manager) { err = m.CheckIntegrity() })
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// Prune runs the split pass shard by shard, each under its write lock,
// and concatenates the results (see Manager.Prune).
func (sm *ShardedManager) Prune(maxUtilization float64, minServed int) ([]SplitResult, error) {
	var out []SplitResult
	for _, sh := range sm.shards {
		var res []SplitResult
		var err error
		sh.exclusive(func(m *Manager) { res, err = m.Prune(maxUtilization, minServed) })
		if err != nil {
			return out, err
		}
		out = append(out, res...)
	}
	return out, nil
}

// ExportState captures the merged state of all shards (see
// MergedState). For a checkpoint that must stay consistent with the
// WAL, use WithExclusiveAll and export under the same critical section
// as the log rotation.
func (sm *ShardedManager) ExportState() ManagerState {
	var st ManagerState
	sm.WithSharedAll(func(ms []*Manager) { st = MergedState(ms) })
	return st
}

// ImportState loads a merged checkpoint into an empty sharded manager
// (see ImportMerged). Only for use before the manager serves traffic;
// a serving cache imports under WithExclusiveAll.
func (sm *ShardedManager) ImportState(st ManagerState) error {
	return ImportMerged(sm.managers(), st)
}

// ApplyMutation replays one logged mutation during recovery, routed to
// the owning shard by ImageID: a replay pass of one record (see
// Replay), its keys resolved first (Record.Resolve). Only for
// single-goroutine use before the manager serves traffic.
func (sm *ShardedManager) ApplyMutation(mut Mutation) error {
	var r Record
	r.Resolve(sm.repo, mut)
	err := sm.apply(&r)
	if serr := sm.settle(); err == nil {
		err = serr
	}
	return err
}

// Replay runs fn as one replay pass: fn hands apply each logged record
// in log order, and apply replays it as ApplyMutation does, except
// that the images it changes are settled — merge deltas unioned in,
// specs interned, signed and re-banded — once, when fn returns,
// instead of after every record (see Manager.settle). apply keeps
// neither of the record's lists. A record apply rejects changes
// nothing and the pass goes on. Replay returns settle's error: a log
// whose merge deltas overlap their images, which no writer of this
// package produces. Recovery replays a whole WAL tail this way. Only
// for single-goroutine use before the manager serves traffic.
func (sm *ShardedManager) Replay(fn func(apply func(*Record) error)) error {
	fn(sm.apply)
	return sm.settle()
}

// apply is one record of a replay pass, on the shard its ImageID names.
func (sm *ShardedManager) apply(r *Record) error {
	i := int(r.ImageID % uint64(len(sm.shards)))
	if err := sm.shards[i].m.apply(r); err != nil {
		return err
	}
	if r.LastUse > sm.clockSrc.Load() {
		sm.clockSrc.Store(r.LastUse)
	}
	return nil
}

// settle ends a replay pass on every shard.
func (sm *ShardedManager) settle() error {
	var err error
	for _, sh := range sm.shards {
		if serr := sh.m.settle(); err == nil {
			err = serr
		}
	}
	return err
}

// Images returns image rows across all shards for read-only listings,
// ordered by ID so the listing is stable regardless of shard count.
// Unlike Manager.Images, the returned values are copies: live *Image
// fields mutate under locks the caller does not hold.
func (sm *ShardedManager) Images() []Image {
	var out []Image
	for _, sh := range sm.shards {
		sh.shared(func(m *Manager) {
			for _, img := range m.images {
				if img != nil {
					out = append(out, *img)
				}
			}
		})
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// SetCommitHook replaces the commit hook on every shard (see
// Manager.SetCommitHook). Call before serving traffic.
func (sm *ShardedManager) SetCommitHook(h CommitHook) {
	for _, sh := range sm.shards {
		sh.m.SetCommitHook(h)
	}
}

// SetLockWaitMetrics installs histograms observing the time spent
// waiting to acquire a shard's read lock (the hit path) and write lock
// (slow path and maintenance). Call before serving; not safe to call
// concurrently with requests.
func (sm *ShardedManager) SetLockWaitMetrics(read, write *telemetry.Histogram) {
	for _, sh := range sm.shards {
		sh.readWait, sh.writeWait = read, write
	}
}

// ReadHits returns how many requests were served entirely under a read
// lock.
func (sm *ShardedManager) ReadHits() int64 {
	var n int64
	for _, sh := range sm.shards {
		n += sh.readHits.Load()
	}
	return n
}

// WriteLockAcquisitions returns how many times a shard's exclusive
// write lock has been taken (slow-path requests, prunes, checkpoints,
// restores). Read-only endpoints riding the read path leave it
// untouched — the regression tests assert exactly that.
func (sm *ShardedManager) WriteLockAcquisitions() int64 {
	var n int64
	for _, sh := range sm.shards {
		n += sh.writeAcqs.Load()
	}
	return n
}

// MergedState merges per-shard states into the canonical global state:
// images across all shards ordered by LastUse (stamps are globally
// unique, so the order is total), NextID the maximum shard allocator,
// Clock the maximum shard clock (the shared counter's value at
// quiescence), Stats the field-wise sum. A 1-shard merge is exactly
// that shard's ExportState. Callers must hold the shards quiescent
// (WithSharedAll or WithExclusiveAll).
func MergedState(ms []*Manager) ManagerState {
	var out ManagerState
	for _, m := range ms {
		st := m.ExportState()
		out.Images = append(out.Images, st.Images...)
		if st.NextID > out.NextID {
			out.NextID = st.NextID
		}
		if st.Clock > out.Clock {
			out.Clock = st.Clock
		}
		out.Stats = addStats(out.Stats, st.Stats)
	}
	sort.SliceStable(out.Images, func(a, b int) bool { return out.Images[a].LastUse < out.Images[b].LastUse })
	return out
}

// MergedStats sums per-shard counters. Callers must hold the shards
// quiescent.
func MergedStats(ms []*Manager) Stats {
	var out Stats
	for _, m := range ms {
		out = addStats(out, m.Stats())
	}
	return out
}

// UnionData returns the size of the union of every shard's package
// sets. Callers must hold the shards quiescent.
func UnionData(ms []*Manager) int64 {
	var u spec.Spec
	var repo *pkggraph.Repo
	for _, m := range ms {
		repo = m.repo
		for _, img := range m.images {
			if img != nil {
				u = u.Union(img.Spec)
			}
		}
	}
	if repo == nil {
		return 0
	}
	return u.Size(repo)
}

// ImportMerged loads a merged state (MergedState's shape) into empty
// shard managers: each image goes to the shard its ID names (ID mod
// N), so identities, versions, and LRU stamps survive exactly, whatever
// shard count wrote the state. The merged stats land whole on shard 0
// (summing per-shard stats reproduces them; splitting per shard is
// unknowable from a merged state, and "ops partition requests" holds
// for both the zero and the whole). All or nothing: every shard is
// checked and every image resolved before the first goes in. Callers
// must hold the shards exclusively.
func ImportMerged(ms []*Manager, st ManagerState) error {
	n := uint64(len(ms))
	parts := make([][]ImageSnapshot, n)
	for _, snap := range st.Images {
		parts[snap.ID%n] = append(parts[snap.ID%n], snap)
	}
	imgs := make([][]*Image, n)
	for i, m := range ms {
		var err error
		if imgs[i], err = m.importImages(parts[i]); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	for i, m := range ms {
		sub := ManagerState{NextID: st.NextID, Clock: st.Clock}
		if i == 0 {
			sub.Stats = st.Stats
		}
		m.install(imgs[i], sub)
	}
	return nil
}

// addStats returns the field-wise sum a+b.
func addStats(a, b Stats) Stats {
	return Stats{
		Requests:        a.Requests + b.Requests,
		Hits:            a.Hits + b.Hits,
		Inserts:         a.Inserts + b.Inserts,
		Merges:          a.Merges + b.Merges,
		Deletes:         a.Deletes + b.Deletes,
		Splits:          a.Splits + b.Splits,
		BytesWritten:    a.BytesWritten + b.BytesWritten,
		RequestedBytes:  a.RequestedBytes + b.RequestedBytes,
		ContainerEffSum: a.ContainerEffSum + b.ContainerEffSum,
	}
}
