package core

import (
	"cmp"
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pkggraph"
	"repro/internal/spec"
	"repro/internal/telemetry"
)

// Concurrent cache core.
//
// A ShardedManager is the concurrent front of the cache: one
// single-threaded Manager behind one lock pair. Hits — the
// overwhelmingly common case in the paper's operational zone — are
// served under the shared read lock so they scale across cores;
// merges, inserts (with their evictions) and maintenance take the
// write lock. It keeps the name of the shard set it replaced because the
// repository's benchmark (bench/) builds against it (DESIGN.md §11).
//
// Lock hierarchy (acquire strictly in this order, release in reverse):
//
//  1. mu (RWMutex): guards the cache *structure* — the image set,
//     image specs/sizes/signatures, the byte total. Readers may scan;
//     only writers add, remove, or resize images.
//  2. hitMu: serializes the tiny mutable remainder of a hit — the
//     logical clock, the stats counters, the image's LRU stamp and
//     hot-set window, and the commit-hook call — among concurrent
//     read-lock holders. Write-lock holders never take hitMu: the
//     write lock already excludes every reader.
//  3. Whatever lock the CommitHook takes internally (the persist
//     store's own mutex).
//
// Linearization-order guarantee: every request is stamped with a unique
// logical clock value while holding either hitMu (hits) or the write
// lock (merges/inserts), and the commit hook is invoked before that
// lock is released. Hook invocations are therefore totally ordered and
// the WAL observes mutations in exactly clock order, so single-threaded
// replay of the log (internal/persist recovery) reconstructs the
// concurrent execution byte for byte — including the order-sensitive
// float accumulation in Stats.ContainerEffSum. The oracle-equivalence
// harness (concurrent_test.go) asserts this.
//
// Commit hooks configured on a ShardedManager must be safe for
// concurrent use (the persist store is). A request's spans belong to
// its own ActiveTrace, so recording them needs no lock of its own.
type ShardedManager struct {
	mu    sync.RWMutex
	hitMu sync.Mutex
	m     *Manager

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
func (sm *ShardedManager) rlock() {
	if sm.readWait != nil {
		start := time.Now()
		sm.mu.RLock()
		sm.readWait.Observe(time.Since(start).Seconds())
		return
	}
	sm.mu.RLock()
}

// lock acquires the write lock, timing the wait when metrics are on.
func (sm *ShardedManager) lock() {
	if sm.writeWait != nil {
		start := time.Now()
		sm.mu.Lock()
		sm.writeWait.Observe(time.Since(start).Seconds())
	} else {
		sm.mu.Lock()
	}
	sm.writeAcqs.Add(1)
}

// read runs fn under the read lock alone: the image set and byte total
// are stable; clock, stats and LRU stamps are not (hits still commit
// under hitMu).
func (sm *ShardedManager) read(fn func(m *Manager)) {
	sm.rlock()
	defer sm.mu.RUnlock()
	fn(sm.m)
}

// NewSharded validates cfg and creates an empty concurrent cache.
// cfg.Commit must be safe for concurrent use.
func NewSharded(repo *pkggraph.Repo, cfg Config) (*ShardedManager, error) {
	m, err := NewManager(repo, cfg)
	if err != nil {
		return nil, err
	}
	return &ShardedManager{m: m}, nil
}

// Capacity returns the cache's byte capacity (zero or negative means
// unlimited).
func (sm *ShardedManager) Capacity() int64 { return sm.m.Capacity() }

// Request runs Algorithm 1 for s.
func (sm *ShardedManager) Request(s spec.Spec) (Result, error) {
	return sm.RequestCtx(context.Background(), s)
}

// RequestCtx is Request with deadline/cancellation awareness and span
// tracing riding the context. Empty specifications are rejected.
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
func (sm *ShardedManager) RequestCtx(ctx context.Context, s spec.Spec) (Result, error) {
	if s.Empty() {
		return Result{}, errEmptySpec()
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	m := sm.m
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
	sm.rlock()
	at.End(rlSpan)
	if img := m.findSuperset(at, s, sc); img != nil {
		hitSpan := at.Begin(telemetry.StageHit, at.Root())
		// The hook must run before hitMu is released so the WAL sees
		// touches in clock order (see the linearization guarantee above).
		sm.hitMu.Lock()
		res := m.hit(at, hitSpan, img, s, reqBytes)
		sm.hitMu.Unlock()
		at.EndInt(hitSpan, "image_id", int64(img.ID))
		m.noteOccupancy(at, hitSpan)
		sm.readHits.Add(1)
		sm.mu.RUnlock()
		return res, nil
	}
	sm.mu.RUnlock()

	// Slow path: the full algorithm under exclusion. Reuses the
	// single-threaded Request verbatim — including its own phase-1
	// rescan — so the decision procedure has exactly one
	// implementation. The second ctx check catches deadlines that
	// expired while this request queued behind the write lock — the
	// common shape under overload, and the window where aborting still
	// costs nothing.
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	wlSpan := at.Begin(telemetry.StageLockWaitWrite, at.Root())
	sm.lock()
	at.End(wlSpan)
	defer sm.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	return m.RequestTraced(s, at)
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
	m := sm.m
	reqBytes := s.Size(m.repo)
	sc := m.fast.get(s)
	defer m.fast.put(sc)
	sm.rlock()
	defer sm.mu.RUnlock()
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

// WithExclusive runs fn as the sole user of the Manager, under the
// write lock. This is the critical section for checkpoints (export
// state + WAL rotation with no mutation in between) and restores —
// anything that must observe or mutate a frozen cache. fn must not
// retain m.
func (sm *ShardedManager) WithExclusive(fn func(m *Manager)) {
	sm.lock()
	defer sm.mu.Unlock()
	fn(sm.m)
}

// WithShared runs fn with the cache quiescent for reading: the read
// lock plus hitMu, so stats, clock, and LRU stamps are stable too.
// Concurrent hits wait (briefly — keep fn short); merges and inserts
// wait on the read lock. fn must not retain m.
func (sm *ShardedManager) WithShared(fn func(m *Manager)) {
	sm.rlock()
	sm.hitMu.Lock()
	defer func() {
		sm.hitMu.Unlock()
		sm.mu.RUnlock()
	}()
	fn(sm.m)
}

// Stats returns a consistent copy of the counters.
func (sm *ShardedManager) Stats() Stats {
	var out Stats
	sm.WithShared(func(m *Manager) { out = m.Stats() })
	return out
}

// Len returns the number of cached images.
func (sm *ShardedManager) Len() int {
	n := 0
	sm.read(func(m *Manager) { n = m.Len() })
	return n
}

// TotalData returns the summed size of all cached images.
func (sm *ShardedManager) TotalData() int64 {
	var t int64
	sm.read(func(m *Manager) { t = m.TotalData() })
	return t
}

// UniqueData returns the size of the union of the cached package sets.
func (sm *ShardedManager) UniqueData() int64 {
	var u int64
	sm.read(func(m *Manager) { u = m.UniqueData() })
	return u
}

// CacheEfficiency returns UniqueData/TotalData.
func (sm *ShardedManager) CacheEfficiency() float64 {
	var e float64
	sm.read(func(m *Manager) { e = m.CacheEfficiency() })
	return e
}

// Alpha returns the configured merge threshold.
func (sm *ShardedManager) Alpha() float64 { return sm.m.Alpha() }

// CheckIntegrity validates the cache (see Manager.CheckIntegrity) with
// it quiescent (read lock plus hitMu), so concurrent traffic cannot
// produce torn reads of the structures being validated.
func (sm *ShardedManager) CheckIntegrity() error {
	var err error
	sm.WithShared(func(m *Manager) { err = m.CheckIntegrity() })
	return err
}

// Prune runs the split pass under the write lock (see Manager.Prune).
func (sm *ShardedManager) Prune(maxUtilization float64, minServed int) ([]SplitResult, error) {
	var res []SplitResult
	var err error
	sm.WithExclusive(func(m *Manager) { res, err = m.Prune(maxUtilization, minServed) })
	return res, err
}

// ExportState captures the cache's state (see Manager.ExportState).
// For a checkpoint that must stay consistent with the WAL, use
// WithExclusive and export under the same critical section as the log
// rotation.
func (sm *ShardedManager) ExportState() ManagerState {
	var st ManagerState
	sm.WithShared(func(m *Manager) { st = m.ExportState() })
	return st
}

// ImportState loads a checkpoint into the empty cache (see
// Manager.ImportState). Only for use before the manager serves
// traffic; a serving cache imports under WithExclusive.
func (sm *ShardedManager) ImportState(st ManagerState) error {
	return sm.m.ImportState(st)
}

// ApplyMutation replays one logged mutation during recovery (see
// Manager.ApplyMutation). Only for single-goroutine use before the
// manager serves traffic.
func (sm *ShardedManager) ApplyMutation(mut Mutation) error {
	return sm.m.ApplyMutation(mut)
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
	fn(sm.m.apply)
	return sm.m.settle()
}

// Images returns image rows for read-only listings, ordered by ID.
// Unlike Manager.Images, the returned values are copies: live *Image
// fields mutate under locks the caller does not hold.
func (sm *ShardedManager) Images() []Image {
	var out []Image
	sm.WithShared(func(m *Manager) {
		for _, img := range m.images {
			if img != nil {
				out = append(out, *img)
			}
		}
	})
	slices.SortFunc(out, func(a, b Image) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// SetCommitHook replaces the commit hook (see Manager.SetCommitHook).
// Call before serving traffic.
func (sm *ShardedManager) SetCommitHook(h CommitHook) { sm.m.SetCommitHook(h) }

// SetLockWaitMetrics installs histograms observing the time spent
// waiting to acquire the read lock (the hit path) and the write lock
// (slow path and maintenance). Call before serving; not safe to call
// concurrently with requests.
func (sm *ShardedManager) SetLockWaitMetrics(read, write *telemetry.Histogram) {
	sm.readWait, sm.writeWait = read, write
}

// ReadHits returns how many requests were served entirely under the
// read lock.
func (sm *ShardedManager) ReadHits() int64 { return sm.readHits.Load() }

// WriteLockAcquisitions returns how many times the exclusive write lock
// has been taken (slow-path requests, prunes, checkpoints, restores).
// Read-only endpoints riding the read path leave it untouched — the
// regression tests assert exactly that.
func (sm *ShardedManager) WriteLockAcquisitions() int64 { return sm.writeAcqs.Load() }
