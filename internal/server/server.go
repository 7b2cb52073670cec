// Package server exposes a LANDLORD cache manager as a JSON-over-HTTP
// site service — the paper's site-wide deployment path: "the same core
// functionality of LANDLORD could easily be adapted into a plugin for
// a site's batch system" (Section V). A batch system or pilot-job
// factory POSTs each job's specification and receives the image to run
// in; administrators read stats and trigger maintenance (prune)
// passes.
//
// The service runs a concurrent request pipeline: the cache is a
// core.ShardedManager — cache_shards independently locked shards
// (default 1), each serving hits under a shared read lock while merges,
// inserts, and maintenance serialize on that shard's write lock. Requests route to their shard by the hash of
// their package keys, so with more than one shard even slow-path
// traffic proceeds in parallel across shards. Read-only endpoints
// (/v1/stats, /v1/images, the cache gauges on /metrics) ride the read
// path and never block request traffic. Config.MaxInflight optionally
// bounds concurrently processed requests.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/pkggraph"
	"repro/internal/resilience"
	"repro/internal/spec"
	"repro/internal/telemetry"
)

// EventRingSize is how many request events the server retains for
// /v1/events.
const EventRingSize = 4096

// Server wraps a sharded concurrent cache behind an HTTP API. Create
// with Open, mount via Handler, stop with Close.
type Server struct {
	repo *pkggraph.Repo
	reg  *telemetry.Registry
	ring *telemetry.Ring // the /v1/events FIFO of recent requests

	// Per-request series the handler feeds once a request is served
	// (noteServed): latency by core.Op and the eviction-churn pair.
	opLatency    [3]*telemetry.Histogram
	evicted      *telemetry.Counter
	evictedBytes *telemetry.Counter

	// Span tracing (trace.go): every request is traced; the
	// tail-sampling ring keeps the slowest and the interesting ones.
	spans  *telemetry.SpanTracer
	traces *telemetry.TraceRing

	cmgr *core.ShardedManager
	// decoder reads /v1/request bodies (reqdecode.go), bounded by a
	// limit derived from repo.
	decoder *RequestDecoder
	// sem, when non-nil, bounds concurrently processed /v1/request
	// calls (Config.MaxInflight). Acquire = send, release = receive.
	sem chan struct{}
	// Durability (nil/zero without a store): the WAL+checkpoint store,
	// the checkpoint-every-N-requests threshold (0 compacts by WAL size,
	// see checkpointDue), the number of requests served since the last
	// successful checkpoint, the single-flight latch that keeps
	// concurrent threshold-crossers from piling up behind one
	// checkpoint, and the heal probe's stop.
	store     *persist.Store
	ckptEvery int
	sinceCkpt atomic.Int64
	ckptBusy  atomic.Bool
	stopProbe func()

	// Overload protection (resilience.go): optional admission control
	// (Config.Admission), and the serve-state machine
	// (healthy/shedding/degraded/recovering) driving /v1/readyz,
	// degraded-mode serving, and the state:* events.
	shedder *resilience.Shedder
	health  health
}

// Config is everything Open assembles a cache node from. Each field is
// a value the site file already carries; config.Site.ServerConfig
// builds it.
type Config struct {
	// Core configures the cache: shards, α, capacity, MinHash.
	Core core.Config
	// StateDir, when non-empty, makes the cache durable: Open opens the
	// store there with Persist and recovers the cache from it.
	StateDir string
	Persist  persist.Options
	// CheckpointEvery > 0 compacts the log after that many requests;
	// zero compacts it once its tail reaches one WAL segment or the last
	// checkpoint's size, whichever is larger. Close and POST
	// /v1/checkpoint compact in both cases.
	CheckpointEvery int
	// MaxInflight > 0 bounds how many /v1/request calls are processed
	// concurrently; excess requests queue.
	MaxInflight int
	// Admission arms admission control when its Rate or QueueDepth is
	// positive.
	Admission resilience.ShedderConfig
	// ProbeInterval > 0 runs the degraded-mode heal probe at that
	// cadence on a durable server.
	ProbeInterval time.Duration
}

// Open assembles a cache node: the cache (recovered from cfg.StateDir
// when set), its telemetry — every served request becomes one event in
// a bounded ring buffer (served by /v1/events) and one observation in
// the per-operation latency histograms — and the configured
// max-inflight bound, admission control and heal probe. The report is
// nil for a memory-only node. Close shuts the node down.
func Open(repo *pkggraph.Repo, cfg Config) (*Server, *persist.RecoveryReport, error) {
	if cfg.StateDir == "" {
		return open(repo, cfg, nil)
	}
	store, err := persist.Open(cfg.StateDir, cfg.Persist)
	if err != nil {
		return nil, nil, err
	}
	s, rep, err := open(repo, cfg, store)
	if err != nil {
		store.Close()
	}
	return s, rep, err
}

// New creates a memory-only Server over a fresh cache.
func New(repo *pkggraph.Repo, cfg core.Config) (*Server, error) {
	s, _, err := open(repo, Config{Core: cfg}, nil)
	return s, err
}

// open is the one assembly under Open, New and NewPersistent. With a
// store the cache is recovered from its checkpoint + WAL and the store
// becomes the cache's commit hook. Under a request-count cadence a
// replayed WAL tail is checkpointed at once, so the next restart starts
// from a compact log; under the size rule the replayed tail counts
// toward the threshold and the first request past it compacts. A tail
// recovery could not read whole (torn or corrupt) is checkpointed at
// once either way, so the next restart does not meet the damage again.
func open(repo *pkggraph.Repo, cfg Config, store *persist.Store) (*Server, *persist.RecoveryReport, error) {
	reg := telemetry.NewRegistry()
	s := &Server{repo: repo, reg: reg, ring: telemetry.NewRing(EventRingSize), store: store,
		ckptEvery: cfg.CheckpointEvery, decoder: NewRequestDecoder(reg, RequestBodyLimit(repo)),
		stopProbe: func() {}}
	var rep *persist.RecoveryReport
	var err error
	if store != nil {
		s.cmgr, rep, err = store.RecoverSharded(repo, cfg.Core)
	} else {
		s.cmgr, err = core.NewSharded(repo, cfg.Core)
	}
	if err != nil {
		return nil, nil, err
	}
	s.initTracing()
	s.registerRequestMetrics()
	s.registerCacheMetrics()
	s.registerShardMetrics()
	s.registerContentionMetrics()
	s.registerResilienceMetrics()
	if store != nil {
		store.RegisterMetrics(reg, rep)
		if s.ckptEvery > 0 && rep.RecordsReplayed > 0 || rep.TornTail || rep.CorruptSegments > 0 {
			if _, err := s.CheckpointNow(); err != nil {
				return nil, nil, err
			}
		}
		s.stopProbe = s.StartDegradedProbe(cfg.ProbeInterval)
	}
	if cfg.MaxInflight > 0 {
		s.setMaxInflight(cfg.MaxInflight)
	}
	if cfg.Admission.Rate > 0 || cfg.Admission.QueueDepth > 0 {
		s.setAdmission(cfg.Admission)
	}
	return s, rep, nil
}

// setMaxInflight bounds how many /v1/request calls are processed
// concurrently; excess requests queue on the semaphore (or fail with
// 503 when the client gives up first).
func (s *Server) setMaxInflight(n int) {
	sem := make(chan struct{}, n)
	s.sem = sem
	s.reg.GaugeFunc("landlord_inflight_requests",
		"Cache requests currently being processed (bounded by max_inflight)",
		func() float64 { return float64(len(sem)) })
}

// registerContentionMetrics exposes the concurrent pipeline's lock
// behaviour: time spent waiting for each lock path and how much
// traffic each path carried.
func (s *Server) registerContentionMetrics() {
	const name = "landlord_lock_wait_seconds"
	const help = "Time spent waiting to acquire the cache lock, by path"
	s.cmgr.SetLockWaitMetrics(
		s.reg.Histogram(name, help, telemetry.DefaultLatencyBuckets(),
			telemetry.Label{Key: "path", Value: "read"}),
		s.reg.Histogram(name, help, telemetry.DefaultLatencyBuckets(),
			telemetry.Label{Key: "path", Value: "write"}),
	)
	s.reg.GaugeFunc("landlord_read_path_hits_total",
		"Requests served entirely under the shared read lock",
		func() float64 { return float64(s.cmgr.ReadHits()) })
	s.reg.GaugeFunc("landlord_write_lock_acquisitions_total",
		"Exclusive cache lock acquisitions (misses, merges, inserts, maintenance)",
		func() float64 { return float64(s.cmgr.WriteLockAcquisitions()) })
}

// Registry returns the server's metrics registry, so embedding
// processes (the daemon, tests) can add their own series.
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// registerRequestMetrics creates the series noteServed feeds: one
// latency histogram per operation and the eviction-churn pair.
func (s *Server) registerRequestMetrics() {
	const name = "landlord_request_duration_seconds"
	const help = "Cache request latency by operation"
	for _, op := range []core.Op{core.OpHit, core.OpMerge, core.OpInsert} {
		s.opLatency[op] = s.reg.Histogram(name, help, telemetry.DefaultLatencyBuckets(),
			telemetry.Label{Key: "op", Value: op.String()})
	}
	s.evicted = s.reg.Counter("landlord_evicted_images_total", "Images evicted by LRU pressure")
	s.evictedBytes = s.reg.Counter("landlord_evicted_bytes_total", "Bytes evicted by LRU pressure")
}

// noteServed records one request the cache served: its latency d — the
// whole cache call, lock waits included — in its operation's histogram
// with the trace as exemplar (linking the tail buckets to retained
// traces), its eviction churn, and its /v1/events entry, the EventOf
// view over its Result and spans. It runs with no cache lock held and
// before the trace is finished.
func (s *Server) noteServed(sp spec.Spec, res core.Result, at *telemetry.ActiveTrace, d time.Duration) {
	s.opLatency[res.Op].ObserveExemplar(d.Seconds(), at.TraceID())
	if res.Evicted > 0 {
		s.evicted.Add(int64(res.Evicted))
		s.evictedBytes.Add(res.EvictedBytes)
	}
	s.ring.Add(core.EventOf(sp, res, at, d))
}

// registerCacheMetrics exposes the manager's counters and live cache
// state as scrape-time gauges, keeping the metric names the previous
// hand-rolled /metrics table served. Every gauge reads through the
// concurrent manager's read path, so a scrape never blocks request
// traffic on the write lock.
func (s *Server) registerCacheMetrics() {
	snap := func(f func(st core.Stats) float64) func() float64 {
		return func() float64 {
			return f(s.cmgr.Stats())
		}
	}
	s.reg.GaugeFunc("landlord_requests_total", "Job requests processed",
		snap(func(st core.Stats) float64 { return float64(st.Requests) }))
	s.reg.GaugeFunc("landlord_hits_total", "Requests served by an existing image",
		snap(func(st core.Stats) float64 { return float64(st.Hits) }))
	s.reg.GaugeFunc("landlord_merges_total", "Requests merged into an image",
		snap(func(st core.Stats) float64 { return float64(st.Merges) }))
	s.reg.GaugeFunc("landlord_inserts_total", "Requests creating a new image",
		snap(func(st core.Stats) float64 { return float64(st.Inserts) }))
	s.reg.GaugeFunc("landlord_deletes_total", "Images evicted",
		snap(func(st core.Stats) float64 { return float64(st.Deletes) }))
	s.reg.GaugeFunc("landlord_splits_total", "Images trimmed by prune passes",
		snap(func(st core.Stats) float64 { return float64(st.Splits) }))
	s.reg.GaugeFunc("landlord_bytes_written_total", "Image bytes written to the cache",
		snap(func(st core.Stats) float64 { return float64(st.BytesWritten) }))
	s.reg.GaugeFunc("landlord_requested_bytes_total", "Bytes directly requested by jobs",
		snap(func(st core.Stats) float64 { return float64(st.RequestedBytes) }))
	s.reg.GaugeFunc("landlord_images", "Images currently cached", func() float64 {
		return float64(s.cmgr.Len())
	})
	s.reg.GaugeFunc("landlord_cached_bytes", "Bytes currently cached", func() float64 {
		return float64(s.cmgr.TotalData())
	})
	s.reg.GaugeFunc("landlord_unique_bytes", "Deduplicated bytes currently cached", func() float64 {
		return float64(s.cmgr.UniqueData())
	})
	s.reg.GaugeFunc("landlord_cache_efficiency", "UniqueData/TotalData of the live cache", func() float64 {
		return s.cmgr.CacheEfficiency()
	})
}

// registerShardMetrics exposes the sharded core: per-shard residency
// and budget gauges (labelled by shard index) plus the eviction
// balancer's counters. With cache_shards=1 the series still exist —
// one shard whose budget is the whole capacity — so dashboards need no
// special case for sharded sites.
func (s *Server) registerShardMetrics() {
	for i := 0; i < s.cmgr.NumShards(); i++ {
		label := telemetry.Label{Key: "shard", Value: strconv.Itoa(i)}
		s.reg.GaugeFunc("landlord_cache_shard_images", "Images cached on this shard",
			func() float64 { images, _, _ := s.cmgr.ShardUsage(i); return float64(images) }, label)
		s.reg.GaugeFunc("landlord_cache_shard_bytes", "Bytes cached on this shard",
			func() float64 { _, bytes, _ := s.cmgr.ShardUsage(i); return float64(bytes) }, label)
		s.reg.GaugeFunc("landlord_cache_shard_budget_bytes",
			"This shard's byte budget (the balancer reshapes it; 0 = unlimited)",
			func() float64 { _, _, budget := s.cmgr.ShardUsage(i); return float64(budget) }, label)
	}
	bal := func(f func(st core.BalancerStats) float64) func() float64 {
		return func() float64 { return f(s.cmgr.BalancerStats()) }
	}
	s.reg.GaugeFunc("landlord_cache_rebalances_total", "Completed eviction-balancer passes",
		bal(func(st core.BalancerStats) float64 { return float64(st.Rebalances) }))
	s.reg.GaugeFunc("landlord_cache_rebalance_budget_moved_bytes_total",
		"Bytes of budget reassigned between shards by the balancer",
		bal(func(st core.BalancerStats) float64 { return float64(st.BudgetMoved) }))
	s.reg.GaugeFunc("landlord_cache_rebalance_evicted_images_total",
		"Images evicted by post-rebalance shrink passes",
		bal(func(st core.BalancerStats) float64 { return float64(st.Evicted) }))
	s.reg.GaugeFunc("landlord_cache_rebalance_evicted_bytes_total",
		"Bytes evicted by post-rebalance shrink passes",
		bal(func(st core.BalancerStats) float64 { return float64(st.EvictedBytes) }))
}

// RequestBody is the POST /v1/request payload.
type RequestBody struct {
	// Packages are the required package keys.
	Packages []string `json:"packages"`
	// Close adds the dependency closure before submission (the common
	// case; disable only for pre-closed specifications).
	Close bool `json:"close"`
}

// RequestResponse reports how the job's request was satisfied.
type RequestResponse struct {
	Op           string `json:"op"`
	ImageID      uint64 `json:"image_id"`
	ImageVersion uint64 `json:"image_version"`
	ImageSize    int64  `json:"image_size"`
	RequestBytes int64  `json:"request_bytes"`
	BytesWritten int64  `json:"bytes_written"`
	Evicted      int    `json:"evicted"`
	// Packages is the number of packages in the (possibly closed)
	// submitted specification.
	Packages int `json:"packages"`
}

// StatsResponse is the GET /v1/stats payload.
type StatsResponse struct {
	Requests            int64   `json:"requests"`
	Hits                int64   `json:"hits"`
	Merges              int64   `json:"merges"`
	Inserts             int64   `json:"inserts"`
	Deletes             int64   `json:"deletes"`
	Splits              int64   `json:"splits"`
	BytesWritten        int64   `json:"bytes_written"`
	RequestedBytes      int64   `json:"requested_bytes"`
	Images              int     `json:"images"`
	TotalData           int64   `json:"total_data"`
	UniqueData          int64   `json:"unique_data"`
	CacheEfficiency     float64 `json:"cache_efficiency"`
	ContainerEfficiency float64 `json:"container_efficiency"`
}

// ImageInfo is one row of GET /v1/images.
type ImageInfo struct {
	ID       uint64 `json:"id"`
	Version  uint64 `json:"version"`
	Size     int64  `json:"size"`
	Packages int    `json:"packages"`
	Merges   int    `json:"merges"`
}

// PruneBody is the POST /v1/prune payload.
type PruneBody struct {
	MaxUtilization float64 `json:"max_utilization"`
	MinServed      int     `json:"min_served"`
}

// SplitInfo is one split performed by a prune pass.
type SplitInfo struct {
	ImageID      uint64 `json:"image_id"`
	OldSize      int64  `json:"old_size"`
	NewSize      int64  `json:"new_size"`
	BytesWritten int64  `json:"bytes_written"`
}

// errorBody is the uniform error payload.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// Handler returns the service's HTTP routes, each wrapped in
// per-route request/latency/status instrumentation.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	routes := map[string]http.HandlerFunc{
		"/v1/request":    s.handleRequest,
		"/v1/stats":      s.handleStats,
		"/v1/checkpoint": s.handleCheckpoint,
		"/v1/images":     s.handleImages,
		"/v1/prune":      s.handlePrune,
		"/v1/snapshot":   s.handleSnapshot,
		"/v1/restore":    s.handleRestore,
		"/v1/healthz":    s.handleHealthz,
		"/v1/readyz":     s.handleReadyz,
		"/v1/events":     s.handleEvents,
		"/v1/trace":      s.handleTrace,
		"/v1/trace/":     s.handleTrace,
		"/v1/warm":       s.handleWarm,
		"/metrics":       s.handleMetrics,
	}
	for route, h := range routes {
		mux.Handle(route, telemetry.Middleware(s.reg, route, h))
	}
	return mux
}

// handleSnapshot returns the cache's images for external persistence,
// so a site can survive daemon restarts (the HTTP face of
// core.Snapshot/Restore used by the cmd/landlord wrapper): the merged
// state's image list, in last-use order, read under the shared locks.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	writeJSON(w, http.StatusOK, s.cmgr.ExportState().Images)
}

// handleRestore loads a previously saved snapshot. Like core.Restore
// it only applies to an empty cache: restoring over live images would
// interleave two cache histories.
func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var snaps []core.ImageSnapshot
	if err := json.NewDecoder(r.Body).Decode(&snaps); err != nil {
		writeError(w, http.StatusBadRequest, "decoding snapshot: %v", err)
		return
	}
	// Restore is not WAL-logged (it rewrites the whole state), so
	// checkpoint immediately — still inside the restore's all-shard
	// critical section — to close the durability hole. Checkpoint
	// failure is tolerable: the in-memory restore succeeded, and
	// recovery skips WAL records that reference the missing images.
	err := s.cmgr.RestoreThen(snaps, func(ms []*core.Manager) {
		if s.store != nil {
			s.checkpointAll(ms)
		}
	})
	if err != nil {
		writeError(w, http.StatusConflict, "restore: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"images": len(snaps)})
}

// handleHealthz is liveness: 200 for as long as the process can answer
// HTTP at all, including while recovering or degraded. Supervisors
// restart on liveness failures; a degraded-but-healing daemon must not
// be restarted out of its heal. Readiness lives at /v1/readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleRequest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	// Every request is span-traced (tail sampling decides retention at
	// the end). The trace continues a propagated X-Landlord-Trace
	// header when present, and the response echoes this hop's context
	// so the caller can correlate.
	at := s.startTrace(r)
	if at != nil {
		w.Header().Set(telemetry.TraceHeaderName,
			telemetry.FormatTraceHeader(at.TraceID(), at.Root()))
	}
	outcome, errMsg, seq := s.serveRequest(w, r, at)
	at.Finish(outcome, errMsg, seq)
}

// serveRequest is the traced body of handleRequest. It returns the
// trace outcome ("hit"/"merge"/"insert" for served requests, "shed",
// "degraded", "timeout", "canceled", or "error" otherwise), the error
// message for the trace, and the request's linearization Seq.
func (s *Server) serveRequest(w http.ResponseWriter, r *http.Request, at *telemetry.ActiveTrace) (string, string, uint64) {
	// Admission control runs before anything queues: a shed response
	// costs microseconds and a Retry-After, an admitted request holds a
	// connection, a semaphore slot, and eventually the cache lock.
	if s.shedder != nil {
		adm := at.Begin(telemetry.StageAdmission, at.Root())
		release, reason := s.shedder.Admit()
		if release == nil {
			at.AttrStr(adm, "decision", "shed")
			at.End(adm)
			s.noteShed()
			retry := s.shedder.RetryAfter(reason)
			w.Header().Set("Retry-After", strconv.Itoa(int((retry+time.Second-1)/time.Second)))
			writeError(w, http.StatusTooManyRequests, "overloaded: shedding by %s", reason)
			return "shed", fmt.Sprintf("overloaded: shedding by %s", reason), 0
		}
		at.AttrStr(adm, "decision", "admit")
		at.End(adm)
		defer release()
		s.noteAdmit()
	}
	dls := at.Begin(telemetry.StageDeadline, at.Root())
	ctx, cancel := requestContext(r)
	defer cancel()
	if _, ok := ctx.Deadline(); ok {
		at.AttrInt(dls, "present", 1)
	} else {
		at.AttrInt(dls, "present", 0)
	}
	at.End(dls)
	// The trace rides the context from here down: the concurrent
	// manager, the core algorithm, and the commit hook all record into
	// it.
	ctx = telemetry.ContextWithTrace(ctx, at)
	if s.sem != nil {
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		case <-ctx.Done():
			writeError(w, http.StatusServiceUnavailable, "server at max_inflight and client gave up: %v", ctx.Err())
			return "shed", "max_inflight queue abandoned: " + ctx.Err().Error(), 0
		}
	}
	sp, errMsg := s.requestSpec(w, r, at)
	if errMsg != "" {
		return "error", errMsg, 0
	}

	// Degraded mode: while the store is failing, mutations cannot be
	// made durable, so the cache goes read-only — superset hits on
	// untainted images are answered from memory with zero mutation
	// (PeekHit bumps no clock, writes no stats, drops no WAL record),
	// everything else is refused. This is the invariant the chaos
	// harness audits: a degraded server never acks state recovery
	// cannot rebuild.
	if s.store != nil && s.store.Err() != nil {
		s.noteDegraded()
		return s.serveDegraded(w, sp)
	}

	start := time.Now()
	res, err := s.cmgr.RequestCtx(ctx, sp)
	took := time.Since(start)
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			writeError(w, http.StatusGatewayTimeout, "deadline exceeded before the cache mutated: %v", err)
			return "timeout", err.Error(), 0
		case errors.Is(err, context.Canceled):
			writeError(w, http.StatusServiceUnavailable, "client gave up: %v", err)
			return "canceled", err.Error(), 0
		default:
			writeError(w, http.StatusInternalServerError, "request failed: %v", err)
			return "error", err.Error(), 0
		}
	}
	s.noteServed(sp, res, at, took)
	s.maybeCheckpoint()
	if s.store != nil {
		// Group-commit barrier: the request's WAL records must be on
		// stable storage before the acknowledgement (under fsync=always;
		// a no-op otherwise). Called with no cache locks held, so one
		// leader's fsync covers every request in flight.
		fss := at.Begin(telemetry.StageFsyncWait, at.Root())
		err := s.store.WaitDurable()
		at.End(fss)
		if err != nil {
			// Durability failed under this request's feet. Refuse to ack
			// anything the WAL lost: inserts/merges are gone, and even a
			// hit is unsafe if the image it names was never made durable.
			s.noteDegraded()
			if res.Op == core.OpHit && !s.store.Tainted(res.ImageID) {
				s.writeDegradedHit(w, res, sp.Len())
				return "degraded", "", res.Seq
			}
			writeError(w, http.StatusServiceUnavailable,
				"durability lost before acknowledgement (%s of image %d not persisted): %v",
				res.Op, res.ImageID, err)
			return "degraded", err.Error(), res.Seq
		}
	}
	writeJSON(w, http.StatusOK, RequestResponse{
		Op:           res.Op.String(),
		ImageID:      res.ImageID,
		ImageVersion: res.ImageVersion,
		ImageSize:    res.ImageSize,
		RequestBytes: res.RequestBytes,
		BytesWritten: res.BytesWritten,
		Evicted:      res.Evicted,
		Packages:     sp.Len(),
	})
	return res.Op.String(), "", res.Seq
}

// requestSpec decodes the request body into the specification to
// submit. A body it cannot use has been answered (413 or 400) when it
// returns a non-empty error message. The order of the refusals is part
// of the API: undecodable, then empty, then the first unknown package.
func (s *Server) requestSpec(w http.ResponseWriter, r *http.Request, at *telemetry.ActiveTrace) (spec.Spec, string) {
	dec, err := s.decoder.Decode(w, r, at, at.Root())
	if err != nil {
		status, msg := DecodeFailure(err)
		writeError(w, status, "%s", msg)
		return spec.Spec{}, msg
	}
	defer dec.Release()
	if len(dec.Keys) == 0 {
		writeError(w, http.StatusBadRequest, "no packages in specification")
		return spec.Spec{}, "no packages in specification"
	}
	ids, unknown := dec.Resolve(s.repo)
	if unknown != nil {
		msg := fmt.Sprintf("unknown package %q", unknown)
		writeError(w, http.StatusBadRequest, "%s", msg)
		return spec.Spec{}, msg
	}
	if dec.Close {
		return spec.WithClosure(s.repo, ids), ""
	}
	return spec.New(ids), ""
}

// serveDegraded answers a /v1/request while the store is failing.
func (s *Server) serveDegraded(w http.ResponseWriter, sp spec.Spec) (string, string, uint64) {
	res, ok := s.cmgr.PeekHit(sp)
	if ok && !s.store.Tainted(res.ImageID) {
		s.writeDegradedHit(w, res, sp.Len())
		return "degraded", "", 0
	}
	w.Header().Set("Retry-After", "1")
	w.Header().Set(DegradedHeader, "1")
	writeError(w, http.StatusServiceUnavailable,
		"degraded: durability lost (%v); serving read-only until healed", s.store.Err())
	return "degraded", s.store.Err().Error(), 0
}

// writeDegradedHit acks a hit that is safe despite the failing store:
// the image's existence is already durable and a lost LRU touch
// cannot violate recovery.
func (s *Server) writeDegradedHit(w http.ResponseWriter, res core.Result, packages int) {
	w.Header().Set(DegradedHeader, "1")
	writeJSON(w, http.StatusOK, RequestResponse{
		Op:           res.Op.String(),
		ImageID:      res.ImageID,
		ImageVersion: res.ImageVersion,
		ImageSize:    res.ImageSize,
		RequestBytes: res.RequestBytes,
		Packages:     packages,
	})
}

// StatsNow snapshots the cache's aggregate state — the /v1/stats
// payload — for callers embedding the server (the daemon logs it
// periodically and on shutdown). It reads with every shard quiescent
// under shared locks, so the snapshot is internally consistent across
// shards but never blocks requests for long.
func (s *Server) StatsNow() StatsResponse {
	var out StatsResponse
	s.cmgr.WithSharedAll(func(ms []*core.Manager) {
		st := core.MergedStats(ms)
		var images int
		var total int64
		for _, m := range ms {
			images += m.Len()
			total += m.TotalData()
		}
		unique := core.UnionData(ms)
		eff := 1.0
		if total > 0 {
			eff = float64(unique) / float64(total)
		}
		out = StatsResponse{
			Requests:            st.Requests,
			Hits:                st.Hits,
			Merges:              st.Merges,
			Inserts:             st.Inserts,
			Deletes:             st.Deletes,
			Splits:              st.Splits,
			BytesWritten:        st.BytesWritten,
			RequestedBytes:      st.RequestedBytes,
			Images:              images,
			TotalData:           total,
			UniqueData:          unique,
			CacheEfficiency:     eff,
			ContainerEfficiency: st.MeanContainerEfficiency(),
		}
	})
	return out
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	writeJSON(w, http.StatusOK, s.StatsNow())
}

// ImagesNow lists the cached images for callers embedding the server:
// the fleet agent rebuilds its gossip directory from it every
// heartbeat. Reads ride the shared lock and never block requests.
func (s *Server) ImagesNow() []ImageInfo {
	imgs := s.cmgr.Images()
	out := make([]ImageInfo, 0, len(imgs))
	for _, img := range imgs {
		out = append(out, ImageInfo{
			ID:       img.ID,
			Version:  img.Version,
			Size:     img.Size,
			Packages: img.Spec.Len(),
			Merges:   img.Merges,
		})
	}
	return out
}

func (s *Server) handleImages(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	writeJSON(w, http.StatusOK, s.ImagesNow())
}

func (s *Server) handlePrune(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var body PruneBody
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	splits, err := s.cmgr.Prune(body.MaxUtilization, body.MinServed)
	if err != nil {
		writeError(w, http.StatusBadRequest, "prune: %v", err)
		return
	}
	out := make([]SplitInfo, 0, len(splits))
	for _, sp := range splits {
		out = append(out, SplitInfo{
			ImageID:      sp.ImageID,
			OldSize:      sp.OldSize,
			NewSize:      sp.NewSize,
			BytesWritten: sp.BytesWritten,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleMetrics exposes the telemetry registry in the Prometheus text
// exposition format, so site monitoring can scrape the cache without
// bespoke integration: the legacy cache counters plus request-latency
// histograms and the per-route HTTP series. OpenMetrics output — with
// bucket exemplars linking latency buckets to trace IDs — is served
// when the scraper asks for it (Accept: application/openmetrics-text
// or ?exemplars=1); plain 0.0.4 scrapes stay byte-compatible.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	if strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text") ||
		r.URL.Query().Get("exemplars") == "1" {
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		s.reg.WriteOpenMetrics(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.reg.WriteText(w)
}

// handleEvents serves the most recent request events from the trace
// ring buffer, oldest first. `?limit=N` bounds the response to the N
// most recent events and `?outcome=hit|merge|insert` filters by
// operation.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	limit := 0 // 0 = everything retained
	if q := r.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "limit must be a non-negative integer")
			return
		}
		if n == 0 {
			writeJSON(w, http.StatusOK, []telemetry.Event{})
			return
		}
		limit = n
	}
	outcome := r.URL.Query().Get("outcome")
	switch outcome {
	case "", "hit", "merge", "insert":
	default:
		writeError(w, http.StatusBadRequest, "outcome must be one of hit, merge, insert")
		return
	}
	events := s.ring.EventsWhere(outcome, limit)
	if events == nil {
		events = []telemetry.Event{}
	}
	writeJSON(w, http.StatusOK, events)
}

// PruneNow runs one maintenance split pass, for the daemon's
// background scheduler. Invalid parameters are treated as a no-op pass
// (the daemon validated its configuration at startup).
func (s *Server) PruneNow(maxUtilization float64, minServed int) int {
	splits, err := s.cmgr.Prune(maxUtilization, minServed)
	if err != nil {
		return 0
	}
	return len(splits)
}

// RebalanceNow runs one eviction-balancer pass, reshaping the
// per-shard byte budgets toward the current load and shrinking any
// shard left over its new budget. A no-op for single-shard or
// unlimited caches; the daemon calls it on its maintenance cadence.
// Returns the cumulative balancer counters.
func (s *Server) RebalanceNow() core.BalancerStats {
	return s.cmgr.Rebalance()
}
