package server

import (
	"errors"
	"net/http"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/pkggraph"
	"repro/internal/telemetry"
)

// NewPersistent creates a Server whose cache state is durable: the
// manager is recovered from the store's checkpoint + WAL, the store is
// installed as the manager's commit hook, and the durability metrics
// join the server's registry. checkpointEvery > 0 compacts the log
// after that many requests; zero leaves checkpointing to shutdown and
// explicit POST /v1/checkpoint calls.
//
// If recovery replayed a WAL tail, the state is checkpointed
// immediately, so the next restart starts from a compact log.
func NewPersistent(repo *pkggraph.Repo, cfg core.Config, store *persist.Store, checkpointEvery int) (*Server, *persist.RecoveryReport, error) {
	reg := telemetry.NewRegistry()
	ring := telemetry.NewRing(EventRingSize)
	cfg.Tracer = telemetry.Multi(cfg.Tracer, ring, newOpTracer(reg))
	sm, rep, err := store.RecoverSharded(repo, cfg)
	if err != nil {
		return nil, nil, err
	}
	s := &Server{repo: repo, reg: reg, ring: ring, cmgr: sm, store: store, ckptEvery: checkpointEvery,
		decoder: NewRequestDecoder(reg, RequestBodyLimit(repo))}
	s.initTracing()
	s.registerCacheMetrics()
	s.registerShardMetrics()
	s.registerContentionMetrics()
	s.registerResilienceMetrics()
	store.RegisterMetrics(reg, rep)
	if rep.RecordsReplayed > 0 {
		var ckptErr error
		sm.WithExclusiveAll(func(ms []*core.Manager) {
			_, ckptErr = store.Checkpoint(core.MergedState(ms))
		})
		if ckptErr != nil {
			return nil, nil, ckptErr
		}
	}
	return s, rep, nil
}

var errNoStore = errors.New("server: no persistence configured")

// CheckpointNow durably checkpoints the cache state and compacts the
// WAL. It fails with an error when the server was built without a
// store (New rather than NewPersistent).
func (s *Server) CheckpointNow() (persist.CheckpointInfo, error) {
	if s.store == nil {
		return persist.CheckpointInfo{}, errNoStore
	}
	var info persist.CheckpointInfo
	var err error
	s.cmgr.WithExclusiveAll(func(ms []*core.Manager) {
		info, err = s.checkpointAll(ms)
	})
	return info, err
}

// checkpointAll runs a checkpoint of the merged shard states; the
// caller holds every shard's write lock (WithExclusiveAll), so no
// mutation can slip between exporting the state and sealing the WAL
// segment. The request counter resets only on success: a failed
// checkpoint (full disk) is retried at the next threshold crossing.
func (s *Server) checkpointAll(ms []*core.Manager) (persist.CheckpointInfo, error) {
	if s.store == nil {
		return persist.CheckpointInfo{}, errNoStore
	}
	info, err := s.store.Checkpoint(core.MergedState(ms))
	if err == nil {
		s.sinceCkpt.Store(0)
	}
	return info, err
}

// maybeCheckpoint is the per-request compaction trigger, called after
// each successful request with no locks held. The counter is atomic
// and the checkpoint itself is single-flight: the first goroutine over
// the threshold takes the latch and runs the checkpoint (briefly
// freezing the cache via the write lock); everyone else keeps serving.
// Errors are not fatal to the request that tripped the threshold — the
// WAL keeps the state recoverable, the checkpoint-age metric exposes
// the stall, and a later request retries.
func (s *Server) maybeCheckpoint() {
	if s.store == nil || s.ckptEvery <= 0 {
		return
	}
	if s.sinceCkpt.Add(1) < int64(s.ckptEvery) {
		return
	}
	if !s.ckptBusy.CompareAndSwap(false, true) {
		return
	}
	defer s.ckptBusy.Store(false)
	// Re-check under the latch: a checkpoint that completed while we
	// were acquiring it has already reset the counter.
	if s.sinceCkpt.Load() < int64(s.ckptEvery) {
		return
	}
	s.CheckpointNow()
}

// handleCheckpoint is POST /v1/checkpoint: durably checkpoint now.
// Operators call it before planned maintenance; 412 means the daemon
// runs without a state directory.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	info, err := s.CheckpointNow()
	if errors.Is(err, errNoStore) {
		writeError(w, http.StatusPreconditionFailed, "%v", err)
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, "checkpoint: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// RecoveringHandler serves the daemon's startup window while it
// replays its WAL: liveness (/v1/healthz) answers 200 — the process
// is up and must not be restarted mid-replay — while readiness
// (/v1/readyz) and every serving route answer 503 with Retry-After,
// so load balancers and clients (whose GETs retry on 503) hold off
// instead of seeing connection errors.
func RecoveringHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/healthz" {
			writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "state": "recovering"})
			return
		}
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "recovering"})
	})
}
