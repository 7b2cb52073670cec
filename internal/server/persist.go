package server

import (
	"errors"
	"fmt"
	"net/http"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/pkggraph"
)

// NewPersistent creates a Server whose cache state is durable over an
// already opened store: Open's assembly with only the core config and
// the checkpoint cadence set.
func NewPersistent(repo *pkggraph.Repo, cfg core.Config, store *persist.Store, checkpointEvery int) (*Server, *persist.RecoveryReport, error) {
	return open(repo, Config{Core: cfg, CheckpointEvery: checkpointEvery}, store)
}

// Close shuts the node down: it stops the heal probe, checkpoints a
// durable cache — so the next Open recovers from a compact log — and
// closes its store. It returns that final checkpoint; a memory-only
// server has nothing to seal and returns the zero CheckpointInfo.
func (s *Server) Close() (persist.CheckpointInfo, error) {
	s.stopProbe()
	if s.store == nil {
		return persist.CheckpointInfo{}, nil
	}
	info, err := s.CheckpointNow()
	if err != nil {
		err = fmt.Errorf("final checkpoint failed (WAL remains authoritative): %w", err)
	}
	if cerr := s.store.Close(); cerr != nil {
		err = errors.Join(err, fmt.Errorf("closing state store: %w", cerr))
	}
	return info, err
}

var errNoStore = errors.New("server: no persistence configured")

// CheckpointNow durably checkpoints the cache state and compacts the
// WAL. It fails with an error when the server has no store.
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
// segment. The request counter (and the store's tail) resets only on
// success: a failed checkpoint (full disk) is retried at the next
// threshold crossing.
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
// each successful request with no locks held. The threshold test is
// lock-free and the checkpoint itself is single-flight: the first
// goroutine over the threshold takes the latch and runs the checkpoint
// inline, paying for it in its own latency; other threshold-crossers
// skip it rather than queue behind it. The checkpoint holds every
// shard's write lock (CheckpointNow), so requests arriving meanwhile —
// hits included — wait for it too. Errors are not fatal to the request
// that tripped the threshold — the WAL keeps the state recoverable,
// the checkpoint-age metric exposes the stall, and a later request
// retries.
func (s *Server) maybeCheckpoint() {
	if s.store == nil {
		return
	}
	if s.ckptEvery > 0 {
		s.sinceCkpt.Add(1)
	}
	if !s.checkpointDue() || !s.ckptBusy.CompareAndSwap(false, true) {
		return
	}
	defer s.ckptBusy.Store(false)
	// Re-check under the latch: a checkpoint that completed while we
	// were acquiring it has already reset the threshold.
	if s.checkpointDue() {
		s.CheckpointNow()
	}
}

// checkpointDue is the compaction rule. A positive CheckpointEvery
// compacts after that many requests. Otherwise the log compacts by
// size, once its tail — the bytes written since the last checkpoint,
// plus the tail a restart replayed — reaches one WAL segment or the
// last checkpoint's size, whichever is larger. Segment-sized tails keep
// the state directory at about one checkpoint and two segments; a
// checkpoint never costs more bytes than the tail it retires.
func (s *Server) checkpointDue() bool {
	if s.ckptEvery > 0 {
		return s.sinceCkpt.Load() >= int64(s.ckptEvery)
	}
	tail, ckpt, segment := s.store.LogBytes()
	return tail >= max(segment, ckpt)
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
