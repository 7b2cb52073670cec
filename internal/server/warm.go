package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/core"
	"repro/internal/pkggraph"
	"repro/internal/spec"
)

// Cache warming for drain handoff: /v1/warm lets a draining fleet
// agent push its hot specs to the rendezvous successor. ExportState
// exposes the cache to callers embedding the server.

// ExportState captures the full cache state with the cache quiescent
// for reading (read lock plus hitMu): no commit is in flight while the
// state is read — the live side of a recovery byte-identity audit —
// and no write lock is taken, so the agent's per-beat directory refresh
// stays on the read path. Its Images are the /v1/snapshot body.
func (s *Server) ExportState() core.ManagerState {
	return s.cmgr.ExportState()
}

// WarmRequest is the POST /v1/warm payload: specs to pre-load, each a
// package-key list, optionally closed server-side.
type WarmRequest struct {
	Specs [][]string `json:"specs"`
	Close bool       `json:"close"`
}

// WarmResponse reports how many specs were warmed.
type WarmResponse struct {
	Warmed int `json:"warmed"`
}

// WarmSpec runs one spec through the cache pipeline without a client
// waiting on the image — the warm-handoff path. Unknown packages are
// an error; a degraded store refuses (warming must not create state
// that recovery cannot rebuild).
func (s *Server) WarmSpec(ctx context.Context, packages []string, close bool) error {
	if len(packages) == 0 {
		return fmt.Errorf("server: empty warm spec")
	}
	ids := make([]pkggraph.PkgID, 0, len(packages))
	for _, key := range packages {
		id, ok := s.repo.Lookup(key)
		if !ok {
			return fmt.Errorf("server: unknown package %q", key)
		}
		ids = append(ids, id)
	}
	var sp spec.Spec
	if close {
		sp = spec.WithClosure(s.repo, ids)
	} else {
		sp = spec.New(ids)
	}
	if s.store != nil && s.store.Err() != nil {
		return fmt.Errorf("server: degraded, refusing warm: %v", s.store.Err())
	}
	if _, err := s.cmgr.RequestCtx(ctx, sp); err != nil {
		return err
	}
	s.maybeCheckpoint()
	if s.store != nil {
		return s.store.WaitDurable()
	}
	return nil
}

// handleWarm pre-loads a batch of specs (POST /v1/warm) so a departing
// agent's keyspace arrives hot at its successor. Per-spec failures
// abort the batch: a partially warmed successor is still strictly
// warmer than before, and the sender reports the refusal
// (fleet.HandoffError) rather than retrying it.
func (s *Server) handleWarm(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var body WarmRequest
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		writeError(w, http.StatusBadRequest, "decoding warm request: %v", err)
		return
	}
	ctx, cancel := requestContext(r)
	defer cancel()
	warmed := 0
	for _, pkgs := range body.Specs {
		if err := s.WarmSpec(ctx, pkgs, body.Close); err != nil {
			writeError(w, http.StatusServiceUnavailable, "warm (%d of %d applied): %v", warmed, len(body.Specs), err)
			return
		}
		warmed++
	}
	writeJSON(w, http.StatusOK, WarmResponse{Warmed: warmed})
}
