package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/pkggraph"
	"repro/internal/spec"
)

// Replication and cache warming: the server side of the HA layer.
//
// EnableReplication republishes every WAL record the store commits
// into a persist.Streamer, served at /ha/v1/wal with checkpoint
// resync at /ha/v1/checkpoint, so read replicas follow the live WAL
// instead of polling snapshots. /v1/warm lets a draining fleet agent push its hot specs
// to the rendezvous successor — the warm-handoff half of the HA
// design.

// EnableReplication attaches a WAL streamer with stream identity id.
// Requires a durable server (one with a state dir); call before Handler
// and before serving traffic.
func (s *Server) EnableReplication(id uint64) error {
	if s.store == nil {
		return fmt.Errorf("server: replication requires a persistent store")
	}
	str := persist.NewStreamer(id, func() ([]byte, uint64, error) {
		var payload []byte
		var next uint64
		var err error
		// All shards exclusively held: no commit — and therefore no
		// Publish — is in flight, so the captured state and the stream
		// position agree exactly.
		s.cmgr.WithExclusiveAll(func(ms []*core.Manager) {
			next = s.streamer.Next()
			payload, err = json.Marshal(persist.StreamCheckpoint{
				Next:  next,
				State: core.MergedState(ms),
			})
		})
		return payload, next, err
	})
	s.streamer = str
	s.store.SetTap(func(payload []byte) {
		str.Publish(payload)
	})
	return nil
}

// Streamer returns the replication streamer (nil unless
// EnableReplication was called), for embedding processes that ship
// the stream themselves.
func (s *Server) Streamer() *persist.Streamer { return s.streamer }

// ExportState captures the full cache state with every shard
// exclusively held — the primary side of a replica byte-identity
// audit. Quiescent only in the sense that no commit is in flight while
// the state is read.
func (s *Server) ExportState() core.ManagerState {
	var st core.ManagerState
	s.cmgr.WithExclusiveAll(func(ms []*core.Manager) {
		st = core.MergedState(ms)
	})
	return st
}

func (s *Server) handleStreamWAL(w http.ResponseWriter, r *http.Request) {
	s.streamer.ServeWAL(w, r)
}

func (s *Server) handleStreamCheckpoint(w http.ResponseWriter, r *http.Request) {
	s.streamer.ServeCheckpoint(w, r)
}

// SnapshotNow returns the cache's image snapshots for callers
// embedding the server — the fleet agent joins it with ImagesNow to
// gossip each image's package set.
func (s *Server) SnapshotNow() []core.ImageSnapshot {
	return s.cmgr.Snapshot()
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
// warmer than before, and the sender treats handoff as best-effort.
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
