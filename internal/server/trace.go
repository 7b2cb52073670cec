package server

import (
	"net/http"
	"strconv"
	"strings"

	"repro/internal/telemetry"
)

// Trace-ring retention: the slowest TraceRingSlow requests plus up to
// TraceRingInteresting error/shed/degraded traces. Tail sampling is
// always on — the decision to keep a trace is made at its end, when
// its duration and outcome are known, so the p99 stragglers and every
// failure survive while the fast bulk is dropped.
const (
	TraceRingSlow        = 64
	TraceRingInteresting = 64
)

// initTracing wires the span pipeline into a freshly constructed
// server: the tail-sampling ring, the tracer feeding it, and the
// retention metrics.
func (s *Server) initTracing() {
	s.traces = telemetry.NewTraceRing(TraceRingSlow, TraceRingInteresting)
	s.spans = telemetry.NewSpanTracer(s.traces)
	s.reg.GaugeFunc("landlord_traces_started_total",
		"Request traces started (tail sampling traces every request)",
		func() float64 { return float64(s.spans.Started()) })
	s.reg.GaugeFunc("landlord_trace_ring_kept",
		"Traces currently retained by the tail-sampling ring",
		func() float64 { return float64(s.traces.Kept()) })
}

// SpanTracer returns the server's span tracer. Harnesses inject a
// deterministic clock and ID generator through it.
func (s *Server) SpanTracer() *telemetry.SpanTracer { return s.spans }

// TraceRing returns the tail-sampling trace ring backing /v1/trace.
func (s *Server) TraceRing() *telemetry.TraceRing { return s.traces }

// startTrace begins the span trace for one request, continuing a
// propagated trace when the client sent a valid X-Landlord-Trace
// header and minting a fresh ID otherwise.
func (s *Server) startTrace(r *http.Request) *telemetry.ActiveTrace {
	if s.spans == nil {
		return nil
	}
	id, parent, ok := telemetry.ParseTraceHeader(r.Header.Get(telemetry.TraceHeaderName))
	if !ok {
		return s.spans.Start(0, 0)
	}
	return s.spans.Start(id, parent)
}

// handleTrace serves GET /v1/trace (the ring dump, slowest first,
// `?limit=N` bounds it) and GET /v1/trace/{id} (one trace by its
// 16-hex-digit ID).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	if rest := strings.TrimPrefix(r.URL.Path, "/v1/trace"); rest != "" && rest != "/" {
		s.handleTraceByID(w, strings.TrimPrefix(rest, "/"))
		return
	}
	limit := 0
	if q := r.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "limit must be a non-negative integer")
			return
		}
		limit = n
	}
	dump := s.traces.Dump(limit)
	if dump == nil {
		dump = []telemetry.Trace{}
	}
	writeJSON(w, http.StatusOK, dump)
}

func (s *Server) handleTraceByID(w http.ResponseWriter, idStr string) {
	id, err := telemetry.ParseTraceID(idStr)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad trace id: %v", err)
		return
	}
	t, ok := s.traces.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "trace %s not retained (the ring keeps the slowest %d plus %d interesting)",
			id, TraceRingSlow, TraceRingInteresting)
		return
	}
	writeJSON(w, http.StatusOK, t)
}
