// Package telemetry is the observability layer for the LANDLORD cache:
// span traces, structured per-request events, a metrics registry with
// Prometheus text exposition, and HTTP instrumentation middleware.
//
// The paper's evaluation is entirely about *operational* behaviour —
// where α sits in the 0.65–0.95 zone, how often merges beat inserts,
// how much eviction churn the cache endures — so the production
// deployment needs the same visibility at runtime that the simulation
// harness has offline. Everything here is stdlib-only and
// pay-for-what-you-use: an untraced request (nil *ActiveTrace) pays
// one branch per span site, and metric updates are single atomic
// operations.
//
// The pieces:
//
//   - Spans: the one per-request record. core records each phase of
//     Algorithm 1 on the request's ActiveTrace, with the scan detail
//     as span attributes; the tail-sampling TraceRing retains some.
//   - Event: a flat view of one request, built at the edge from the
//     cache's result and the request's spans (core.EventOf). Sinks are
//     a JSONL writer for offline analysis and a bounded Ring served by
//     the daemon's /v1/events endpoint.
//   - Registry: counters, gauges, and log-bucketed histograms with
//     lock-cheap updates, exposed in the Prometheus text format.
//   - Middleware: per-route HTTP request/latency/status instrumentation
//     around an http.Handler.
package telemetry

import (
	"encoding/json"
	"io"
	"sync"
)

// Candidate is one merge candidate examined by Algorithm 1's phase 2,
// with its exact Jaccard distance from the request.
type Candidate struct {
	ImageID  uint64  `json:"image_id"`
	Distance float64 `json:"distance"`
}

// Event is one request's journey through the cache manager: which
// branch of Algorithm 1 satisfied it, how much work the scans did, and
// what it cost. It is a view over one successful request: core.EventOf
// builds it from the request's Result and its spans.
type Event struct {
	// Seq is the manager's logical clock at the request (1-based).
	Seq uint64 `json:"seq"`
	// Op is the outcome: "hit", "merge", or "insert".
	Op string `json:"op"`

	// SpecPackages and RequestBytes size the submitted specification.
	SpecPackages int   `json:"spec_packages"`
	RequestBytes int64 `json:"request_bytes"`

	// ImageID/ImageVersion/ImageSize identify the image that served the
	// request (after any merge).
	ImageID      uint64 `json:"image_id"`
	ImageVersion uint64 `json:"image_version"`
	ImageSize    int64  `json:"image_size"`
	// BytesWritten is the image bytes written by this request (zero for
	// a hit; the whole rewritten image for a merge or insert).
	BytesWritten int64 `json:"bytes_written"`

	// SupersetScanned counts images examined by the phase-1 superset
	// scan before it concluded.
	SupersetScanned int `json:"superset_scanned"`
	// PrefilterAccepted/PrefilterRejected count images the MinHash
	// prefilter passed to (or spared from) exact distance computation
	// in phase 2. Both are zero when the prefilter is disabled or the
	// request hit in phase 1.
	PrefilterAccepted int `json:"prefilter_accepted"`
	PrefilterRejected int `json:"prefilter_rejected"`
	// Candidates are the merge candidates under α, closest first when
	// candidate sorting is enabled, each with its exact distance.
	Candidates []Candidate `json:"candidates,omitempty"`

	// Evicted/EvictedBytes account the LRU evictions this request
	// triggered.
	Evicted      int   `json:"evicted"`
	EvictedBytes int64 `json:"evicted_bytes"`

	// CachedBytes and Images snapshot the cache after the request.
	CachedBytes int64 `json:"cached_bytes"`
	Images      int   `json:"images"`

	// DurationNanos is the wall-clock cost of the whole cache call, lock
	// waits included, as timed by the caller.
	DurationNanos int64 `json:"duration_ns"`

	// TraceID links the event to its span trace when the request was
	// traced (zero otherwise).
	TraceID TraceID `json:"trace_id,omitempty"`
}

// JSONLSink writes each event as one JSON line, the trace format the
// analysis tooling (and `landlord-sim -events`) consumes. Safe for
// concurrent use; the first write error is retained and subsequent
// events are dropped.
type JSONLSink struct {
	mu  sync.Mutex
	enc *json.Encoder
	err error
}

// NewJSONLSink creates a sink writing to w.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{enc: json.NewEncoder(w)}
}

// Add writes ev as one JSON line.
func (s *JSONLSink) Add(ev Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	s.err = s.enc.Encode(&ev)
}

// Err returns the first write error, if any.
func (s *JSONLSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Ring is a bounded in-memory event buffer keeping the most recent
// events — the backing store of the daemon's /v1/events endpoint. Safe
// for concurrent use.
type Ring struct {
	mu    sync.Mutex
	buf   []Event
	next  int    // index the next event is written at
	total uint64 // events ever added
}

// NewRing creates a ring retaining up to n events (minimum 1).
func NewRing(n int) *Ring {
	if n < 1 {
		n = 1
	}
	return &Ring{buf: make([]Event, 0, n)}
}

// Add stores ev as the most recent event.
func (r *Ring) Add(ev Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, ev)
	} else {
		r.buf[r.next] = ev
	}
	r.next = (r.next + 1) % cap(r.buf)
	r.total++
}

// Events returns up to limit of the most recent events, oldest first.
// limit <= 0 returns everything retained.
func (r *Ring) Events(limit int) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.buf)
	if limit <= 0 || limit > n {
		limit = n
	}
	out := make([]Event, 0, limit)
	// Oldest retained event sits at r.next once the buffer has wrapped.
	start := 0
	if n == cap(r.buf) {
		start = r.next
	}
	for i := n - limit; i < n; i++ {
		out = append(out, r.buf[(start+i)%n])
	}
	return out
}

// EventsWhere returns up to limit of the most recent events whose Op
// matches outcome ("" matches everything), oldest first. limit <= 0
// means no limit. It backs the /v1/events ?outcome=&limit= filters.
func (r *Ring) EventsWhere(outcome string, limit int) []Event {
	all := r.Events(0)
	if outcome != "" {
		kept := all[:0]
		for _, ev := range all {
			if ev.Op == outcome {
				kept = append(kept, ev)
			}
		}
		all = kept
	}
	if limit > 0 && limit < len(all) {
		all = all[len(all)-limit:]
	}
	return all
}

// Total returns the number of events ever added (retained or not).
func (r *Ring) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}
