package telemetry

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Canonical stage names. Every span recorded anywhere in the stack uses
// one of these; DESIGN.md section 9 is the authoritative table. Fixed
// names keep aggregation trivial (group by stage, no cardinality
// explosion) and let the check harness assert full coverage.
const (
	// StageRequest is the root span of every trace: one served request.
	StageRequest = "request"
	// StageAdmission is the shedder's admit/reject decision.
	StageAdmission = "admission"
	// StageDeadline is deadline extraction from the request header and
	// context construction.
	StageDeadline = "deadline"
	// StageDecode is reading and decoding the /v1/request body (attrs
	// bytes, keys, path=fast|reference). On a fleet master it sits
	// under fleet_route.
	StageDecode = "decode"
	// StageLockWaitRead is time queued for the cache's shared lock.
	StageLockWaitRead = "lock_wait_read"
	// StageLockWaitWrite is time queued for the cache's exclusive lock.
	StageLockWaitWrite = "lock_wait_write"
	// StageSupersetScan is Algorithm 1 phase 1: the subset test sweep.
	StageSupersetScan = "superset_scan"
	// StageMergeScan is Algorithm 1 phase 2: prefilter plus exact
	// Jaccard distance over merge candidates.
	StageMergeScan = "merge_scan"
	// StageHit covers hit bookkeeping (LRU touch, stats, commit).
	StageHit = "hit"
	// StageMerge covers building and installing a merged image.
	StageMerge = "merge"
	// StageInsert covers materialising a fresh image.
	StageInsert = "insert"
	// StageEvict is the LRU eviction sweep after a merge or insert.
	StageEvict = "evict"
	// StageWALAppend is the synchronous write-ahead-log append inside
	// the commit hook.
	StageWALAppend = "wal_append"
	// StageFsyncWait is the group-commit wait for the WAL to be durable
	// before acking.
	StageFsyncWait = "fsync_wait"
	// StageClusterDispatch is head-to-worker image dispatch at a site.
	StageClusterDispatch = "cluster_dispatch"

	// StageFleetRoute is the fleet master's routing decision: hashing
	// the spec signature onto the agent ring and assembling the
	// candidate order. Fleet stages are recorded only on a master hop,
	// so they sit outside CanonicalStages — whose contract is the
	// single-node serving path the trace-sim harness audits 1:1.
	StageFleetRoute = "fleet_route"
	// StageFleetForward is one master-to-agent forwarding attempt; a
	// request that fails over records one span per candidate tried.
	StageFleetForward = "fleet_forward"
)

// CanonicalStages returns every stage name the stack can record, root
// first. The check harness asserts a seeded run covers all of them.
func CanonicalStages() []string {
	return []string{
		StageRequest, StageAdmission, StageDeadline, StageDecode,
		StageLockWaitRead, StageLockWaitWrite,
		StageSupersetScan, StageMergeScan,
		StageHit, StageMerge, StageInsert, StageEvict,
		StageWALAppend, StageFsyncWait, StageClusterDispatch,
	}
}

// TraceID identifies one request's trace across process hops. It
// marshals as a 16-hex-digit string so JavaScript consumers never see a
// >2^53 integer.
type TraceID uint64

// String renders the ID in the wire format (16 lowercase hex digits).
func (id TraceID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// MarshalJSON renders the ID as a hex string.
func (id TraceID) MarshalJSON() ([]byte, error) {
	return []byte(`"` + id.String() + `"`), nil
}

// UnmarshalJSON accepts the hex-string form (and, leniently, a bare
// number from hand-written fixtures).
func (id *TraceID) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, perr := ParseTraceID(s)
		if perr != nil {
			return perr
		}
		*id = v
		return nil
	}
	var n uint64
	if err := json.Unmarshal(b, &n); err != nil {
		return fmt.Errorf("telemetry: trace id must be a hex string or number: %s", b)
	}
	*id = TraceID(n)
	return nil
}

// ParseTraceID parses the 16-hex-digit wire form.
func ParseTraceID(s string) (TraceID, error) {
	if len(s) != 16 {
		return 0, fmt.Errorf("telemetry: trace id %q: want 16 hex digits", s)
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("telemetry: trace id %q: %v", s, err)
	}
	return TraceID(v), nil
}

// Attr is one key/value annotation on a span. Exactly one of Num/Str is
// meaningful; numeric attributes dominate (scan counts, byte totals).
type Attr struct {
	Key string `json:"k"`
	Num int64  `json:"n,omitempty"`
	Str string `json:"s,omitempty"`
}

// SpanRef indexes a span inside its trace. Refs stay valid for the
// life of the trace; SpanNone marks "no span" and every ActiveTrace
// method treats it as a no-op.
type SpanRef int32

// SpanNone is the invalid span reference.
const SpanNone SpanRef = -1

// Span is one timed stage of a request. Start/End are nanoseconds
// relative to the trace's start, so a dumped trace is self-contained
// and diffable across deterministic replays.
type Span struct {
	Stage  string  `json:"stage"`
	Parent SpanRef `json:"parent"` // index of the parent span; -1 for the root
	Start  int64   `json:"start_ns"`
	End    int64   `json:"end_ns"`
	Attrs  []Attr  `json:"attrs,omitempty"`
}

// Duration returns the span's length in nanoseconds.
func (s *Span) Duration() int64 { return s.End - s.Start }

// Trace is one finished request trace: the span tree plus identity and
// outcome. Spans[0] is always the root (StageRequest).
type Trace struct {
	ID TraceID `json:"trace_id"`
	// RemoteParent links a propagated trace to the caller: it is the
	// caller's span index plus one as carried on the wire, zero when the
	// trace originated here.
	RemoteParent uint32 `json:"remote_parent,omitempty"`
	// StartWall is the trace start in Unix nanoseconds (logical under
	// the sim clock).
	StartWall     int64 `json:"start_unix_ns"`
	DurationNanos int64 `json:"duration_ns"`
	// Outcome is the request's fate: "hit", "merge", "insert", "shed",
	// "degraded", "timeout", "canceled", or "error".
	Outcome string `json:"outcome"`
	Err     string `json:"error,omitempty"`
	// Seq is the manager's logical clock for served requests (zero when
	// the request never reached the cache).
	Seq uint64 `json:"seq,omitempty"`
	// Kept records why the tail-sampling ring retained the trace
	// ("slow" or "interesting"); empty outside a ring dump.
	Kept  string `json:"kept,omitempty"`
	Spans []Span `json:"spans"`
}

// Root returns the root span.
func (t *Trace) Root() *Span { return &t.Spans[0] }

// TraceSink receives finished traces. Keep must copy what it retains:
// the *Trace is pooled and reused after the call returns.
type TraceSink interface {
	Keep(t *Trace)
}

// discardSink drops every trace; used when a SpanTracer exists only to
// time spans whose retention happens elsewhere.
type discardSink struct{}

func (discardSink) Keep(*Trace) {}

// DiscardSink returns a sink that drops all traces.
func DiscardSink() TraceSink { return discardSink{} }

// SpanTracer mints ActiveTraces. The zero cost path is the nil
// *SpanTracer / nil *ActiveTrace: every method is nil-receiver safe, so
// uninstrumented callers pay one predictable branch per span site.
//
// Clock and ID generation are injectable so the check harness can run
// the whole stack on a logical clock and seeded IDs, making trace dumps
// byte-identical across same-seed runs.
type SpanTracer struct {
	sink    TraceSink
	clock   func() int64 // monotonic nanos; also stamps StartWall
	newID   func() uint64
	pool    sync.Pool
	started atomic.Uint64
}

// NewSpanTracer creates a tracer delivering finished traces to sink
// (DiscardSink when nil). The default clock is the wall clock and the
// default ID generator draws from crypto/rand.
func NewSpanTracer(sink TraceSink) *SpanTracer {
	if sink == nil {
		sink = DiscardSink()
	}
	t := &SpanTracer{
		sink:  sink,
		clock: func() int64 { return time.Now().UnixNano() },
		newID: randomID,
	}
	t.pool.New = func() any { return &ActiveTrace{} }
	return t
}

func randomID() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("telemetry: id entropy unavailable: %v", err))
	}
	id := binary.LittleEndian.Uint64(b[:])
	if id == 0 {
		id = 1 // zero means "mint one"; never hand it out
	}
	return id
}

// SetClock replaces the tracer's clock (nanoseconds, monotone
// non-decreasing). For deterministic harness runs.
func (t *SpanTracer) SetClock(fn func() int64) {
	if fn != nil {
		t.clock = fn
	}
}

// SetIDGen replaces the trace ID generator (must never return zero).
// For deterministic harness runs.
func (t *SpanTracer) SetIDGen(fn func() uint64) {
	if fn != nil {
		t.newID = fn
	}
}

// Started returns the number of traces started — the denominator for
// the ring's retention accounting.
func (t *SpanTracer) Started() uint64 {
	if t == nil {
		return 0
	}
	return t.started.Load()
}

// Start begins a trace and its root span. id == 0 mints a fresh ID;
// a non-zero id with remoteParent continues a propagated trace (the
// X-Landlord-Trace hop). Safe on a nil tracer (returns nil).
func (t *SpanTracer) Start(id TraceID, remoteParent uint32) *ActiveTrace {
	if t == nil {
		return nil
	}
	t.started.Add(1)
	at := t.pool.Get().(*ActiveTrace)
	at.tr = t
	if id == 0 {
		id = TraceID(t.newID())
	}
	now := t.clock()
	at.base = now
	at.t.ID = id
	at.t.RemoteParent = remoteParent
	at.t.StartWall = now
	at.t.DurationNanos = 0
	at.t.Outcome = ""
	at.t.Err = ""
	at.t.Seq = 0
	at.t.Kept = ""
	if cap(at.t.Spans) > 0 {
		at.t.Spans = at.t.Spans[:0]
	}
	at.t.Spans = append(at.t.Spans, Span{Stage: StageRequest, Parent: SpanNone})
	return at
}

// ActiveTrace is a trace under construction. It is owned by one request
// flow at a time (the same discipline core.Manager already demands) and
// is returned to the tracer's pool by Finish. All methods are safe on a
// nil receiver: disabled tracing costs one branch.
type ActiveTrace struct {
	tr   *SpanTracer
	base int64
	t    Trace
}

// TraceID returns the trace's ID (zero on nil).
func (at *ActiveTrace) TraceID() TraceID {
	if at == nil {
		return 0
	}
	return at.t.ID
}

// Root returns the root span's ref.
func (at *ActiveTrace) Root() SpanRef {
	if at == nil {
		return SpanNone
	}
	return 0
}

// Begin opens a child span under parent and returns its ref.
func (at *ActiveTrace) Begin(stage string, parent SpanRef) SpanRef {
	if at == nil {
		return SpanNone
	}
	ref := SpanRef(len(at.t.Spans))
	at.t.Spans = append(at.t.Spans, Span{
		Stage:  stage,
		Parent: parent,
		Start:  at.tr.clock() - at.base,
	})
	return ref
}

// End closes the span.
func (at *ActiveTrace) End(ref SpanRef) {
	if at == nil || ref < 0 || int(ref) >= len(at.t.Spans) {
		return
	}
	at.t.Spans[ref].End = at.tr.clock() - at.base
}

// EndInt closes the span and attaches one numeric attribute.
func (at *ActiveTrace) EndInt(ref SpanRef, key string, v int64) {
	at.AttrInt(ref, key, v)
	at.End(ref)
}

// AttrInt attaches a numeric attribute to an open or closed span.
func (at *ActiveTrace) AttrInt(ref SpanRef, key string, v int64) {
	if at == nil || ref < 0 || int(ref) >= len(at.t.Spans) {
		return
	}
	sp := &at.t.Spans[ref]
	sp.Attrs = append(sp.Attrs, Attr{Key: key, Num: v})
}

// AttrStr attaches a string attribute to an open or closed span.
func (at *ActiveTrace) AttrStr(ref SpanRef, key, v string) {
	if at == nil || ref < 0 || int(ref) >= len(at.t.Spans) {
		return
	}
	sp := &at.t.Spans[ref]
	sp.Attrs = append(sp.Attrs, Attr{Key: key, Str: v})
}

// Finish closes the root span, stamps the outcome, hands the trace to
// the sink, and returns the ActiveTrace to the pool. The ActiveTrace
// must not be used afterwards.
func (at *ActiveTrace) Finish(outcome, errMsg string, seq uint64) {
	if at == nil {
		return
	}
	end := at.tr.clock() - at.base
	at.t.Spans[0].End = end
	at.t.DurationNanos = end
	at.t.Outcome = outcome
	at.t.Err = errMsg
	at.t.Seq = seq
	tr := at.tr
	tr.sink.Keep(&at.t)
	// Clear per-span attrs before pooling so reuse cannot leak a prior
	// request's annotations; the spans slice capacity is retained.
	for i := range at.t.Spans {
		at.t.Spans[i].Attrs = at.t.Spans[i].Attrs[:0]
	}
	at.tr = nil
	tr.pool.Put(at)
}

// CopyTrace deep-copies t, detaching spans and attrs from pooled
// storage. Sinks that retain traces use it.
func CopyTrace(t *Trace) Trace {
	out := *t
	out.Spans = make([]Span, len(t.Spans))
	copy(out.Spans, t.Spans)
	for i := range out.Spans {
		if len(out.Spans[i].Attrs) > 0 {
			out.Spans[i].Attrs = append([]Attr(nil), out.Spans[i].Attrs...)
		} else {
			out.Spans[i].Attrs = nil
		}
	}
	return out
}

// ---- context propagation ----

type traceCtxKey struct{}

// ContextWithTrace attaches an ActiveTrace to ctx so downstream layers
// (client, cluster) can continue the trace across hops. A nil trace
// returns ctx unchanged.
func ContextWithTrace(ctx context.Context, at *ActiveTrace) context.Context {
	if at == nil {
		return ctx
	}
	return context.WithValue(ctx, traceCtxKey{}, at)
}

// TraceFromContext returns the ActiveTrace attached to ctx, or nil.
func TraceFromContext(ctx context.Context) *ActiveTrace {
	at, _ := ctx.Value(traceCtxKey{}).(*ActiveTrace)
	return at
}

// ---- wire propagation ----

// TraceHeaderName carries trace context across process hops, W3C
// traceparent style: `<16-hex trace id>-<8-hex parent ref>-<2-hex
// flags>`. The parent ref is the sender's span index plus one (so the
// root encodes as 1 and 0 means "no parent"); flags are always 01
// (sampled) — sampling here is tail-based, so heads never opt out.
const TraceHeaderName = "X-Landlord-Trace"

// FormatTraceHeader renders the wire form for a hop whose remote parent
// is the given span of the trace.
func FormatTraceHeader(id TraceID, parent SpanRef) string {
	enc := uint32(0)
	if parent >= 0 {
		enc = uint32(parent) + 1
	}
	return fmt.Sprintf("%016x-%08x-01", uint64(id), enc)
}

// ParseTraceHeader parses the wire form. ok is false (and the values
// zero) for an absent or malformed header: the receiver then starts a
// fresh trace rather than failing the request.
func ParseTraceHeader(s string) (id TraceID, parent uint32, ok bool) {
	if len(s) != 16+1+8+1+2 || s[16] != '-' || s[25] != '-' {
		return 0, 0, false
	}
	idv, err := strconv.ParseUint(s[:16], 16, 64)
	if err != nil || idv == 0 {
		return 0, 0, false
	}
	pv, err := strconv.ParseUint(s[17:25], 16, 32)
	if err != nil {
		return 0, 0, false
	}
	if _, err := strconv.ParseUint(s[26:], 16, 8); err != nil {
		return 0, 0, false
	}
	return TraceID(idv), uint32(pv), true
}
