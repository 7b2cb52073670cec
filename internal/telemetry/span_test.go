package telemetry

import (
	"context"
	"encoding/json"
	"sync"
	"testing"
)

// stepClock returns a deterministic clock ticking 1000ns per call.
func stepClock() func() int64 {
	var now int64
	return func() int64 {
		now += 1000
		return now
	}
}

// captureSink retains deep copies of every finished trace.
type captureSink struct {
	mu     sync.Mutex
	traces []Trace
}

func (s *captureSink) Keep(t *Trace) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.traces = append(s.traces, CopyTrace(t))
}

func TestSpanTreeShape(t *testing.T) {
	sink := &captureSink{}
	tr := NewSpanTracer(sink)
	tr.SetClock(stepClock())
	tr.SetIDGen(func() uint64 { return 42 })

	at := tr.Start(0, 0)
	if at.TraceID() != 42 {
		t.Fatalf("minted id %d, want 42", at.TraceID())
	}
	scan := at.Begin(StageSupersetScan, at.Root())
	at.EndInt(scan, "scanned", 7)
	ins := at.Begin(StageInsert, at.Root())
	wal := at.Begin(StageWALAppend, ins)
	at.End(wal)
	at.AttrStr(ins, "note", "x")
	at.End(ins)
	at.Finish("insert", "", 9)

	if len(sink.traces) != 1 {
		t.Fatalf("sink saw %d traces", len(sink.traces))
	}
	got := sink.traces[0]
	if got.Outcome != "insert" || got.Seq != 9 || got.Err != "" {
		t.Fatalf("trace header %+v", got)
	}
	wantStages := []string{StageRequest, StageSupersetScan, StageInsert, StageWALAppend}
	wantParents := []SpanRef{SpanNone, 0, 0, 2}
	if len(got.Spans) != len(wantStages) {
		t.Fatalf("got %d spans, want %d", len(got.Spans), len(wantStages))
	}
	for i, sp := range got.Spans {
		if sp.Stage != wantStages[i] || sp.Parent != wantParents[i] {
			t.Fatalf("span %d = {%s parent %d}, want {%s parent %d}",
				i, sp.Stage, sp.Parent, wantStages[i], wantParents[i])
		}
		if i > 0 && (sp.Start <= 0 || sp.End < sp.Start) {
			t.Fatalf("span %d times [%d, %d] not within trace", i, sp.Start, sp.End)
		}
	}
	if got.Spans[1].Attrs[0] != (Attr{Key: "scanned", Num: 7}) {
		t.Fatalf("scan attr %+v", got.Spans[1].Attrs)
	}
	if got.DurationNanos != got.Spans[0].End {
		t.Fatalf("duration %d != root end %d", got.DurationNanos, got.Spans[0].End)
	}
}

func TestNilTracerAndNilTraceAreNoOps(t *testing.T) {
	var tr *SpanTracer
	at := tr.Start(0, 0)
	if at != nil {
		t.Fatalf("nil tracer minted a trace")
	}
	// Every method must be callable on the nil ActiveTrace.
	if at.TraceID() != 0 || at.Root() != SpanNone {
		t.Fatalf("nil trace not inert")
	}
	ref := at.Begin(StageHit, at.Root())
	if ref != SpanNone {
		t.Fatalf("nil Begin returned %d", ref)
	}
	at.AttrInt(ref, "k", 1)
	at.AttrStr(ref, "k", "v")
	at.EndInt(ref, "k", 1)
	at.End(ref)
	at.Finish("hit", "", 0)
	if tr.Started() != 0 {
		t.Fatalf("nil tracer counted starts")
	}
}

func TestNilTracePathDoesNotAllocate(t *testing.T) {
	var at *ActiveTrace
	allocs := testing.AllocsPerRun(100, func() {
		ref := at.Begin(StageHit, at.Root())
		at.AttrInt(ref, "image_id", 1)
		at.End(ref)
	})
	if allocs != 0 {
		t.Fatalf("nil-trace span site allocates %.1f per op, want 0", allocs)
	}
}

func TestPoolReuseClearsAttrs(t *testing.T) {
	sink := &captureSink{}
	tr := NewSpanTracer(sink)
	tr.SetClock(stepClock())
	seq := uint64(0)
	tr.SetIDGen(func() uint64 { seq++; return seq })

	at := tr.Start(0, 0)
	ref := at.Begin(StageMerge, at.Root())
	at.EndInt(ref, "bytes_written", 4096)
	at.Finish("merge", "", 1)

	// The pooled ActiveTrace is reused: the new trace must not carry
	// the previous request's spans or attributes.
	at2 := tr.Start(0, 0)
	if len(at2.t.Spans) != 1 {
		t.Fatalf("reused trace starts with %d spans", len(at2.t.Spans))
	}
	ref2 := at2.Begin(StageHit, at2.Root())
	if got := at2.t.Spans[ref2].Attrs; len(got) != 0 {
		t.Fatalf("reused span carries stale attrs %+v", got)
	}
	at2.Finish("hit", "", 2)

	if sink.traces[0].Spans[1].Attrs[0].Num != 4096 {
		t.Fatalf("first trace's copied attrs corrupted: %+v", sink.traces[0].Spans[1].Attrs)
	}
}

func TestConcurrentTracing(t *testing.T) {
	// Many goroutines start/annotate/finish traces against one tracer
	// and ring while another dumps: the -race CI job runs this.
	ring := NewTraceRing(8, 8)
	tr := NewSpanTracer(ring)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				at := tr.Start(0, 0)
				ref := at.Begin(StageSupersetScan, at.Root())
				at.EndInt(ref, "scanned", int64(i))
				if i%10 == 9 {
					at.Finish("error", "synthetic", 0)
				} else {
					at.Finish("hit", "", uint64(i))
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			_ = ring.Dump(0)
			_, _ = ring.Get(TraceID(1))
			_ = ring.Kept()
		}
	}()
	wg.Wait()
	if got := tr.Started(); got != 1600 {
		t.Fatalf("started %d traces, want 1600", got)
	}
	if got := ring.Total(); got != 1600 {
		t.Fatalf("ring offered %d traces, want 1600", got)
	}
}

func TestTraceIDJSONRoundTrip(t *testing.T) {
	id := TraceID(0xdeadbeef12345678)
	b, err := json.Marshal(id)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `"deadbeef12345678"` {
		t.Fatalf("marshal: %s", b)
	}
	var back TraceID
	if err := json.Unmarshal(b, &back); err != nil || back != id {
		t.Fatalf("unmarshal: %v %v", back, err)
	}
	// Lenient numeric form for hand-written fixtures.
	if err := json.Unmarshal([]byte("7"), &back); err != nil || back != 7 {
		t.Fatalf("numeric unmarshal: %v %v", back, err)
	}
	if err := json.Unmarshal([]byte(`"xyz"`), &back); err == nil {
		t.Fatalf("malformed hex accepted")
	}
}

func TestTraceHeaderRoundTrip(t *testing.T) {
	h := FormatTraceHeader(TraceID(0xabc), 0)
	if h != "0000000000000abc-00000001-01" {
		t.Fatalf("header %q", h)
	}
	id, parent, ok := ParseTraceHeader(h)
	if !ok || id != 0xabc || parent != 1 {
		t.Fatalf("parse: id=%v parent=%d ok=%v", id, parent, ok)
	}
	if h := FormatTraceHeader(TraceID(5), SpanNone); h[17:25] != "00000000" {
		t.Fatalf("SpanNone parent encoded as %q", h)
	}
	for _, bad := range []string{
		"",
		"0000000000000abc-00000001",       // missing flags
		"0000000000000abc+00000001-01",    // wrong separator
		"000000000000000g-00000001-01",    // bad hex
		"0000000000000000-00000001-01",    // zero trace id
		"0000000000000abc-0000001-012",    // shifted dashes
		"0000000000000abc-00000001-01x",   // trailing junk
		"00000000000000abc-00000001-0",    // wrong segment widths
		"0000000000000abc-00000001-zz",    // bad flags
		"0000000000000abc-zzzzzzzz-01",    // bad parent
		"0000000000000abc-00000001-01-01", // extra segment
	} {
		if _, _, ok := ParseTraceHeader(bad); ok {
			t.Fatalf("accepted malformed header %q", bad)
		}
	}
}

func TestContextPropagation(t *testing.T) {
	tr := NewSpanTracer(nil)
	at := tr.Start(0, 0)
	ctx := ContextWithTrace(context.Background(), at)
	if got := TraceFromContext(ctx); got != at {
		t.Fatalf("context returned %p, want %p", got, at)
	}
	if got := TraceFromContext(context.Background()); got != nil {
		t.Fatalf("empty context returned %p", got)
	}
	if ctx2 := ContextWithTrace(context.Background(), nil); TraceFromContext(ctx2) != nil {
		t.Fatalf("nil trace attached to context")
	}
	at.Finish("hit", "", 0)
}

func TestCanonicalStagesAreUniqueAndRootFirst(t *testing.T) {
	stages := CanonicalStages()
	if stages[0] != StageRequest {
		t.Fatalf("first stage %q", stages[0])
	}
	seen := map[string]bool{}
	for _, s := range stages {
		if seen[s] {
			t.Fatalf("duplicate stage %q", s)
		}
		seen[s] = true
	}
	if len(stages) != 15 {
		t.Fatalf("%d canonical stages, want 15 (update DESIGN.md section 9 too)", len(stages))
	}
}

func TestDefaultIDGenNeverZero(t *testing.T) {
	tr := NewSpanTracer(nil)
	for i := 0; i < 100; i++ {
		at := tr.Start(0, 0)
		if at.TraceID() == 0 {
			t.Fatalf("minted zero trace id")
		}
		at.Finish("hit", "", 0)
	}
}
