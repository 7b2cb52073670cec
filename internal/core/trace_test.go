package core

import (
	"context"
	"testing"

	"repro/internal/spec"
	"repro/internal/telemetry"
)

// collectTracer retains every event for assertions.
type collectTracer struct{ events []telemetry.Event }

func (c *collectTracer) Trace(ev *telemetry.Event) { c.events = append(c.events, *ev) }

func TestRequestEmitsOneEventPerRequest(t *testing.T) {
	repo := flatRepo(t, 10, 1)
	tr := &collectTracer{}
	m := mgr(t, repo, Config{Alpha: 0.6, Tracer: tr})

	request(t, m, sp(0, 1, 2, 3)) // insert
	request(t, m, sp(0, 1, 2, 3)) // hit
	request(t, m, sp(0, 1, 2, 4)) // merge: d = 2/5 = 0.4 < 0.6

	if len(tr.events) != 3 {
		t.Fatalf("traced %d events for 3 requests", len(tr.events))
	}
	for i, ev := range tr.events {
		if ev.Seq != uint64(i+1) {
			t.Errorf("event %d seq = %d", i, ev.Seq)
		}
		if ev.SpecPackages != 4 || ev.RequestBytes != 4 {
			t.Errorf("event %d spec sizing = %d pkgs / %d bytes", i, ev.SpecPackages, ev.RequestBytes)
		}
		if ev.DurationNanos < 0 {
			t.Errorf("event %d negative duration", i)
		}
		if ev.Images < 1 || ev.CachedBytes < 1 {
			t.Errorf("event %d cache snapshot empty: %+v", i, ev)
		}
	}

	insert, hit, merge := tr.events[0], tr.events[1], tr.events[2]
	if insert.Op != "insert" || insert.BytesWritten != 4 {
		t.Errorf("insert event: %+v", insert)
	}
	if hit.Op != "hit" || hit.BytesWritten != 0 || hit.SupersetScanned == 0 {
		t.Errorf("hit event: %+v", hit)
	}
	if merge.Op != "merge" || merge.ImageSize != 5 || merge.BytesWritten != 5 {
		t.Errorf("merge event: %+v", merge)
	}
	if len(merge.Candidates) != 1 || merge.Candidates[0].Distance != 0.4 {
		t.Errorf("merge candidates: %+v", merge.Candidates)
	}
}

func TestTracePrefilterCounts(t *testing.T) {
	repo := flatRepo(t, 26, 1)
	tr := &collectTracer{}
	m := mgr(t, repo, Config{
		Alpha:   0.3,
		MinHash: &MinHashConfig{K: 64, Seed: 1, Margin: 0.1},
		Tracer:  tr,
	})
	// Two distant images, then a request close to neither: the
	// prefilter should reject at least one distant image outright.
	request(t, m, sp(0, 1, 2, 3, 4, 5, 6, 7))
	request(t, m, sp(16, 17, 18, 19, 20, 21, 22, 23))
	request(t, m, sp(8, 9, 10, 11, 12, 13, 14, 15))

	last := tr.events[len(tr.events)-1]
	if last.Op != "insert" {
		t.Fatalf("expected disjoint request to insert, got %q", last.Op)
	}
	if last.PrefilterAccepted+last.PrefilterRejected != 2 {
		t.Fatalf("prefilter examined %d+%d images, want 2",
			last.PrefilterAccepted, last.PrefilterRejected)
	}
	if last.PrefilterRejected == 0 {
		t.Fatalf("prefilter rejected nothing for disjoint sets: %+v", last)
	}
}

func TestTraceEvictionAccounting(t *testing.T) {
	repo := flatRepo(t, 12, 10)
	tr := &collectTracer{}
	m := mgr(t, repo, Config{Alpha: 0.1, Capacity: 60, Tracer: tr})

	request(t, m, sp(0, 1, 2)) // 30 bytes
	request(t, m, sp(3, 4, 5)) // 60 bytes total
	request(t, m, sp(6, 7, 8)) // 90 -> evicts the LRU image
	ev := tr.events[2]
	if ev.Evicted != 1 || ev.EvictedBytes != 30 {
		t.Fatalf("eviction event: %+v", ev)
	}
	if ev.CachedBytes != 60 || ev.Images != 2 {
		t.Fatalf("post-eviction snapshot: %+v", ev)
	}
}

func TestSetTracerStacksCollectors(t *testing.T) {
	repo := flatRepo(t, 6, 1)
	first := &collectTracer{}
	m := mgr(t, repo, Config{Alpha: 0.5, Tracer: first})
	second := &collectTracer{}
	m.SetTracer(telemetry.Multi(m.Tracer(), second))

	request(t, m, sp(0, 1))
	if len(first.events) != 1 || len(second.events) != 1 {
		t.Fatalf("stacked tracers got %d/%d events", len(first.events), len(second.events))
	}
}

// spanStages flattens a trace's stages for coverage assertions.
func spanStages(tr telemetry.Trace) map[string]int {
	out := map[string]int{}
	for _, sp := range tr.Spans {
		out[sp.Stage]++
	}
	return out
}

func TestRequestTracedRecordsAlgorithmSpans(t *testing.T) {
	repo := flatRepo(t, 10, 1)
	ring := telemetry.NewTraceRing(16, 16)
	spans := telemetry.NewSpanTracer(ring)
	// Capacity forces an eviction sweep on every mutation; the event
	// tracer makes the scan spans carry their work-count attributes.
	m := mgr(t, repo, Config{Alpha: 0.6, Capacity: 6, Tracer: &collectTracer{}})

	run := func(s spec.Spec, outcome string) telemetry.Trace {
		t.Helper()
		at := spans.Start(0, 0)
		res, err := m.RequestTraced(s, at)
		if err != nil {
			t.Fatal(err)
		}
		at.Finish(res.Op.String(), "", res.Seq)
		if res.Op.String() != outcome {
			t.Fatalf("op %s, want %s", res.Op, outcome)
		}
		tr, ok := ring.Get(at.TraceID())
		if !ok {
			t.Fatalf("trace for %s not retained", outcome)
		}
		return tr
	}

	insert := run(sp(0, 1, 2, 3), "insert")
	hit := run(sp(0, 1, 2, 3), "hit")
	merge := run(sp(0, 1, 2, 4), "merge")

	st := spanStages(insert)
	for _, stage := range []string{telemetry.StageSupersetScan, telemetry.StageMergeScan, telemetry.StageInsert, telemetry.StageEvict} {
		if st[stage] != 1 {
			t.Fatalf("insert trace stages %v missing %s", st, stage)
		}
	}
	st = spanStages(hit)
	if st[telemetry.StageHit] != 1 || st[telemetry.StageSupersetScan] != 1 {
		t.Fatalf("hit trace stages %v", st)
	}
	if st[telemetry.StageMergeScan] != 0 {
		t.Fatalf("hit trace ran a merge scan: %v", st)
	}
	st = spanStages(merge)
	if st[telemetry.StageMerge] != 1 || st[telemetry.StageEvict] != 1 {
		t.Fatalf("merge trace stages %v", st)
	}

	// The scan spans carry their work counts as attributes.
	for _, sp := range hit.Spans {
		if sp.Stage == telemetry.StageSupersetScan {
			if len(sp.Attrs) != 1 || sp.Attrs[0].Key != "scanned" || sp.Attrs[0].Num < 1 {
				t.Fatalf("superset_scan attrs %+v", sp.Attrs)
			}
		}
	}

	// Request with a nil trace still works (the untraced path).
	if _, err := m.RequestTraced(sp(0, 1, 5), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Request(sp(0, 1, 6)); err != nil {
		t.Fatal(err)
	}
}

func TestShardedManagerTracesLockWaits(t *testing.T) {
	repo := flatRepo(t, 10, 1)
	ring := telemetry.NewTraceRing(16, 16)
	spans := telemetry.NewSpanTracer(ring)
	cm, err := NewSharded(repo, Config{Alpha: 0.6})
	if err != nil {
		t.Fatal(err)
	}

	run := func(s spec.Spec) telemetry.Trace {
		t.Helper()
		at := spans.Start(0, 0)
		ctx := telemetry.ContextWithTrace(context.Background(), at)
		res, err := cm.RequestCtx(ctx, s)
		if err != nil {
			t.Fatal(err)
		}
		at.Finish(res.Op.String(), "", res.Seq)
		tr, ok := ring.Get(at.TraceID())
		if !ok {
			t.Fatalf("trace not retained")
		}
		return tr
	}

	miss := spanStages(run(sp(0, 1, 2, 3))) // insert: read path, then write path
	if miss[telemetry.StageLockWaitRead] != 1 || miss[telemetry.StageLockWaitWrite] != 1 {
		t.Fatalf("insert stages %v, want both lock-wait spans", miss)
	}
	fast := spanStages(run(sp(0, 1, 2, 3))) // hit: read path only
	if fast[telemetry.StageLockWaitRead] != 1 || fast[telemetry.StageLockWaitWrite] != 0 {
		t.Fatalf("hit stages %v, want read lock wait only", fast)
	}
	if fast[telemetry.StageHit] != 1 {
		t.Fatalf("fast-path hit not spanned: %v", fast)
	}
}
