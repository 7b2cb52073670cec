package core

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/pkggraph"
	"repro/internal/spec"
	"repro/internal/telemetry"
)

// traceRig serves requests the way the server does: one span trace per
// request, the event built from the Result and the spans before the
// trace finishes, the finished trace retained by a ring.
type traceRig struct {
	ring  *telemetry.TraceRing
	spans *telemetry.SpanTracer
}

func newTraceRig() *traceRig {
	ring := telemetry.NewTraceRing(64, 16)
	return &traceRig{ring: ring, spans: telemetry.NewSpanTracer(ring)}
}

// run serves s through do under a fresh trace and returns the result,
// its event and its retained trace.
func (r *traceRig) run(t testing.TB, s spec.Spec, do func(*telemetry.ActiveTrace) (Result, error)) (Result, telemetry.Event, telemetry.Trace) {
	t.Helper()
	at := r.spans.Start(0, 0)
	res, err := do(at)
	if err != nil {
		t.Fatal(err)
	}
	ev := EventOf(s, res, at, time.Microsecond)
	at.Finish(res.Op.String(), "", res.Seq)
	tr, ok := r.ring.Get(ev.TraceID)
	if !ok {
		t.Fatalf("trace %s not retained", ev.TraceID)
	}
	return res, ev, tr
}

// manager serves s through m.RequestTraced.
func (r *traceRig) manager(t testing.TB, m *Manager, s spec.Spec) (Result, telemetry.Event, telemetry.Trace) {
	t.Helper()
	return r.run(t, s, func(at *telemetry.ActiveTrace) (Result, error) { return m.RequestTraced(s, at) })
}

// sharded serves s through cm.RequestCtx with the trace on the context.
func (r *traceRig) sharded(t testing.TB, cm *ShardedManager, s spec.Spec) (Result, telemetry.Event, telemetry.Trace) {
	t.Helper()
	return r.run(t, s, func(at *telemetry.ActiveTrace) (Result, error) {
		return cm.RequestCtx(telemetry.ContextWithTrace(context.Background(), at), s)
	})
}

// attrsOf returns the attributes of the last span of stage in tr.
func attrsOf(tr telemetry.Trace, stage string) []telemetry.Attr {
	var out []telemetry.Attr
	for _, sp := range tr.Spans {
		if sp.Stage == stage {
			out = sp.Attrs
		}
	}
	return out
}

// attrKeys lists the keys of attrs in order.
func attrKeys(attrs []telemetry.Attr) []string {
	keys := make([]string, len(attrs))
	for i, a := range attrs {
		keys[i] = a.Key
	}
	return keys
}

func TestRequestEmitsOneEventPerRequest(t *testing.T) {
	repo := flatRepo(t, 10, 1)
	m := mgr(t, repo, Config{Alpha: 0.6})
	rig := newTraceRig()

	var events []telemetry.Event
	for _, s := range []spec.Spec{
		sp(0, 1, 2, 3), // insert
		sp(0, 1, 2, 3), // hit
		sp(0, 1, 2, 4), // merge: d = 2/5 = 0.4 < 0.6
	} {
		_, ev, _ := rig.manager(t, m, s)
		events = append(events, ev)
	}
	for i, ev := range events {
		if ev.Seq != uint64(i+1) {
			t.Errorf("event %d seq = %d", i, ev.Seq)
		}
		if ev.SpecPackages != 4 || ev.RequestBytes != 4 {
			t.Errorf("event %d spec sizing = %d pkgs / %d bytes", i, ev.SpecPackages, ev.RequestBytes)
		}
		if ev.DurationNanos != time.Microsecond.Nanoseconds() {
			t.Errorf("event %d duration %d, want the caller's timing", i, ev.DurationNanos)
		}
		if ev.Images < 1 || ev.CachedBytes < 1 {
			t.Errorf("event %d cache snapshot empty: %+v", i, ev)
		}
		if ev.TraceID == 0 {
			t.Errorf("event %d not linked to its trace", i)
		}
	}

	insert, hit, merge := events[0], events[1], events[2]
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
	if hit.Candidates != nil || hit.PrefilterAccepted+hit.PrefilterRejected != 0 {
		t.Errorf("hit event carries merge-scan detail: %+v", hit)
	}
}

// TestScanAttrsNeedOnlyATrace pins that the scan detail rides the spans
// of every traced request: a manager with a commit hook and nothing
// else records scanned, the merge scan's counts and each candidate with
// its exact distance.
func TestScanAttrsNeedOnlyATrace(t *testing.T) {
	repo := flatRepo(t, 10, 1)
	m := mgr(t, repo, Config{Alpha: 0.6, MinHash: &MinHashConfig{K: 64, Seed: 1, Margin: 0.25}, Commit: &recordingHook{}})
	rig := newTraceRig()

	rig.manager(t, m, sp(0, 1, 2, 3))
	res, _, tr := rig.manager(t, m, sp(0, 1, 2, 4))
	if res.Op != OpMerge {
		t.Fatalf("op %s, want merge", res.Op)
	}
	if got := attrKeys(attrsOf(tr, telemetry.StageSupersetScan)); !slices.Equal(got, []string{"scanned"}) {
		t.Fatalf("superset_scan attrs %v, want [scanned]", got)
	}
	scan := attrsOf(tr, telemetry.StageMergeScan)
	want := []string{"candidates", "prefilter_accepted", "prefilter_rejected", "candidate"}
	if got := attrKeys(scan); !slices.Equal(got, want) {
		t.Fatalf("merge_scan attrs %v, want %v", got, want)
	}
	if scan[0].Num != 1 || scan[1].Num != 1 || scan[2].Num != 0 {
		t.Errorf("merge_scan counts %+v, want 1 candidate, 1 accepted, 0 rejected", scan[:3])
	}
	if c := scan[3]; c.Num != int64(res.ImageID) || c.F != 0.4 {
		t.Errorf("candidate attr %+v, want image %d at distance 0.4", c, res.ImageID)
	}
	outcome := attrsOf(tr, telemetry.StageMerge)
	if got := attrKeys(outcome); !slices.Equal(got, []string{"bytes_written", "cached_bytes", "images"}) {
		t.Fatalf("merge span attrs %v, want bytes_written, cached_bytes, images", got)
	}
	if outcome[1].Num != m.TotalData() || outcome[2].Num != int64(m.Len()) {
		t.Errorf("occupancy attrs %+v, want %d bytes in %d images", outcome, m.TotalData(), m.Len())
	}
}

func TestTracePrefilterCounts(t *testing.T) {
	repo := flatRepo(t, 26, 1)
	m := mgr(t, repo, Config{
		Alpha:   0.3,
		MinHash: &MinHashConfig{K: 64, Seed: 1, Margin: 0.1},
	})
	rig := newTraceRig()
	// Two distant images, then a request close to neither: the
	// prefilter should reject at least one distant image outright.
	rig.manager(t, m, sp(0, 1, 2, 3, 4, 5, 6, 7))
	rig.manager(t, m, sp(16, 17, 18, 19, 20, 21, 22, 23))
	_, last, _ := rig.manager(t, m, sp(8, 9, 10, 11, 12, 13, 14, 15))

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
	m := mgr(t, repo, Config{Alpha: 0.1, Capacity: 60})
	rig := newTraceRig()

	rig.manager(t, m, sp(0, 1, 2))             // 30 bytes
	rig.manager(t, m, sp(3, 4, 5))             // 60 bytes total
	_, ev, _ := rig.manager(t, m, sp(6, 7, 8)) // 90 -> evicts the LRU image
	if ev.Evicted != 1 || ev.EvictedBytes != 30 {
		t.Fatalf("eviction event: %+v", ev)
	}
	if ev.CachedBytes != 60 || ev.Images != 2 {
		t.Fatalf("post-eviction snapshot: %+v", ev)
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
	// Capacity forces an eviction sweep on every mutation.
	m := mgr(t, repo, Config{Alpha: 0.6, Capacity: 6})
	rig := newTraceRig()

	run := func(s spec.Spec, outcome string) telemetry.Trace {
		t.Helper()
		res, _, tr := rig.manager(t, m, s)
		if res.Op.String() != outcome {
			t.Fatalf("op %s, want %s", res.Op, outcome)
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
	scan := attrsOf(hit, telemetry.StageSupersetScan)
	if len(scan) != 1 || scan[0].Key != "scanned" || scan[0].Num < 1 {
		t.Fatalf("superset_scan attrs %+v", scan)
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
	cm, err := NewSharded(repo, Config{Alpha: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	rig := newTraceRig()

	_, missEv, missTr := rig.sharded(t, cm, sp(0, 1, 2, 3)) // insert: read path, then write path
	miss := spanStages(missTr)
	if miss[telemetry.StageLockWaitRead] != 1 || miss[telemetry.StageLockWaitWrite] != 1 {
		t.Fatalf("insert stages %v, want both lock-wait spans", miss)
	}
	if miss[telemetry.StageSupersetScan] != 2 || missEv.Op != "insert" {
		t.Fatalf("insert stages %v (event op %q), want the read path's scan and the write path's rescan", miss, missEv.Op)
	}
	_, hitEv, hitTr := rig.sharded(t, cm, sp(0, 1, 2, 3)) // hit: read path only
	fast := spanStages(hitTr)
	if fast[telemetry.StageLockWaitRead] != 1 || fast[telemetry.StageLockWaitWrite] != 0 {
		t.Fatalf("hit stages %v, want read lock wait only", fast)
	}
	if fast[telemetry.StageHit] != 1 {
		t.Fatalf("fast-path hit not spanned: %v", fast)
	}
	if hitEv.Op != "hit" || hitEv.SupersetScanned != 1 || hitEv.CachedBytes != cm.TotalData() || hitEv.Images != cm.Len() {
		t.Fatalf("read-path hit event %+v, want scanned 1 and %d bytes in %d images", hitEv, cm.TotalData(), cm.Len())
	}
}

// TestShardedEventsReportWholeCache: under a capacity, every request's
// event — hit, merge or insert — snapshots the cache the eviction step
// bounds, as it stands after the request. Concurrent traced requests,
// whose read-path hits read the occupancy under the read lock while
// merges and inserts hold the write lock, must not race.
func TestShardedEventsReportWholeCache(t *testing.T) {
	repo := flatRepo(t, 40, 1)
	cm, err := NewSharded(repo, Config{Alpha: 0.8, Capacity: 12})
	if err != nil {
		t.Fatal(err)
	}
	draw := func(rng *rand.Rand) spec.Spec {
		ids := make([]pkggraph.PkgID, 1+rng.Intn(4))
		for j := range ids {
			ids[j] = pkggraph.PkgID(rng.Intn(16))
		}
		return spec.New(ids)
	}
	rig := newTraceRig()
	rng := rand.New(rand.NewSource(7))
	ops := map[string]int{}
	for i := 0; i < 60; i++ {
		s := draw(rng)
		_, ev, _ := rig.sharded(t, cm, s)
		ops[ev.Op]++
		if ev.CachedBytes != cm.TotalData() || ev.Images != cm.Len() {
			t.Fatalf("request %d (%s): event reads %d bytes in %d images, the cache holds %d in %d",
				i, ev.Op, ev.CachedBytes, ev.Images, cm.TotalData(), cm.Len())
		}
	}
	for _, op := range []string{"hit", "merge", "insert"} {
		if ops[op] == 0 {
			t.Errorf("no %s among %v", op, ops)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s := draw(rng)
				at := rig.spans.Start(0, 0)
				res, err := cm.RequestCtx(telemetry.ContextWithTrace(context.Background(), at), s)
				if err != nil {
					t.Error(err)
					return
				}
				if ev := EventOf(s, res, at, time.Microsecond); ev.Images < 1 || ev.CachedBytes < 1 {
					t.Errorf("concurrent %s event reads an empty cache: %+v", ev.Op, ev)
				}
				at.Finish(res.Op.String(), "", res.Seq)
			}
		}(rand.New(rand.NewSource(int64(w))))
	}
	wg.Wait()
}

// BenchmarkTracedHit is the server's hit as core sees it: a
// ShardedManager answering a cached spec through RequestCtx with a live
// span trace on the context, every span and attribute recorded into
// pooled storage. make bench-guard holds its allocation count.
func BenchmarkTracedHit(b *testing.B) {
	repo := concRepo(b)
	cm, err := NewSharded(repo, Config{Alpha: 0.8, MinHash: DefaultMinHash()})
	if err != nil {
		b.Fatal(err)
	}
	s := specPool(repo, 1, 9)[0]
	if _, err := cm.Request(s); err != nil {
		b.Fatal(err)
	}
	spans := telemetry.NewSpanTracer(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := spans.Start(0, 0)
		res, err := cm.RequestCtx(telemetry.ContextWithTrace(context.Background(), at), s)
		if err != nil || res.Op != OpHit {
			b.Fatalf("op %v, err %v", res.Op, err)
		}
		at.Finish(res.Op.String(), "", res.Seq)
	}
}
