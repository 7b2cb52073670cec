package sim

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/pkggraph"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

func testRepo(t testing.TB) *pkggraph.Repo {
	t.Helper()
	cfg := pkggraph.DefaultGenConfig()
	cfg.CoreFamilies = 3
	cfg.FrameworkFamilies = 8
	cfg.LibraryFamilies = 37
	cfg.ApplicationFamilies = 72
	return pkggraph.MustGenerate(cfg, 42)
}

// testParams returns a small but non-trivial simulation: ~480-package
// repo, 40 unique jobs x3, cache at 1x repo size.
func testParams(t testing.TB) Params {
	repo := testRepo(t)
	return Params{
		Repo:       repo,
		Alpha:      0.75,
		CacheBytes: repo.TotalSize(),
		UniqueJobs: 40,
		Repeats:    3,
		MaxInitial: 10,
		Seed:       1,
		UseMinHash: true,
	}
}

func TestRunValidation(t *testing.T) {
	p := testParams(t)
	p.Repo = nil
	if _, err := Run(p); err == nil {
		t.Error("nil repo accepted")
	}
	p = testParams(t)
	p.Alpha = 1.5
	if _, err := Run(p); err == nil {
		t.Error("bad alpha accepted")
	}
	p = testParams(t)
	p.UniqueJobs = 0
	if _, err := Run(p); err == nil {
		t.Error("zero jobs accepted")
	}
	p = testParams(t)
	p.Repeats = 0
	if _, err := Run(p); err == nil {
		t.Error("zero repeats accepted")
	}
}

func TestRunDeterministic(t *testing.T) {
	p := testParams(t)
	a, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats != b.Stats || a.TotalData != b.TotalData || a.UniqueData != b.UniqueData {
		t.Fatalf("same params, different results:\n%+v\n%+v", a.Stats, b.Stats)
	}
}

func TestRunBasicInvariants(t *testing.T) {
	p := testParams(t)
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Requests != int64(p.UniqueJobs*p.Repeats) {
		t.Fatalf("requests = %d, want %d", st.Requests, p.UniqueJobs*p.Repeats)
	}
	if st.Hits+st.Inserts+st.Merges != st.Requests {
		t.Fatalf("ops don't partition requests: %+v", st)
	}
	if res.UniqueData > res.TotalData {
		t.Fatalf("unique %d > total %d", res.UniqueData, res.TotalData)
	}
	if res.CacheEfficiency < 0 || res.CacheEfficiency > 1 {
		t.Fatalf("cache efficiency %v out of range", res.CacheEfficiency)
	}
	if res.ContainerEfficiency <= 0 || res.ContainerEfficiency > 1 {
		t.Fatalf("container efficiency %v out of range", res.ContainerEfficiency)
	}
	// With repeats, there must be some reuse.
	if st.Hits == 0 {
		t.Error("no hits despite repeated jobs")
	}
}

func TestRunTimeline(t *testing.T) {
	p := testParams(t)
	p.TimelineEvery = 10
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	want := (p.UniqueJobs * p.Repeats) / 10
	if len(res.Timeline) != want {
		t.Fatalf("timeline points = %d, want %d", len(res.Timeline), want)
	}
	for i := 1; i < len(res.Timeline); i++ {
		prev, cur := res.Timeline[i-1], res.Timeline[i]
		if cur.Request <= prev.Request {
			t.Fatal("timeline not ordered")
		}
		if cur.Hits < prev.Hits || cur.Inserts < prev.Inserts ||
			cur.Merges < prev.Merges || cur.Deletes < prev.Deletes ||
			cur.BytesWritten < prev.BytesWritten {
			t.Fatal("cumulative counters decreased")
		}
	}
	last := res.Timeline[len(res.Timeline)-1]
	if last.Hits != res.Stats.Hits || last.BytesWritten != res.Stats.BytesWritten {
		t.Fatal("final timeline point disagrees with stats")
	}
}

func TestCacheLimitRespected(t *testing.T) {
	p := testParams(t)
	p.CacheBytes = p.Repo.TotalSize() / 4
	p.TimelineEvery = 5
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Deletes == 0 {
		t.Error("small cache produced no deletes")
	}
	// The cache may transiently exceed its limit only by the one
	// in-use image; in the timeline it should hover near the limit.
	for _, pt := range res.Timeline {
		if pt.CachedBytes > p.CacheBytes*3 {
			t.Fatalf("cache wildly exceeded limit: %d vs %d", pt.CachedBytes, p.CacheBytes)
		}
	}
}

func TestAlphaShapesOperations(t *testing.T) {
	// Figure 4a's headline shape at small scale: a high-α run merges
	// more and inserts less than a low-α run.
	lo := testParams(t)
	lo.Alpha = 0.40
	hi := testParams(t)
	hi.Alpha = 0.95
	rlo, err := Run(lo)
	if err != nil {
		t.Fatal(err)
	}
	rhi, err := Run(hi)
	if err != nil {
		t.Fatal(err)
	}
	if rhi.Stats.Merges <= rlo.Stats.Merges {
		t.Errorf("merges: alpha 0.95 %d <= alpha 0.40 %d", rhi.Stats.Merges, rlo.Stats.Merges)
	}
	if rhi.Stats.Inserts >= rlo.Stats.Inserts {
		t.Errorf("inserts: alpha 0.95 %d >= alpha 0.40 %d", rhi.Stats.Inserts, rlo.Stats.Inserts)
	}
	// Merging improves cache efficiency (Figure 4b / 8). (The Figure 4c
	// write-amplification shape needs paper-scale proportions — see
	// TestPaperShapesFullScale — because a tiny repository saturates
	// into subset hits.)
	if rhi.CacheEfficiency <= rlo.CacheEfficiency {
		t.Errorf("cache efficiency: high alpha %v <= low alpha %v", rhi.CacheEfficiency, rlo.CacheEfficiency)
	}
	// While degrading container efficiency.
	if rhi.ContainerEfficiency >= rlo.ContainerEfficiency {
		t.Errorf("container efficiency: high alpha %v >= low alpha %v", rhi.ContainerEfficiency, rlo.ContainerEfficiency)
	}
}

func TestRandomWorkloadRarelyMerges(t *testing.T) {
	// Figure 7: without dependency structure, moderate α finds almost
	// nothing to merge.
	deps := testParams(t)
	deps.Alpha = 0.75
	rand := testParams(t)
	rand.Alpha = 0.75
	rand.Workload = WorkloadRandom
	rd, err := Run(deps)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := Run(rand)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Stats.Merges == 0 {
		t.Fatal("dependency workload produced no merges at alpha 0.75")
	}
	if rr.Stats.Merges*4 > rd.Stats.Merges {
		t.Errorf("random workload merged too much: %d vs deps %d", rr.Stats.Merges, rd.Stats.Merges)
	}
}

func TestWorkloadKindString(t *testing.T) {
	if WorkloadDeps.String() != "deps" || WorkloadRandom.String() != "random" {
		t.Fatal("workload names wrong")
	}
	if WorkloadKind(9).String() == "" {
		t.Fatal("unknown kind should render")
	}
}

func TestSweepAlpha(t *testing.T) {
	p := testParams(t)
	p.UniqueJobs = 20
	alphas := []float64{0.4, 0.75, 0.95}
	points, err := SweepAlpha(p, alphas, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(alphas) {
		t.Fatalf("points = %d", len(points))
	}
	for i, pt := range points {
		if pt.Alpha != alphas[i] {
			t.Fatalf("point %d alpha = %v", i, pt.Alpha)
		}
		if pt.RequestedWriteGB <= 0 {
			t.Fatalf("point %d has no requested writes", i)
		}
	}
	// Requested writes are α-independent by construction (same
	// workload seeds at every α).
	if points[0].RequestedWriteGB != points[2].RequestedWriteGB {
		t.Errorf("requested writes vary with alpha: %v vs %v",
			points[0].RequestedWriteGB, points[2].RequestedWriteGB)
	}
	// Figure 4a shape on medians.
	if points[2].Merges <= points[0].Merges {
		t.Errorf("median merges did not increase with alpha")
	}
}

func TestSweepAlphaValidation(t *testing.T) {
	p := testParams(t)
	if _, err := SweepAlpha(p, nil, 3, 1); err == nil {
		t.Error("empty alphas accepted")
	}
	if _, err := SweepAlpha(p, []float64{0.5}, 0, 1); err == nil {
		t.Error("zero reps accepted")
	}
	bad := p
	bad.UniqueJobs = 0
	if _, err := SweepAlpha(bad, []float64{0.5}, 1, 1); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestDefaultAlphas(t *testing.T) {
	as := DefaultAlphas()
	if len(as) != 13 {
		t.Fatalf("len = %d, want 13", len(as))
	}
	if as[0] != 0.40 || as[len(as)-1] != 1.00 {
		t.Fatalf("range = [%v, %v]", as[0], as[len(as)-1])
	}
	for i := 1; i < len(as); i++ {
		if as[i]-as[i-1] < 0.049 || as[i]-as[i-1] > 0.051 {
			t.Fatalf("uneven step at %d: %v", i, as[i]-as[i-1])
		}
	}
}

func TestOperationalZone(t *testing.T) {
	points := []SweepPoint{
		{Alpha: 0.4, CacheEfficiency: 0.1, ActualWriteGB: 10, RequestedWriteGB: 10},
		{Alpha: 0.5, CacheEfficiency: 0.35, ActualWriteGB: 12, RequestedWriteGB: 10},
		{Alpha: 0.6, CacheEfficiency: 0.5, ActualWriteGB: 15, RequestedWriteGB: 10},
		{Alpha: 0.7, CacheEfficiency: 0.7, ActualWriteGB: 25, RequestedWriteGB: 10},
	}
	lo, hi, ok := OperationalZone(points, 0.3, 2.0)
	if !ok || lo != 0.5 || hi != 0.6 {
		t.Fatalf("zone = [%v, %v] ok=%v, want [0.5, 0.6]", lo, hi, ok)
	}
	_, _, ok = OperationalZone(points, 0.99, 1.0)
	if ok {
		t.Fatal("impossible constraints reported a zone")
	}
}

func TestWriteAmplification(t *testing.T) {
	p := SweepPoint{ActualWriteGB: 20, RequestedWriteGB: 10}
	if p.WriteAmplification() != 2 {
		t.Fatalf("amplification = %v", p.WriteAmplification())
	}
	if (SweepPoint{}).WriteAmplification() != 1 {
		t.Fatal("zero-request amplification should be 1")
	}
}

func TestClosureCurve(t *testing.T) {
	repo := testRepo(t)
	points, err := ClosureCurve(repo, 100, 25, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("points = %d, want 4", len(points))
	}
	for i, pt := range points {
		if pt.ImagePackages < float64(pt.SpecSize) {
			t.Fatalf("closure shrank at %d: %v < %d", i, pt.ImagePackages, pt.SpecSize)
		}
		if pt.ImageGB < pt.SpecOnlyGB {
			t.Fatalf("image smaller than selection at %d", i)
		}
		if i > 0 && pt.ImagePackages < points[i-1].ImagePackages {
			t.Fatalf("image package count not monotone at %d", i)
		}
	}
}

func TestClosureCurveValidation(t *testing.T) {
	repo := testRepo(t)
	if _, err := ClosureCurve(nil, 10, 5, 1, 1); err == nil {
		t.Error("nil repo accepted")
	}
	if _, err := ClosureCurve(repo, 0, 5, 1, 1); err == nil {
		t.Error("zero maxSpec accepted")
	}
	if _, err := ClosureCurve(repo, 10, 0, 1, 1); err == nil {
		t.Error("zero step accepted")
	}
	if _, err := ClosureCurve(repo, 10, 5, 0, 1); err == nil {
		t.Error("zero samples accepted")
	}
}

func TestClosureCurveClampsToRepo(t *testing.T) {
	repo := testRepo(t)
	points, err := ClosureCurve(repo, repo.Len()*2, repo.Len(), 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	last := points[len(points)-1]
	if last.SpecSize != repo.Len() {
		t.Fatalf("last spec size = %d, want %d", last.SpecSize, repo.Len())
	}
	if int(last.ImagePackages) != repo.Len() {
		t.Fatalf("full selection should close to whole repo")
	}
}

func TestRunBaselines(t *testing.T) {
	repo := testRepo(t)
	stream, err := workload.Stream(workload.NewDepClosure(repo, 3), 20, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	results, err := RunBaselines(repo, stream, 0.8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("results = %d", len(results))
	}
	byName := map[string]BaselineResult{}
	for _, r := range results {
		byName[r.Name] = r
		if r.Requests != len(stream) {
			t.Fatalf("%s saw %d requests", r.Name, r.Requests)
		}
	}
	landlord := results[0]
	naive := byName["naive"]
	layered := byName["layered"]
	fullrepo := byName["fullrepo"]
	// LANDLORD stores less than the naive cache (the whole point).
	if landlord.StoredBytes >= naive.StoredBytes {
		t.Errorf("landlord stored %d >= naive %d", landlord.StoredBytes, naive.StoredBytes)
	}
	// And is more storage-efficient.
	if landlord.StorageEfficiency() <= naive.StorageEfficiency() {
		t.Errorf("landlord eff %v <= naive %v", landlord.StorageEfficiency(), naive.StorageEfficiency())
	}
	// The layered store transfers the whole chain per job: enormous.
	if layered.TransferredBytes <= naive.TransferredBytes {
		t.Errorf("layered transferred %d <= naive %d", layered.TransferredBytes, naive.TransferredBytes)
	}
	// The full-repo image stores the entire repository.
	if fullrepo.StoredBytes != repo.TotalSize() {
		t.Errorf("fullrepo stored %d != repo %d", fullrepo.StoredBytes, repo.TotalSize())
	}
	// The ideal copy-on-write store bounds everything from below on
	// storage and everything except fullrepo from below on transfers.
	cow := byName["ideal-cow"]
	if cow.StoredBytes > landlord.StoredBytes || cow.StoredBytes > naive.StoredBytes {
		t.Errorf("ideal-cow stored %d should lower-bound the container stores", cow.StoredBytes)
	}
	if cow.StorageEfficiency() != 1 {
		t.Errorf("ideal-cow efficiency = %v", cow.StorageEfficiency())
	}
}

func TestBaselineStorageEfficiencyEmpty(t *testing.T) {
	if (BaselineResult{}).StorageEfficiency() != 1 {
		t.Fatal("empty result efficiency should be 1")
	}
}

func TestReplayWithTrace(t *testing.T) {
	repo := testRepo(t)
	stream, err := workload.Stream(workload.NewDepClosure(repo, 4), 15, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewSharded(repo, core.Config{Alpha: 0.8, MinHash: core.DefaultMinHash()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Replay(m, stream, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != len(stream) {
		t.Fatalf("requests = %d", res.Requests)
	}
	if res.Alpha != 0.8 {
		t.Fatalf("alpha = %v", res.Alpha)
	}
}

func TestRunTracerSeesEveryRequest(t *testing.T) {
	// The Params.Events sink (the `-events` path) must receive one event
	// per request, and tracing must leave the run — timeline included —
	// exactly as an untraced run leaves it.
	p := testParams(t)
	p.TimelineEvery = 10
	untraced, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	p.Events = telemetry.NewJSONLSink(&buf)
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Events.Err(); err != nil {
		t.Fatal(err)
	}
	want := p.UniqueJobs * p.Repeats
	ops := map[string]int64{}
	dec := json.NewDecoder(&buf)
	events := 0
	for dec.More() {
		var ev telemetry.Event
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		if ev.TraceID != 0 {
			t.Fatalf("event %d links trace %s, which nothing retains", events, ev.TraceID)
		}
		events++
		ops[ev.Op]++
	}
	if events != want {
		t.Fatalf("sink saw %d events, want %d", events, want)
	}
	if ops["hit"] != res.Stats.Hits || ops["insert"] != res.Stats.Inserts || ops["merge"] != res.Stats.Merges {
		t.Fatalf("event op counts %v disagree with stats %+v", ops, res.Stats)
	}
	if len(res.Timeline) != want/10 {
		t.Fatalf("timeline points = %d, want %d", len(res.Timeline), want/10)
	}
	if !reflect.DeepEqual(res, untraced) {
		t.Fatalf("traced run differs from the untraced one:\n traced %+v\n untraced %+v", res, untraced)
	}
}

func TestSweepQuantiles(t *testing.T) {
	p := testParams(t)
	p.UniqueJobs = 15
	points, err := SweepAlpha(p, []float64{0.75}, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	pt := points[0]
	if pt.CacheEffP25 > pt.CacheEfficiency || pt.CacheEfficiency > pt.CacheEffP75 {
		t.Fatalf("cache quantiles disordered: %v <= %v <= %v",
			pt.CacheEffP25, pt.CacheEfficiency, pt.CacheEffP75)
	}
	if pt.ContainerEffP25 > pt.ContainerEfficiency || pt.ContainerEfficiency > pt.ContainerEffP75 {
		t.Fatalf("container quantiles disordered: %v <= %v <= %v",
			pt.ContainerEffP25, pt.ContainerEfficiency, pt.ContainerEffP75)
	}
}
