package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/config"
)

// smoke runs every workload at 1/50 of the benchmark's request counts:
// every gate must hold and every metric of BENCHMARK.json must be
// measured.
func smoke(t *testing.T, trace bool, metrics int) {
	for i := range workloads {
		w := &workloads[i]
		cfg := runConfig{w: w, seed: 7, seconds: 20.0 / 50, trace: trace, setups: 1,
			dir: filepath.Join(t.TempDir(), "run")}
		res, rep, err := execute(cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for _, v := range rep.violations {
			t.Errorf("%s: %s", w.name, v)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.name, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != metrics {
			t.Errorf("%s: %d metrics, want %d", w.name, len(res.Metrics), metrics)
		}
		for name, m := range res.Metrics {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: %s = %v", w.name, name, m.Value)
			}
		}
		if trace {
			if _, err := os.Stat(filepath.Join(filepath.Dir(cfg.dir), "trace-"+w.name+".jsonl")); err != nil {
				t.Errorf("%s: traced pass left no span file: %v", w.name, err)
			}
		}
	}
}

func TestSmoke(t *testing.T) { smoke(t, false, len(endToEnd)) }

func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("the traced pass boots six topologies per workload")
	}
	smoke(t, true, len(perLayerUnits))
}

func TestWindowedPercentile(t *testing.T) {
	// Three windows of 100 with tails 1, 50 (a burst ten requests long)
	// and 2: the burst spoils its own window only.
	var vals []float64
	for _, tail := range []float64{1, 50, 2} {
		for i := 0; i < 100; i++ {
			v := 0.1
			if i >= 98 || (tail == 50 && i >= 90) {
				v = tail
			}
			vals = append(vals, v)
		}
	}
	got, windows := windowedPercentile(vals, 100, 0.99)
	if got != 2 || windows != 3 {
		t.Errorf("windowed p99 = %v over %d windows, want 2 over 3", got, windows)
	}
	if whole := percentile(vals, 0.99); whole != 50 {
		t.Errorf("whole-run p99 = %v, want the burst (50)", whole)
	}
	// A trailing partial window is dropped; a short input is one window.
	if _, windows := windowedPercentile(vals[:250], 100, 0.99); windows != 2 {
		t.Errorf("250 values made %d windows, want 2", windows)
	}
	if got, windows := windowedPercentile(vals[:50], 100, 0.5); got != 0.1 || windows != 1 {
		t.Errorf("short input: %v over %d windows", got, windows)
	}
}

func TestCuts(t *testing.T) {
	for _, tc := range []struct {
		n, size int
		want    []int
	}{
		{2400, 240, []int{0, 240, 480, 720, 960, 1200, 1440, 1680, 1920, 2160, 2400}},
		{2500, 1000, []int{0, 1000, 2000, 2500}}, // a half segment stands alone
		{2499, 1000, []int{0, 1000, 2499}},       // a shorter tail joins the last
		{50, 100, []int{0, 50}},
		{50, 0, []int{0, 50}},
	} {
		if got := cuts(tc.n, tc.size); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("cuts(%d, %d) = %v, want %v", tc.n, tc.size, got, tc.want)
		}
	}
}

func TestReadingsAtNominalSpeed(t *testing.T) {
	// Ten segments of 100 req/s. The host runs the third and fourth at
	// 0.8 of nominal speed (index 1.25): as measured they read 80, at
	// nominal speed 100. The program stalls in the seventh: 50 as
	// measured and, the host being at nominal speed, 50 at nominal too.
	rates := make([]reading, 10)
	for i := range rates {
		rates[i] = reading{100, 1}
	}
	rates[2], rates[3], rates[6] = reading{80, 1.25}, reading{80, 1.25}, reading{50, 1}
	measured, nominal := medianRates(rates)
	if measured != 100 || nominal != 100 {
		t.Errorf("median rate = %v measured, %v nominal, want 100, 100", measured, nominal)
	}
	// A stall that recurs in most segments (a checkpoint, a GC cycle) is
	// in the median whatever the host does.
	for i := 0; i < 6; i++ {
		rates[i] = reading{50, 1}
	}
	if _, nominal := medianRates(rates); nominal != 50 {
		t.Errorf("median rate with a recurring stall = %v, want 50", nominal)
	}
	// A host slow for the whole run moves every reading as measured and
	// none at nominal speed.
	times := []reading{{1.5, 1.5}, {1.5, 1.5}, {3, 1.5}, {1.5, 1.5}, {1.5, 1.5}}
	if measured, nominal := medianTimes(times); measured != 1.5 || nominal != 1 {
		t.Errorf("median time = %v measured, %v nominal, want 1.5, 1", measured, nominal)
	}
}

func TestHostIndex(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	samples := []hostSample{
		{at(0), 1 * hostNominal}, {at(10), 1 * hostNominal}, {at(20), 2 * hostNominal},
		{at(30), 1.5 * hostNominal}, {at(40), 1.5 * hostNominal}, {at(50), 3 * hostNominal},
	}
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }
	if got := indexOf(samples, at(15), at(45)); !near(got, 1.5) {
		t.Errorf("index of [15, 45] ms = %v, want the median of 2, 1.5, 1.5", got)
	}
	if got := indexOf(samples, at(21), at(24)); !near(got, 2) {
		t.Errorf("index of an interval between samples = %v, want the nearest, 2", got)
	}
	if got := indexOf(samples, at(60), at(70)); !near(got, 3) {
		t.Errorf("index past the last sample = %v, want the last, 3", got)
	}
	if got := indexOf(nil, at(0), at(10)); got != 1 {
		t.Errorf("index with no sample = %v, want 1", got)
	}
}

func TestHostWatchSamples(t *testing.T) {
	h, err := startHostWatch()
	if err != nil {
		t.Fatal(err)
	}
	from := time.Now()
	time.Sleep(10 * sampleEvery)
	got := h.index(from, time.Now())
	h.stop()
	if len(h.samples) < 5 {
		t.Fatalf("%d samples in %v", len(h.samples), 10*sampleEvery)
	}
	// Any machine this runs on is within a factor of ten of the sandbox.
	if got < 0.1 || got > 10 {
		t.Errorf("host index %v", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestSeedFixesScheduleAndStream(t *testing.T) {
	a := poissonSchedule(3, 1000, 500)
	if !reflect.DeepEqual(a, poissonSchedule(3, 1000, 500)) {
		t.Error("same seed, different schedule")
	}
	if reflect.DeepEqual(a, poissonSchedule(4, 1000, 500)) {
		t.Error("different seeds, same schedule")
	}
	if mean := a[len(a)-1].Seconds() / float64(len(a)); math.Abs(mean-0.001) > 0.0002 {
		t.Errorf("mean gap %v s at 1000 req/s", mean)
	}
	repo, err := config.Default().OpenRepo()
	if err != nil {
		t.Fatal(err)
	}
	for i := range workloads {
		w := &workloads[i]
		x := newStream(w, repo, 3, 200)
		y := newStream(w, repo, 3, 300)
		if !reflect.DeepEqual(x.warm, y.warm) || !reflect.DeepEqual(x.reqs, y.reqs[:200]) {
			t.Errorf("%s: a shorter stream is not a prefix of a longer one", w.name)
		}
		if reflect.DeepEqual(x.reqs, newStream(w, repo, 4, 200).reqs) {
			t.Errorf("%s: different seeds, same stream", w.name)
		}
	}
}

func TestRingSelfTimes(t *testing.T) {
	r := ringTimes{lookup: 9, build: 2, sign: 40, core: 230, commit: 280, wait: 250,
		server: 820, loopback: 1060, fleet: 1500, coreSigned: true}
	got := r.self(true)
	want := selfTimes{pkggraph: 9, spec: 2, similarity: 40, core: 190, persist: 530,
		server: 820 - (9 + 2 + 230 + 280 + 250), transport: 240, fleet: 440}
	if got != want {
		t.Errorf("self times %+v, want %+v", got, want)
	}
	if got.sum() != r.fleet {
		t.Errorf("self times sum to %v, want the outermost ring %v", got.sum(), r.fleet)
	}
	// A hit never signs, and outside a fleet the loopback ring is outermost.
	r.coreSigned = false
	got = r.self(false)
	if got.similarity != 0 || got.core != 230 || got.fleet != 0 || got.sum() != r.loopback {
		t.Errorf("hit outside a fleet: %+v", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{name: "latency_p50_ms", unit: "ms", lower: true, bound: 0.25, paired: 0.10}
	parent := []float64{10, 10.2, 9.9, 10.1, 10, 9.8, 10.3, 10, 10.1, 9.9}
	scale := func(f float64) []float64 {
		out := make([]float64, len(parent))
		for i, v := range parent {
			out[i] = v * f
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		change []float64
		want   string
	}{
		{"same", scale(1.001), "unchanged"},
		{"faster", scale(0.8), "improved"},
		{"slower", scale(1.2), "regressed"},
		{"noisy", []float64{8, 12, 9, 13, 7, 11, 10, 14, 6, 10}, "unresolved (spread exceeds bound)"},
		{"few", scale(0.8)[:5], "unresolved (5 pairs, need 10)"},
	} {
		if got, _ := verdict(lower, parent, tc.change); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
	higher := metricDef{name: "throughput_rps", unit: "1/s", bound: 0.25, paired: 0.10}
	if got, wins := verdict(higher, parent, scale(1.2)); got != "improved" || wins != 10 {
		t.Errorf("higher-is-better: %q with %d wins", got, wins)
	}
	// The paper's ratios are held to 0.02 between same-seed pairs,
	// whatever BENCHMARK.json's cross-seed bound: a change that alters
	// merge decisions and writes 10% more must not read unchanged.
	for _, d := range endToEnd {
		if d.name != "write_amp" {
			continue
		}
		amp := []float64{1.390, 1.391, 1.390, 1.392, 1.390, 1.391, 1.389, 1.390, 1.391, 1.390}
		more := make([]float64, len(amp))
		for i, v := range amp {
			more[i] = v * 1.10
		}
		if got, _ := verdict(d, amp, more); got != "regressed" {
			t.Errorf("write_amp 10%% worse: verdict %q, want regressed", got)
		}
	}
}

// TestBenchmarkJSONInStep checks that BENCHMARK.json names the same
// workloads and metrics, with the same units, directions and bounds, as
// the tables the program prints from.
func TestBenchmarkJSONInStep(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Paths     []string `json:"paths"`
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		d := endToEnd[i]
		better := "higher"
		if d.lower {
			better = "lower"
		}
		if m.Name != d.name || m.Unit != d.unit || m.Better != better || m.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
	if len(spec.PerLayer) != len(perLayerUnits) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(spec.PerLayer), len(perLayerUnits))
	}
	for _, m := range spec.PerLayer {
		if unit, ok := perLayerUnits[m.Name]; !ok || unit != m.Unit {
			t.Errorf("per-layer metric %s: unit %q in BENCHMARK.json, %q in the program", m.Name, m.Unit, unit)
		}
	}
}
