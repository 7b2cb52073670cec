package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/config"
	"repro/internal/persist"
	"repro/internal/pkggraph"
	"repro/internal/server"
	"repro/internal/telemetry"
)

const (
	// latencyWindow is the due-time window of the windowed p99 (ten
	// samples beyond it).
	latencyWindow = 1000
	// segmentSize is how many consecutive requests of open_mid and of
	// closed make one segment: a stretch run and timed on its own, whose
	// median latency or completion rate is one sample, the metric being
	// the median over segments. A phase shorter than minSegments segments
	// is cut into minSegments equal ones instead.
	segmentSize = 1000
	minSegments = 10
	// recoverTrials is how many times at most the crashed state directory
	// is recovered; recover_s is the median. Trials stop early once they
	// have taken recoverBudget together, so a long WAL tail does not push
	// the run past its time limit.
	recoverTrials = 7
	recoverBudget = 1500 * time.Millisecond
	// probeSpecs is how many recently acked specs must come back as hits
	// on the same image after recovery.
	probeSpecs = 8
)

// runConfig is one invocation of the benchmark.
type runConfig struct {
	w       *workload
	seed    int64
	seconds float64
	trace   bool
	// setups is how many times set-up runs; setup_s is the median and
	// the last stack serves the run.
	setups int
	// dir is the scratch root for state directories.
	dir string
}

// report is what a run measured. e2e and layer are keyed by the metric
// names of BENCHMARK.json; violations lists every failed correctness
// gate. invalid is set when the answers were right but the generator
// ran too late for the open-loop latencies to describe the server.
type report struct {
	e2e        map[string]float64
	layer      map[string]float64
	attempted  int
	failed     int
	violations []string
	invalid    string
}

func (r *report) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

// reading is one measurement and the host index of the interval it was
// taken in (see hostWatch).
type reading struct{ value, index float64 }

// medianTimes returns the median of durations as measured and at
// nominal host speed: each over its own index.
func medianTimes(ss []reading) (measured, nominal float64) {
	var m, n []float64
	for _, s := range ss {
		m, n = append(m, s.value), append(n, s.value/s.index)
	}
	return median(m), median(n)
}

// medianRates is medianTimes for rates: each times its own index.
func medianRates(ss []reading) (measured, nominal float64) {
	var m, n []float64
	for _, s := range ss {
		m, n = append(m, s.value), append(n, s.value*s.index)
	}
	return median(m), median(n)
}

// stack is a booted topology with its request stream and generator.
type stack struct {
	repo   *pkggraph.Repo
	topo   *topology
	stream *stream
	enc    *bodyEncoder
	gen    *loadgen
	// generateMS is the time pkggraph took to generate the repository.
	generateMS float64
}

func (s *stack) close() {
	s.gen.close()
	s.topo.close()
}

// setUp does everything a run needs before its first timed request:
// generate the repository (seed 1, the shipped default), boot the
// topology, generate n requests, quote the package keys, and warm the
// cache through the same connections the phases use.
func setUp(cfg runConfig, dir string, n int) (*stack, error) {
	t0 := time.Now()
	repo, err := config.Default().OpenRepo()
	if err != nil {
		return nil, err
	}
	s := &stack{repo: repo, generateMS: time.Since(t0).Seconds() * 1e3}
	if s.topo, err = bootTopology(cfg.w, repo, dir, true); err != nil {
		return nil, err
	}
	s.stream = newStream(cfg.w, repo, cfg.seed, n)
	s.enc = newBodyEncoder(repo, cfg.w.unclosed)
	s.gen = newLoadgen(cfg.w, s.topo.url, s.enc)
	// One connection: two would race for the cache lock and the state the
	// run starts from, and with it the paper's ratios, would differ from
	// run to run.
	s.gen.run(s.stream.warm, nil, 1, false)
	if err := s.topo.maintain(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// siteStats sums /v1/stats over the topology's daemons. The paper's
// three ratios are recomputed from the sums so a fleet reports one
// site-wide figure.
func siteStats(t *topology) (server.StatsResponse, error) {
	var sum server.StatsResponse
	var effWeighted float64
	for _, n := range t.nodes {
		var st server.StatsResponse
		if err := getJSON(n.url+"/v1/stats", &st); err != nil {
			return sum, err
		}
		sum.Requests += st.Requests
		sum.Hits += st.Hits
		sum.Merges += st.Merges
		sum.Inserts += st.Inserts
		sum.Deletes += st.Deletes
		sum.BytesWritten += st.BytesWritten
		sum.RequestedBytes += st.RequestedBytes
		sum.Images += st.Images
		sum.TotalData += st.TotalData
		sum.UniqueData += st.UniqueData
		effWeighted += st.ContainerEfficiency * float64(st.Requests)
	}
	if sum.TotalData > 0 {
		sum.CacheEfficiency = float64(sum.UniqueData) / float64(sum.TotalData)
	}
	if sum.Requests > 0 {
		sum.ContainerEfficiency = effWeighted / float64(sum.Requests)
	}
	return sum, nil
}

// scrape fetches and parses a /metrics page, returning how long the
// render took.
func scrape(url string) (*telemetry.Scrape, time.Duration, error) {
	t0 := time.Now()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	sc, err := telemetry.ParseText(resp.Body)
	return sc, time.Since(t0), err
}

// cpuSeconds is the CPU time, user and system, this process has used.
func cpuSeconds() float64 {
	const clockProcessCPUTime = 2 // CLOCK_PROCESS_CPUTIME_ID
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return float64(ts.Sec) + float64(ts.Nsec)/1e9
}

// openPhase is one open-loop phase's digest.
type openPhase struct {
	rate  float64
	p99ms float64
	meets bool
	res   *phaseResult
	// medians are the segments' median latencies in seconds.
	medians []reading
}

func (cfg runConfig) openPhase(s *stack, reqs []request, rate float64, seedOff int64, host *hostWatch) openPhase {
	return cfg.openSegments(s, reqs, rate, seedOff, len(reqs), host)
}

// openSegments runs an open-loop phase in consecutive segments of size
// requests, each on its own stretch of one Poisson schedule, so that
// each segment's median latency can be stated at the host speed of its
// own fraction of a second. The digest is over the whole phase.
func (cfg runConfig) openSegments(s *stack, reqs []request, rate float64, seedOff int64, size int, host *hostWatch) openPhase {
	due := poissonSchedule(cfg.seed+seedOff, rate, len(reqs))
	whole := &phaseResult{}
	ph := openPhase{rate: rate}
	bounds := cuts(len(reqs), size)
	for k := 1; k < len(bounds); k++ {
		lo, hi := bounds[k-1], bounds[k]
		seg := make([]time.Duration, hi-lo)
		var base time.Duration
		if lo > 0 {
			base = due[lo-1]
		}
		for i := range seg {
			seg[i] = due[lo+i] - base
		}
		t0 := time.Now()
		res := s.gen.run(reqs[lo:hi], seg, s.gen.conns, false)
		whole.latency = append(whole.latency, res.latency...)
		whole.lag = append(whole.lag, res.lag...)
		whole.failed += res.failed
		ph.medians = append(ph.medians, reading{median(res.latency), host.index(t0, time.Now())})
	}
	p99, _ := windowedPercentile(whole.latency, latencyWindow, 0.99)
	// A backlog is growing when the last quarter of the phase waits
	// twice as long as the phase as a whole.
	tail := whole.latency[len(whole.latency)*3/4:]
	growing := median(tail) > 2*median(whole.latency)
	ph.p99ms = p99 * 1e3
	ph.meets = whole.failed == 0 && !growing && p99*1e3 <= cfg.w.sloMS
	ph.res = whole
	return ph
}

// cuts returns the bounds of consecutive segments of size items over n
// items: segment k is [cuts[k], cuts[k+1]). A tail shorter than half a
// segment joins the last one.
func cuts(n, size int) []int {
	bounds := []int{0}
	if size <= 0 {
		size = n
	}
	for lo := size; lo < n && n-lo >= size/2; lo += size {
		bounds = append(bounds, lo)
	}
	return append(bounds, n)
}

// runLoad executes the run shape shared by every workload:
//
//	setup -> open_mid -> snapshot -> open_lo -> open_hi -> closed -> crash_recover
//
// scale shrinks the phase counts (the traced run spends most of its
// time in the traced pass and only needs the load phases for the
// generator's and the registries' per-layer figures).
func runLoad(cfg runConfig, rep *report, scale float64) error {
	w := cfg.w
	c := w.counts(cfg.seconds * scale)

	host, err := startHostWatch()
	if err != nil {
		return err
	}
	defer host.stop()

	// setup, several times over; the median is setup_s.
	var s *stack
	var setups []reading
	for k := 0; k < cfg.setups; k++ {
		if s != nil {
			s.close()
		}
		t0 := time.Now()
		s, err = setUp(cfg, filepath.Join(cfg.dir, fmt.Sprintf("setup-%d", k)), c.total())
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		t1 := time.Now()
		setups = append(setups, reading{t1.Sub(t0).Seconds(), host.index(t0, t1)})
	}
	defer func() { s.close() }()
	rep.layer["loadgen.setup_measured_s"], rep.e2e["setup_s"] = medianTimes(setups)
	rep.layer["pkggraph.generate_ms"] = s.generateMS

	reqs := s.stream.reqs
	take := func(n int) []request {
		out := reqs[:n]
		reqs = reqs[n:]
		return out
	}

	// open_mid: the phase every open-loop end-to-end figure comes from.
	midReqs := take(c.mid)
	mid := cfg.openSegments(s, midReqs, w.throughput*rateMidX, 2, min(segmentSize, len(midReqs)/minSegments), host)
	measured, nominal := medianTimes(mid.medians)
	rep.layer["loadgen.latency_p50_measured_ms"], rep.e2e["latency_p50_ms"] = measured*1e3, nominal*1e3
	rep.layer["loadgen.latency_p99_ms"] = mid.p99ms
	rep.layer["loadgen.lag_p50_ms"] = median(mid.res.lag) * 1e3
	rep.layer["loadgen.lag_p99_ms"] = percentile(mid.res.lag, 0.99) * 1e3
	rep.layer["loadgen.latency_p999_ms"] = percentile(mid.res.latency, 0.999) * 1e3
	var missed int
	for _, l := range mid.res.latency {
		if l*1e3 > w.sloMS {
			missed++
		}
	}
	rep.layer["loadgen.slo_miss_share"] = float64(missed) / float64(len(mid.res.latency))
	if lag, p50 := rep.layer["loadgen.lag_p99_ms"], rep.layer["loadgen.latency_p50_measured_ms"]; lag > p50 {
		rep.invalid = fmt.Sprintf("generator lag p99 %.3f ms exceeds latency p50 %.3f ms", lag, p50)
	}

	// snapshot: the quality metrics at a pinned stream position.
	if err := s.topo.maintain(); err != nil {
		return err
	}
	st, err := siteStats(s.topo)
	if err != nil {
		return err
	}
	rep.e2e["write_amp"] = float64(st.BytesWritten) / float64(st.RequestedBytes)
	rep.e2e["cache_efficiency"] = st.CacheEfficiency
	rep.e2e["container_efficiency"] = st.ContainerEfficiency
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.e2e["heap_mb"] = float64(ms.HeapAlloc) / (1 << 20)
	_, scrapeTook, err := scrape(s.topo.nodes[0].url)
	if err != nil {
		return err
	}
	rep.layer["telemetry.scrape_ms"] = scrapeTook.Seconds() * 1e3

	// open_lo, open_hi: diagnostic rates either side of open_mid's.
	lo := cfg.openPhase(s, take(c.lo), w.throughput*rateLoX, 3, host)
	if err := s.topo.maintain(); err != nil {
		return err
	}
	hi := cfg.openPhase(s, take(c.hi), w.throughput*rateHiX, 4, host)
	if err := s.topo.maintain(); err != nil {
		return err
	}
	rep.layer["loadgen.latency_p99_lo_ms"] = lo.p99ms
	rep.layer["loadgen.latency_p99_hi_ms"] = hi.p99ms
	rep.layer["loadgen.max_rate_ok_rps"] = 0
	for _, ph := range []openPhase{lo, mid, hi} {
		if ph.meets {
			rep.layer["loadgen.max_rate_ok_rps"] = ph.rate
		}
	}

	// closed: as many clients as processors, each sending on reply.
	closedReqs := take(c.closed)
	var rates []reading
	var cpuMeasured, cpuNominal float64
	var acked int
	bounds := cuts(len(closedReqs), min(segmentSize, len(closedReqs)/minSegments))
	for k := 1; k < len(bounds); k++ {
		seg := closedReqs[bounds[k-1]:bounds[k]]
		t0 := time.Now()
		res := s.gen.run(seg, nil, s.gen.conns, false)
		t1 := time.Now()
		index := host.index(t0, t1)
		rates = append(rates, reading{float64(len(seg)) / t1.Sub(t0).Seconds(), index})
		cpuMeasured += res.cpu
		cpuNominal += res.cpu / index
		acked += len(seg) - res.failed
	}
	rep.layer["loadgen.throughput_measured_rps"], rep.e2e["throughput_rps"] = medianRates(rates)
	rep.layer["loadgen.cpu_measured_us_per_req"] = cpuMeasured / float64(acked) * 1e6
	rep.e2e["cpu_us_per_req"] = cpuNominal / float64(acked) * 1e6
	rep.layer["host.speed_index"] = host.overall()

	if err := registryMetrics(s.topo, rep); err != nil {
		return err
	}

	// Gate: every acked request is exactly one decision in /v1/stats.
	st, err = siteStats(s.topo)
	if err != nil {
		return err
	}
	if got := st.Hits + st.Merges + st.Inserts; int64(s.gen.acked) != got || st.Requests != got {
		rep.violate("acked %d != hits+merges+inserts %d (requests %d)", s.gen.acked, got, st.Requests)
	}
	if int64(s.gen.ops["hit"]) != st.Hits || int64(s.gen.ops["merge"]) != st.Merges || int64(s.gen.ops["insert"]) != st.Inserts {
		rep.violate("ops seen by clients %v != /v1/stats hits=%d merges=%d inserts=%d",
			s.gen.ops, st.Hits, st.Merges, st.Inserts)
	}

	tail := closedReqs
	if len(tail) > 64 {
		tail = tail[len(tail)-64:]
	}
	err = crashRecover(cfg, s, rep, tail, host)
	rep.layer["loadgen.sent"] = float64(s.gen.sent)
	rep.layer["loadgen.acked"] = float64(s.gen.acked)
	rep.layer["loadgen.failed"] = float64(s.gen.failed)
	rep.attempted += s.gen.sent
	rep.failed += s.gen.failed
	if s.gen.firstEr != nil {
		rep.violate("%d request(s) failed, first: %v", s.gen.failed, s.gen.firstEr)
	}
	return err
}

// registryMetrics reads, after the closed phase, the per-layer figures
// the daemons' and the master's public /metrics already keep.
func registryMetrics(t *topology, rep *report) error {
	var lockSum, lockCount, gcSum, gcCount, shed, kept float64
	for _, n := range t.nodes {
		sc, _, err := scrape(n.url)
		if err != nil {
			return err
		}
		for _, path := range []string{"read", "write"} {
			l := telemetry.Label{Key: "path", Value: path}
			v, _ := sc.Value("landlord_lock_wait_seconds_sum", l)
			lockSum += v
			v, _ = sc.Value("landlord_lock_wait_seconds_count", l)
			lockCount += v
		}
		v, _ := sc.Value("landlord_persist_group_commit_records_sum")
		gcSum += v
		v, _ = sc.Value("landlord_persist_group_commit_records_count")
		gcCount += v
		v, _ = sc.Value("landlord_shed_requests_total")
		shed += v
		v, _ = sc.Value("landlord_trace_ring_kept")
		kept += v
	}
	rep.layer["core.lock_wait_us"] = ratio(lockSum*1e6, lockCount)
	rep.layer["persist.group_commit_mean"] = ratio(gcSum, gcCount)
	rep.layer["resilience.shed"] = shed
	rep.layer["telemetry.traces_kept"] = kept

	rep.layer["fleet.affinity_share"] = 0
	rep.layer["fleet.retries"] = 0
	rep.layer["fleet.agent_imbalance"] = 0
	if t.master == nil {
		return nil
	}
	sc, _, err := scrape(t.url)
	if err != nil {
		return err
	}
	var ok, notOK, most float64
	for _, n := range t.nodes {
		agent := telemetry.Label{Key: "agent", Value: n.site.AgentID}
		for _, outcome := range []string{"ok", "shed", "rejected", "unavailable", "circuit_open", "transport_error"} {
			v, _ := sc.Value("landlord_fleet_route_total", agent, telemetry.Label{Key: "outcome", Value: outcome})
			if outcome != "ok" {
				notOK += v
				continue
			}
			ok += v
			if v > most {
				most = v
			}
		}
	}
	affinity, _ := sc.Value("landlord_fleet_route_affinity_total")
	rep.layer["fleet.affinity_share"] = ratio(affinity, ok+notOK)
	rep.layer["fleet.retries"] = notOK
	// The busiest agent's share of forwards over an even share: 1 is
	// perfectly balanced.
	rep.layer["fleet.agent_imbalance"] = ratio(most*float64(len(t.nodes)), ok)
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// crashRecover drops one daemon without a final checkpoint, recovers
// its state directory recoverTrials times from byte-identical copies,
// and checks what recovery promises: the recovered /v1/stats equal the
// crashed daemon's, a seeded sample of recently acked specs are hits on
// the images they had, and the recovered cache passes CheckIntegrity.
func crashRecover(cfg runConfig, s *stack, rep *report, tail []request, host *hostWatch) error {
	victim := s.topo.nodes[0]

	// Probe a seeded sample of the last requests directly at the victim
	// (in a fleet the master may route a repeat elsewhere).
	rng := rand.New(rand.NewSource(cfg.seed + 5))
	var sample []request
	for _, i := range rng.Perm(len(tail)) {
		if len(sample) == probeSpecs {
			break
		}
		sample = append(sample, tail[i])
	}
	probe := newLoadgen(cfg.w, victim.url, s.enc)
	defer func() {
		probe.close()
		rep.attempted += probe.sent
		rep.failed += probe.failed
		if probe.firstEr != nil {
			rep.violate("recovery probe: %v", probe.firstEr)
		}
	}()
	// Sent twice, so that the second pass is hits wherever the cache can
	// hold the sample at once. What the crash is then known to leave
	// resident is the last spec sent and, before it, every spec followed
	// only by hits (a hit evicts nothing): sample[resident:].
	probe.run(sample, nil, 1, false)
	before := probe.run(sample, nil, 1, true)
	resident := len(sample) - 1
	for resident > 0 && before.replies[resident].Op == "hit" {
		resident--
	}
	sample, before.replies = sample[resident:], before.replies[resident:]
	lastSent := &sample[len(sample)-1]

	// Under fsync=interval a killed process keeps what it wrote to the
	// kernel but not necessarily what it synced; the benchmark measures
	// recovery, not loss, so the tail is synced first.
	if victim.site.PersistOptions().SyncPolicy != persist.FsyncAlways {
		if err := victim.store.Sync(); err != nil {
			return err
		}
	}
	var want server.StatsResponse
	if err := getJSON(victim.url+"/v1/stats", &want); err != nil {
		return err
	}
	victim.crash()

	// Every recovery below starts from a byte-identical copy of the
	// crashed state directory.
	copyCrashed := func(name string) (string, error) {
		d := filepath.Join(cfg.dir, name)
		return d, copyDir(victim.site.StateDir, d)
	}

	// Layer view: persist alone replays the copy, and the cache it
	// rebuilds must be internally consistent.
	layerDir, err := copyCrashed("recover-persist")
	if err != nil {
		return err
	}
	store, err := persist.Open(layerDir, victim.site.PersistOptions())
	if err != nil {
		return err
	}
	sm, rr, err := store.RecoverSharded(s.repo, victim.site.CoreConfig(s.repo))
	if err != nil {
		return err
	}
	if err := sm.CheckIntegrity(); err != nil {
		rep.violate("recovered cache fails CheckIntegrity: %v", err)
	}
	store.Close()
	rep.layer["persist.recover_replay_ms"] = rr.Duration.Seconds() * 1e3
	rep.layer["persist.recover_records"] = float64(rr.RecordsReplayed)

	// End-to-end view: restart -> recovered -> re-registered -> first
	// request acked through the front door.
	var recoveries []reading
	var firstAgent string
	var spent time.Duration
	front := &sender{g: s.gen}
	for k := 0; k < recoverTrials; k++ {
		site := victim.site
		if site.StateDir, err = copyCrashed(fmt.Sprintf("recover-%d", k)); err != nil {
			return err
		}
		t0 := time.Now()
		n, err := startNode(site, s.repo)
		if err != nil {
			return fmt.Errorf("recover trial %d: %w", k, err)
		}
		s.topo.nodes[0] = n
		if err := s.topo.beat(); err != nil {
			return err
		}
		first, err := front.send(lastSent)
		t1 := time.Now()
		recoveries = append(recoveries, reading{t1.Sub(t0).Seconds(), host.index(t0, t1)})
		rep.attempted++
		if err != nil {
			rep.failed++
			rep.violate("first request after recovery: %v", err)
		}
		firstAgent = first.Agent
		spent += time.Since(t0)
		if k == recoverTrials-1 || spent >= recoverBudget {
			break
		}
		n.crash()
	}
	rep.layer["loadgen.recover_measured_s"], rep.e2e["recover_s"] = medianTimes(recoveries)

	// Gates on the recovered daemon. If the first request above reached
	// it (a fleet's master may have routed it to the other agent) it was
	// a hit, so the recovered counters are the crashed ones plus that hit.
	recovered := s.topo.nodes[0]
	var got server.StatsResponse
	if err := getJSON(recovered.url+"/v1/stats", &got); err != nil {
		return err
	}
	if firstAgent == "" || firstAgent == victim.site.AgentID {
		want.Requests++
		want.Hits++
		want.RequestedBytes += lastSent.bytes
	}
	got.ContainerEfficiency, want.ContainerEfficiency = 0, 0
	if got != want {
		rep.violate("recovered /v1/stats %+v != crashed %+v", got, want)
	}
	probe.url = recovered.url + "/v1/request"
	after := probe.run(sample, nil, 1, true)
	for i := range sample {
		a, b := after.replies[i], before.replies[i]
		if a.Op != "hit" || a.ImageID != b.ImageID || a.ImageVersion != b.ImageVersion {
			rep.violate("spec acked before the crash as image %d v%d came back %s on image %d v%d",
				b.ImageID, b.ImageVersion, a.Op, a.ImageID, a.ImageVersion)
		}
	}
	return nil
}
