package main

// The metric names and units of BENCHMARK.json. bench_test.go checks
// the two stay in step.

// metricDef is one end-to-end metric: its unit, whether lower is
// better, and two bounds, each the share of the parent's median by
// which the metric may worsen before a change counts as a regression.
//
// bound is BENCHMARK.json's. The driver holds the benchmark's own
// spread across ten different seeds to it, so it cannot be tighter than
// seed-to-seed variation: the paper's ratios differ by up to 15% between
// seeds, timings by up to 20% between runs on the sandbox this was
// built in. paired is what -compare applies, whose pairs share a seed:
// ISSUE 13's bounds, 0.02 on the three ratios (which repeat to ~0.2%
// for a seed, so a changed merge decision trips them) and 0.10 on the
// rest. A spread wider than paired reads "unresolved", not "unchanged".
type metricDef struct {
	name   string
	unit   string
	lower  bool
	bound  float64
	paired float64
}

var endToEnd = []metricDef{
	{"setup_s", "s", true, 0.25, 0.10},
	{"throughput_rps", "1/s", false, 0.25, 0.10},
	{"latency_p50_ms", "ms", true, 0.25, 0.10},
	{"recover_s", "s", true, 0.25, 0.10},
	{"write_amp", "ratio", true, 0.25, 0.02},
	{"cache_efficiency", "ratio", false, 0.25, 0.02},
	{"container_efficiency", "ratio", false, 0.25, 0.02},
	{"heap_mb", "MB", true, 0.25, 0.10},
	{"cpu_us_per_req", "us", true, 0.25, 0.10},
}

var endToEndUnits = func() map[string]string {
	m := map[string]string{}
	for _, d := range endToEnd {
		m[d.name] = d.unit
	}
	return m
}()

var perLayerUnits = map[string]string{
	"loadgen.sent":              "count",
	"loadgen.acked":             "count",
	"loadgen.failed":            "count",
	"loadgen.lag_p50_ms":        "ms",
	"loadgen.lag_p99_ms":        "ms",
	"loadgen.latency_p99_ms":    "ms",
	"loadgen.latency_p999_ms":   "ms",
	"loadgen.latency_p99_lo_ms": "ms",
	"loadgen.latency_p99_hi_ms": "ms",
	"loadgen.slo_miss_share":    "ratio",
	"loadgen.max_rate_ok_rps":   "1/s",
	"loadgen.transport_self_us": "us",

	// What the end-to-end timings read before they were stated at
	// nominal host speed, and the host index of the run (see hostWatch).
	"loadgen.setup_measured_s":        "s",
	"loadgen.throughput_measured_rps": "1/s",
	"loadgen.latency_p50_measured_ms": "ms",
	"loadgen.recover_measured_s":      "s",
	"loadgen.cpu_measured_us_per_req": "us",
	"host.speed_index":                "ratio",

	"pkggraph.lookup_us":   "us",
	"pkggraph.generate_ms": "ms",

	"spec.build_us":         "us",
	"spec.packages_per_req": "count",

	"similarity.sign_us": "us",

	"core.request_us":      "us",
	"core.hit_us":          "us",
	"core.merge_us":        "us",
	"core.insert_us":       "us",
	"core.hits":            "count",
	"core.merges":          "count",
	"core.inserts":         "count",
	"core.evictions":       "count",
	"core.hit_ratio":       "ratio",
	"core.images_resident": "count",
	"core.allocs_per_req":  "count",
	"core.lock_wait_us":    "us",

	"persist.commit_us":         "us",
	"persist.wait_durable_us":   "us",
	"persist.wal_bytes_per_req": "bytes",
	"persist.fs_writes_per_req": "count",
	"persist.fsyncs_per_req":    "count",
	"persist.group_commit_mean": "count",
	"persist.checkpoint_ms":     "ms",
	"persist.checkpoint_bytes":  "bytes",
	"persist.recover_replay_ms": "ms",
	"persist.recover_records":   "count",

	"server.handler_us":     "us",
	"server.self_us":        "us",
	"server.body_bytes":     "bytes",
	"server.allocs_per_req": "count",

	"resilience.shed": "count",

	"fleet.route_us":        "us",
	"fleet.forward_self_us": "us",
	"fleet.affinity_share":  "ratio",
	"fleet.retries":         "count",
	"fleet.agent_imbalance": "ratio",

	"telemetry.scrape_ms":   "ms",
	"telemetry.traces_kept": "count",

	"trace.accounted_share": "ratio",
}
