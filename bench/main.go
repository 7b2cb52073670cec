// Command bench is the repository's benchmark (the ROADMAP's
// landlord-bench): it boots the real serving stack in-process on
// loopback listeners, drives it open-loop and closed-loop from a seeded
// request stream, checks the answers, and prints every end-to-end or
// per-layer metric of BENCHMARK.json by name. See README.md.
//
//	go run . -workload hit_steady -seed 1              # end-to-end run
//	go run . -workload hit_steady -seed 1 -trace 1     # traced pass
//	go run . -collect runs.json -runs 5                # several runs of every workload
//	go run . -compare parent.json change.json          # pairing rule
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// execute performs one run and renders its result: the end-to-end
// metrics, or with cfg.trace the per-layer ones.
func execute(cfg runConfig) (result, *report, error) {
	rep := &report{e2e: map[string]float64{}, layer: map[string]float64{}}
	var err error
	if cfg.trace {
		// The traced run spends most of its budget replaying the stream
		// serially; its load phases only feed the generator's and the
		// registries' per-layer figures, at a fraction of the counts.
		cfg.setups = 1
		if err = runLoad(cfg, rep, 0.3); err == nil {
			err = runTraced(cfg, rep)
		}
	} else {
		err = runLoad(cfg, rep, 1)
	}
	if err != nil {
		return result{}, nil, err
	}
	src, units := rep.e2e, endToEndUnits
	if cfg.trace {
		src, units = rep.layer, perLayerUnits
	}
	res := result{
		Correct:   len(rep.violations) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricValue{},
	}
	for name, unit := range units {
		v, ok := src[name]
		if !ok {
			return result{}, nil, fmt.Errorf("metric %s was not measured", name)
		}
		res.Metrics[name] = metricValue{Value: v, Unit: unit}
	}
	return res, rep, nil
}

// invalidPrefix starts the line of standard output that marks a run
// invalid; -collect copies the rest of the line into the runs file.
// measuredPrefix starts the line that gives, as a JSON object, the
// run's host index and what its timings read before they were stated at
// nominal host speed; -collect copies that too.
const (
	invalidPrefix  = "invalid: "
	measuredPrefix = "measured: "
)

// measuredNames are the per-layer metrics of the measured line.
var measuredNames = []string{
	"host.speed_index",
	"loadgen.setup_measured_s",
	"loadgen.throughput_measured_rps",
	"loadgen.latency_p50_measured_ms",
	"loadgen.recover_measured_s",
	"loadgen.cpu_measured_us_per_req",
}

func printResult(cfg runConfig, res result, rep *report) error {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("workload %s seed %d seconds %g trace %v\n", cfg.w.name, cfg.seed, cfg.seconds, cfg.trace)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("  %-32s %14.4f %s\n", name, m.Value, m.Unit)
	}
	if rep.invalid != "" {
		fmt.Println(invalidPrefix + rep.invalid)
	}
	if !cfg.trace {
		measured := map[string]float64{}
		for _, name := range measuredNames {
			measured[name] = rep.layer[name]
		}
		line, err := json.Marshal(measured)
		if err != nil {
			return err
		}
		fmt.Println(measuredPrefix + string(line))
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name    = flag.String("workload", "", "workload to run (hit_steady, merge_churn, fleet_mixed, closure_mixed)")
		seed    = flag.Int64("seed", 1, "seed of the request stream and the arrival schedule")
		seconds = flag.Float64("seconds", 20, "length of the timed phases; every phase's request count derives from it")
		trace   = flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
		collect = flag.String("collect", "", "append -runs runs of -workload (default: every workload) at -seed to this runs file")
		runs    = flag.Int("runs", 5, "runs per workload for -collect")
		compare = flag.Bool("compare", false, "compare two runs files: -compare parent.json change.json")
	)
	flag.Parse()
	switch {
	case *compare:
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare needs two runs files")
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *collect != "":
		return collectRuns(*collect, *name, *seed, *seconds, *trace != 0, *runs)
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	dir := filepath.Join("out", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg := runConfig{w: w, seed: *seed, seconds: *seconds, trace: *trace != 0, setups: 3, dir: dir}
	res, rep, err := execute(cfg)
	if err != nil {
		return fmt.Errorf("workload %s seed %d: %w", w.name, cfg.seed, err)
	}
	if err := printResult(cfg, res, rep); err != nil {
		return err
	}
	for _, v := range rep.violations {
		fmt.Fprintf(os.Stderr, "bench: workload %s seed %d: %s\n", w.name, cfg.seed, v)
	}
	if len(rep.violations) > 0 {
		return fmt.Errorf("workload %s seed %d: %d correctness gate(s) failed", w.name, cfg.seed, len(rep.violations))
	}
	return nil
}
