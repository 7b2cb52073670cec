package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// runsFile is the format shared by the ledger rows under ledger/ and by
// the two inputs of -compare: every run made, in the order made, and a
// summary recomputed from them on each write.
type runsFile struct {
	Env     environment  `json:"env"`
	Runs    []runRecord  `json:"runs"`
	Summary []summaryRow `json:"summary"`
}

type environment struct {
	GitSHA string `json:"git_sha"`
	Go     string `json:"go"`
	CPU    string `json:"cpu"`
	NProc  int    `json:"nproc"`
}

type runRecord struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	// Invalid is why the run's open-loop latencies are not to be
	// trusted (the generator ran late); empty for a valid run.
	Invalid string `json:"invalid,omitempty"`
	// Measured is an end-to-end run's host index and what its timings
	// read before they were stated at nominal host speed.
	Measured map[string]float64 `json:"measured,omitempty"`
	Result   result             `json:"result"`
}

// summaryRow is one metric of one workload at one GOMAXPROCS: median
// and quartiles over its runs.
type summaryRow struct {
	Workload   string  `json:"workload"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Metric     string  `json:"metric"`
	Unit       string  `json:"unit"`
	N          int     `json:"n"`
	Median     float64 `json:"median"`
	Q1         float64 `json:"q1"`
	Q3         float64 `json:"q3"`
}

func describeEnvironment() environment {
	env := environment{GitSHA: "unknown", Go: runtime.Version(), CPU: "unknown", NProc: runtime.NumCPU()}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.GitSHA = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(bytes.NewReader(data))
		for sc.Scan() {
			if name, value, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
				env.CPU = strings.TrimSpace(value)
				break
			}
		}
	}
	return env
}

func readRuns(path string) (*runsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f runsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// values returns one metric's readings, in run order, over the runs of
// a workload at a GOMAXPROCS.
func (f *runsFile) values(workload string, procs int, metric string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if m, ok := r.Result.Metrics[metric]; ok && r.Workload == workload && r.GOMAXPROCS == procs {
			out = append(out, m.Value)
		}
	}
	return out
}

// runsOf returns the end-to-end runs of a workload at a GOMAXPROCS, in
// the order made.
func (f *runsFile) runsOf(workload string, procs int) []runRecord {
	var out []runRecord
	for _, r := range f.Runs {
		if r.Workload == workload && r.GOMAXPROCS == procs && !r.Trace {
			out = append(out, r)
		}
	}
	return out
}

func (f *runsFile) summarize() {
	type key struct {
		workload string
		procs    int
		metric   string
	}
	units := map[key]string{}
	for _, r := range f.Runs {
		for name, m := range r.Result.Metrics {
			units[key{r.Workload, r.GOMAXPROCS, name}] = m.Unit
		}
	}
	f.Summary = f.Summary[:0]
	for k, unit := range units {
		vals := f.values(k.workload, k.procs, k.metric)
		q1, q2, q3 := quartiles(vals)
		f.Summary = append(f.Summary, summaryRow{
			Workload: k.workload, GOMAXPROCS: k.procs, Metric: k.metric, Unit: unit,
			N: len(vals), Median: q2, Q1: q1, Q3: q3,
		})
	}
	sort.Slice(f.Summary, func(i, j int) bool {
		a, b := f.Summary[i], f.Summary[j]
		if a.Workload != b.Workload {
			return a.Workload < b.Workload
		}
		if a.GOMAXPROCS != b.GOMAXPROCS {
			return a.GOMAXPROCS > b.GOMAXPROCS
		}
		return a.Metric < b.Metric
	})
}

// collectRuns makes `runs` rounds over the chosen workloads (all of
// them when name is empty), each run a fresh process of this binary so
// set-up, heap and CPU start clean, and appends them to path. Every run
// uses the same seed, as -compare's pairs must. GOMAXPROCS is inherited
// from the environment and recorded, so a second invocation under
// GOMAXPROCS=1 adds the single-processor rows to the same file.
func collectRuns(path, name string, seed int64, seconds float64, trace bool, runs int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	f, err := readRuns(path)
	if errors.Is(err, fs.ErrNotExist) {
		f, err = &runsFile{}, nil
	}
	if err != nil {
		return err
	}
	f.Env = describeEnvironment()
	names := []string{name}
	if name == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	traceArg := "0"
	if trace {
		traceArg = "1"
	}
	for r := 0; r < runs; r++ {
		for _, wl := range names {
			cmd := exec.Command(self, "-workload", wl, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", traceArg)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("run %d of %s: %w", r, wl, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("run %d of %s: result line: %w", r, wl, err)
			}
			rec := runRecord{
				Workload: wl, Seed: seed, Seconds: seconds, Trace: trace,
				GOMAXPROCS: runtime.GOMAXPROCS(0), Result: res,
			}
			for _, line := range lines {
				if rest, ok := bytes.CutPrefix(line, []byte(invalidPrefix)); ok {
					rec.Invalid = string(rest)
				}
				if rest, ok := bytes.CutPrefix(line, []byte(measuredPrefix)); ok {
					if err := json.Unmarshal(rest, &rec.Measured); err != nil {
						return fmt.Errorf("run %d of %s: measured line: %w", r, wl, err)
					}
				}
			}
			f.Runs = append(f.Runs, rec)
			fmt.Fprintf(os.Stderr, "collected %s seed %d (%d/%d)\n", wl, seed, r+1, runs)
			f.summarize()
			data, err := json.MarshalIndent(f, "", " ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}
