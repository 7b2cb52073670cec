// Command landlord-sim regenerates every table and figure of the
// LANDLORD paper's evaluation (IPDPS 2020, Section VI) from the
// simulation harness. Each subcommand prints the rows/series of one
// paper artifact:
//
//	landlord-sim repo               repository characterization (Section VI)
//	landlord-sim table2             Figure 2:  benchmark applications table
//	landlord-sim fig3               Figure 3:  image size vs selection size
//	landlord-sim fig4               Figure 4:  cache ops / duplication / I/O vs alpha
//	landlord-sim fig5               Figure 5:  single-simulation timeline
//	landlord-sim fig6               Figure 6:  efficiency vs cache size / job count
//	landlord-sim fig7               Figure 7:  dependency vs random workloads
//	landlord-sim fig8               Figure 8:  operational zone
//	landlord-sim baselines          Section III imperfect-solutions comparison
//
// Global flags select the repository (generated deterministically from
// -repo-seed, or loaded from -repo-file) and scale knobs such as -reps.
// Defaults reproduce the paper's configuration: a 9,660-package
// repository, 500 unique jobs repeated 5 times, a cache at the paper's
// 1.4x cache:repository ratio, α swept from 0.40 to 1.00 in steps of
// 0.05, and 20 repetitions per point with medians reported.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"repro/internal/pkggraph"
	"repro/internal/telemetry"
)

// options carries the global flags shared by all subcommands.
type options struct {
	repoSeed   int64
	repoFile   string
	seed       int64
	uniqueJobs int
	repeats    int
	reps       int
	cacheX     float64 // cache size as a multiple of the repo size
	alpha      float64
	maxInitial int
	parallel   int
	short      bool
	traceFile  string
	random     bool
	csvDir     string
	eventsFile string

	// out receives all experiment output (stdout in the binary,
	// buffers in tests).
	out io.Writer
	// events is the request-event sink opened from -events (nil when
	// event logging is off). Tests inject their own.
	events *telemetry.JSONLSink
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: landlord-sim <command> [flags]

commands:
  repo        print repository characterization
  packages    list every package key
  dot         emit a Graphviz rendering of the dependency graph
  table2      reproduce Figure 2 (benchmark applications)
  fig3        reproduce Figure 3 (image size vs selection size)
  fig4        reproduce Figure 4 (cache behavior over alpha)
  fig5        reproduce Figure 5 (single simulation timeline)
  fig6        reproduce Figure 6 (sensitivity to cache size and job count)
  fig7        reproduce Figure 7 (impact of dependencies)
  fig8        reproduce Figure 8 (limits on efficiency / operational zone)
  baselines   compare LANDLORD with naive / layered / full-repo stores
  cluster     multi-site deployment: placement policies vs head-node I/O
  trace-gen   generate a request-stream trace file
  replay      replay a trace file against a fresh cache
  drift       evolving workload: image bloat and splitting
  dedup       Section III: identifiable duplication vs merged images
  latency     per-job preparation latency over alpha
  campaign    multi-experiment WLCG-style campaign scenario
  zone        operational-zone bounds vs cache size

run 'landlord-sim <command> -h' for command flags
`)
	os.Exit(2)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	opt := &options{out: os.Stdout}
	fs.Int64Var(&opt.repoSeed, "repo-seed", 1, "seed for the synthetic repository generator")
	fs.StringVar(&opt.repoFile, "repo-file", "", "load the repository from this JSONL file instead of generating it")
	fs.Int64Var(&opt.seed, "seed", 1, "base seed for workloads")
	fs.IntVar(&opt.uniqueJobs, "unique", 500, "unique job specifications per simulation")
	fs.IntVar(&opt.repeats, "repeats", 5, "repetitions of each unique job")
	fs.IntVar(&opt.reps, "reps", 20, "independent simulations per sweep point (median reported)")
	fs.Float64Var(&opt.cacheX, "cache", 1.4, "cache capacity as a multiple of repository size")
	fs.Float64Var(&opt.alpha, "alpha", 0.75, "merge threshold for single-run commands")
	fs.IntVar(&opt.maxInitial, "max-initial", 100, "maximum initial package selection per job")
	fs.IntVar(&opt.parallel, "parallel", runtime.GOMAXPROCS(0), "simulation worker goroutines")
	fs.BoolVar(&opt.short, "short", false, "scale the experiment down for a quick smoke run")
	fs.StringVar(&opt.traceFile, "trace", "", "trace file for trace-gen / replay")
	fs.BoolVar(&opt.random, "random", false, "use the uniform-random workload (trace-gen)")
	fs.StringVar(&opt.csvDir, "csv", "", "also write machine-readable CSV files into this directory")
	fs.StringVar(&opt.eventsFile, "events", "", "write one JSONL telemetry event per simulated request to this file ('-' for stderr)")

	run, ok := commands[cmd]
	if !ok {
		fmt.Fprintf(os.Stderr, "landlord-sim: unknown command %q\n\n", cmd)
		usage()
	}
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}
	if opt.short {
		opt.uniqueJobs = 100
		opt.repeats = 3
		opt.reps = 3
	}
	var closeEvents func() error
	if opt.eventsFile != "" {
		sink, cf, err := openEvents(opt.eventsFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "landlord-sim: %v\n", err)
			os.Exit(1)
		}
		opt.events = sink
		closeEvents = cf
	}
	repo, err := loadRepo(opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "landlord-sim: %v\n", err)
		os.Exit(1)
	}
	if err := run(repo, opt); err != nil {
		fmt.Fprintf(os.Stderr, "landlord-sim: %s: %v\n", cmd, err)
		os.Exit(1)
	}
	if closeEvents != nil {
		if err := closeEvents(); err != nil {
			fmt.Fprintf(os.Stderr, "landlord-sim: writing events: %v\n", err)
			os.Exit(1)
		}
	}
}

// openEvents opens the -events sink: a JSONL stream to the named file,
// or to stderr for "-" (so event logs don't mix with experiment
// output on stdout). The returned func flushes and reports the first
// write error.
func openEvents(path string) (*telemetry.JSONLSink, func() error, error) {
	if path == "-" {
		sink := telemetry.NewJSONLSink(os.Stderr)
		return sink, sink.Err, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, fmt.Errorf("opening events file: %w", err)
	}
	sink := telemetry.NewJSONLSink(f)
	return sink, func() error {
		if err := sink.Err(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}, nil
}

var commands = map[string]func(*pkggraph.Repo, *options) error{
	"repo":      cmdRepo,
	"packages":  cmdPackages,
	"dot":       cmdDot,
	"table2":    cmdTable2,
	"fig3":      cmdFig3,
	"fig4":      cmdFig4,
	"fig5":      cmdFig5,
	"fig6":      cmdFig6,
	"fig7":      cmdFig7,
	"fig8":      cmdFig8,
	"baselines": cmdBaselines,
	"cluster":   cmdCluster,
	"trace-gen": cmdTraceGen,
	"replay":    cmdReplay,
	"drift":     cmdDrift,
	"dedup":     cmdDedup,
	"latency":   cmdLatency,
	"campaign":  cmdCampaign,
	"zone":      cmdZone,
}

func loadRepo(opt *options) (*pkggraph.Repo, error) {
	if opt.repoFile != "" {
		return pkggraph.LoadFile(opt.repoFile)
	}
	return pkggraph.Generate(pkggraph.DefaultGenConfig(), opt.repoSeed)
}
