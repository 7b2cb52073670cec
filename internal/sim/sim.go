// Package sim is the trace-driven simulation harness that regenerates
// the paper's evaluation (Section VI): single instrumented runs
// (Figure 5), α sweeps with repeated trials and median reporting
// (Figures 4, 6, 7, 8), and baseline comparisons.
//
// Every run is deterministic given its Params. Sweeps fan repetitions
// out over a bounded worker pool; each repetition is an independent
// cache, so no locking is needed beyond the result collection.
package sim

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/pkggraph"
	"repro/internal/spec"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// WorkloadKind selects the request-generation scheme.
type WorkloadKind uint8

// Workload schemes (Section VI).
const (
	// WorkloadDeps is the dependency scheme: random initial selection
	// plus dependency closure.
	WorkloadDeps WorkloadKind = iota
	// WorkloadRandom is the uniform random scheme of Figure 7.
	WorkloadRandom
)

// String names the scheme.
func (k WorkloadKind) String() string {
	switch k {
	case WorkloadDeps:
		return "deps"
	case WorkloadRandom:
		return "random"
	default:
		return fmt.Sprintf("workload(%d)", uint8(k))
	}
}

// Params configures one simulation run.
type Params struct {
	Repo *pkggraph.Repo

	// Alpha is the merge threshold.
	Alpha float64
	// CacheBytes is the cache capacity (0 = unlimited).
	CacheBytes int64
	// UniqueJobs and Repeats define the request stream: UniqueJobs
	// distinct specifications, each repeated Repeats times, shuffled.
	UniqueJobs int
	Repeats    int
	// Workload selects the generation scheme.
	Workload WorkloadKind
	// MaxInitial caps the initial package selection (paper: 100).
	// Zero means 100.
	MaxInitial int
	// Seed drives all randomness (workload and shuffle).
	Seed int64

	// UseMinHash enables the candidate prefilter (the configuration
	// the paper's prototype motivates). Exact distances are used when
	// false.
	UseMinHash bool
	// NoCandidateSort disables closest-first merge ordering
	// (ablation A2).
	NoCandidateSort bool
	// Conflicts is the merge conflict policy (nil = none, the CVMFS
	// case).
	Conflicts spec.ConflictPolicy

	// TimelineEvery records a timeline point every N requests
	// (0 = no timeline).
	TimelineEvery int

	// Events, when non-nil, receives one telemetry.Event per simulated
	// request (the `landlord-sim -events` sink); requests are
	// span-traced only then. Sweeps share the sink across repetitions
	// (JSONLSink is safe for concurrent use).
	Events *telemetry.JSONLSink
}

func (p Params) validate() error {
	if p.Repo == nil {
		return fmt.Errorf("sim: Params.Repo is nil")
	}
	if p.Alpha < 0 || p.Alpha > 1 {
		return fmt.Errorf("sim: alpha %v out of range", p.Alpha)
	}
	if p.UniqueJobs < 1 {
		return fmt.Errorf("sim: UniqueJobs must be >= 1, got %d", p.UniqueJobs)
	}
	if p.Repeats < 1 {
		return fmt.Errorf("sim: Repeats must be >= 1, got %d", p.Repeats)
	}
	return nil
}

// TimelinePoint is a cumulative snapshot after a given request count
// (the series of Figure 5).
type TimelinePoint struct {
	Request      int
	Hits         int64
	Inserts      int64
	Deletes      int64
	Merges       int64
	CachedBytes  int64
	BytesWritten int64
}

// Result summarizes one simulation run.
type Result struct {
	Alpha      float64
	Requests   int
	Stats      core.Stats
	Images     int   // images cached at end of run
	TotalData  int64 // bytes cached at end of run
	UniqueData int64 // deduplicated bytes at end of run
	// CacheEfficiency is UniqueData/TotalData (1 for an empty cache).
	CacheEfficiency float64
	// ContainerEfficiency is the mean per-request requested/used ratio.
	ContainerEfficiency float64
	Timeline            []TimelinePoint
}

// generator builds the workload generator for p.
func (p Params) generator() workload.Generator {
	switch p.Workload {
	case WorkloadRandom:
		g := workload.NewUniformRandom(p.Repo, p.Seed)
		return g
	default:
		g := workload.NewDepClosure(p.Repo, p.Seed)
		if p.MaxInitial > 0 {
			g.MaxInitial = p.MaxInitial
		}
		return g
	}
}

// managerConfig translates Params into a core.Config.
func (p Params) managerConfig() core.Config {
	cfg := core.Config{
		Alpha:           p.Alpha,
		Capacity:        p.CacheBytes,
		Conflicts:       p.Conflicts,
		NoCandidateSort: p.NoCandidateSort,
	}
	if p.UseMinHash {
		cfg.MinHash = core.DefaultMinHash()
	}
	return cfg
}

// Run generates the request stream for p and replays it against a
// fresh cache, the concurrent one the site service runs
// (core.ShardedManager).
func Run(p Params) (Result, error) {
	if err := p.validate(); err != nil {
		return Result{}, err
	}
	stream, err := workload.Stream(p.generator(), p.UniqueJobs, p.Repeats, p.Seed+0x5eed)
	if err != nil {
		return Result{}, err
	}
	mgr, err := core.NewSharded(p.Repo, p.managerConfig())
	if err != nil {
		return Result{}, err
	}
	return Replay(mgr, stream, p.TimelineEvery, p.Events)
}

// Replay drives an existing cache with a request stream, recording a
// timeline point every `every` requests (0 disables the timeline). It
// is also the entry point for trace-driven runs (see internal/trace).
// Timeline counters start at zero from the first replayed request,
// regardless of the cache's prior history. The Figure 5 timeline
// accumulates from each request's Result and the cache's occupancy
// after it. With a non-nil events sink, each request runs under a span
// trace and its event (core.EventOf) is written before the trace is
// finished.
func Replay(mgr *core.ShardedManager, stream []spec.Spec, every int, events *telemetry.JSONLSink) (Result, error) {
	var spans *telemetry.SpanTracer // nil: requests run untraced
	if events != nil {
		spans = telemetry.NewSpanTracer(nil)
		spans.SetIDGen(func() uint64 { return 1 }) // no trace outlives its event
	}
	var cum TimelinePoint
	var timeline []TimelinePoint
	for i, s := range stream {
		at := spans.Start(0, 0)
		start := time.Now()
		res, err := mgr.RequestCtx(telemetry.ContextWithTrace(context.Background(), at), s)
		if err != nil {
			return Result{}, fmt.Errorf("sim: request %d: %w", i, err)
		}
		if at != nil {
			ev := core.EventOf(s, res, at, time.Since(start))
			ev.TraceID = 0 // nothing retains the trace, so there is nothing to link
			events.Add(ev)
			at.Finish(res.Op.String(), "", res.Seq)
		}
		if every <= 0 {
			continue
		}
		cum.Request++
		switch res.Op {
		case core.OpHit:
			cum.Hits++
		case core.OpMerge:
			cum.Merges++
		case core.OpInsert:
			cum.Inserts++
		}
		cum.Deletes += int64(res.Evicted)
		cum.BytesWritten += res.BytesWritten
		cum.CachedBytes = mgr.TotalData()
		if cum.Request%every == 0 {
			timeline = append(timeline, cum)
		}
	}
	st := mgr.Stats()
	return Result{
		Alpha:               mgr.Alpha(),
		Requests:            len(stream),
		Stats:               st,
		Images:              mgr.Len(),
		TotalData:           mgr.TotalData(),
		UniqueData:          mgr.UniqueData(),
		CacheEfficiency:     mgr.CacheEfficiency(),
		ContainerEfficiency: st.MeanContainerEfficiency(),
		Timeline:            timeline,
	}, nil
}
