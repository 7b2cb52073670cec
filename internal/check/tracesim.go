package check

import (
	"context"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/resilience"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// TraceSimConfig parameterizes one deterministic trace-coverage run:
// the HTTP server over a persistent store, a node of a memNet, driven
// serially by a traced client, with the span tracer's clock replaced
// by a logical counter and its ID generator by a seeded sequence. Two
// runs of the same config produce byte-identical trace-ring dumps —
// the replay contract ROADMAP's observability item requires.
type TraceSimConfig struct {
	Seed  int64
	Steps int // client requests through the HTTP path
	Alpha float64
	// CapacityFrac sets the head cache to this fraction of the
	// repository's total bytes so evictions occur (0 = unlimited,
	// which leaves the evict stage uncovered).
	CapacityFrac float64
	// Dir roots the persistent store (required).
	Dir string
}

// TraceSimDefault is the canonical trace-sim configuration for a seed.
// Steps + the guaranteed-hit tail stays under the server's slowest-N
// ring capacity so every started trace is retained and the dump is a
// complete, replayable record of the run.
func TraceSimDefault(seed int64, dir string) TraceSimConfig {
	return TraceSimConfig{
		Seed:         seed,
		Steps:        48,
		Alpha:        0.6,
		CapacityFrac: 0.3,
		Dir:          dir,
	}
}

// TraceSimReport summarizes one run. Every field is derived from the
// seeded schedule and the logical clock, so two runs of the same
// config must compare equal — including the embedded trace dump.
type TraceSimReport struct {
	Steps  int
	Acked  int
	Errors int // deliberate bad requests (interesting-ring bait)
	// Started counts traces minted by the server tracer; Kept is the
	// tail-sampling ring's census at the end of the run.
	Started uint64
	Kept    int
	// Propagated counts kept traces whose RemoteParent is nonzero:
	// they continued an X-Landlord-Trace header from the harness hop.
	Propagated int
	// Checkpoints counts the checkpoints the server took during the
	// run. The store starts empty and nothing asks for one, so each was
	// triggered by the WAL tail reaching its size threshold.
	Checkpoints int64
	// StagesCovered is the sorted set of stage names appearing in the
	// dump; MissingStages is CanonicalStages minus that set.
	StagesCovered []string
	MissingStages []string
	// Dump is the full trace ring in deterministic order.
	Dump []telemetry.Trace
}

// traceSimIDGen returns a seeded, never-zero trace ID sequence (a
// 64-bit LCG). Each tracer gets its own generator so the harness and
// server sequences stay independent of interleaving.
func traceSimIDGen(seed int64) func() uint64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + 0x6a09e667f3bcc909
	return func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		if x == 0 {
			x = 1
		}
		return x
	}
}

// RunTraceSim executes the schedule and audits stage coverage: the
// retained dump must contain every canonical stage, and at least one
// trace must have continued a propagated header. It returns a nil
// Failure on a clean run.
func RunTraceSim(cfg TraceSimConfig) (TraceSimReport, *Failure) {
	if cfg.Dir == "" {
		return TraceSimReport{}, failf(cfg.Seed, 0, "tracesim: Dir is required")
	}
	repo := SmallRepo(cfg.Seed)
	stream := NewStream(repo, cfg.Seed+1)
	var rep TraceSimReport

	// Admission generous enough that nothing sheds (serial traffic),
	// but armed, so every trace carries an admission span. The
	// checkpoint cadence is left at its default, so the 16 KB segments
	// make the WAL tail cross its size threshold within the run.
	srv, _, err := server.Open(repo, server.Config{
		Core:      core.Config{Alpha: cfg.Alpha, Capacity: simCapacity(repo, cfg.CapacityFrac)},
		StateDir:  cfg.Dir,
		Persist:   persist.Options{SyncPolicy: persist.FsyncAlways, SegmentBytes: 16 << 10},
		Admission: resilience.ShedderConfig{Rate: 1 << 20, Burst: 1 << 20},
	})
	if err != nil {
		return rep, failf(cfg.Seed, 0, "tracesim: booting server: %v", err)
	}
	defer srv.Close()

	// The logical clock: every tracer timestamp is the next tick of a
	// shared counter. Requests are strictly serial, so the sequence of
	// clock calls — and therefore every span's start, end, and
	// duration — is a pure function of the schedule.
	var clk atomic.Int64
	tick := func() int64 { return clk.Add(1000) }
	srv.SpanTracer().SetClock(tick)
	srv.SpanTracer().SetIDGen(traceSimIDGen(cfg.Seed + 2))

	// The harness-side tracer mints the upstream hop: its ActiveTrace
	// rides the request context, the client serializes it into
	// X-Landlord-Trace, and the server's trace records the link as
	// RemoteParent. The harness traces themselves are discarded — the
	// server ring is the artifact under test.
	ht := telemetry.NewSpanTracer(telemetry.DiscardSink())
	ht.SetClock(tick)
	ht.SetIDGen(traceSimIDGen(cfg.Seed + 3))

	net := newMemNet()
	net.register("server", srv.Handler())
	client := server.NewClient(nodeURL("server"), net.client("client"))
	client.MaxRetries = 0

	// traced issues one request with a propagated harness trace and a
	// far-future deadline (so the deadline span records present=1; the
	// wall value never enters the trace).
	traced := func(keys []string) (server.RequestResponse, error) {
		at := ht.Start(0, 0)
		ctx := telemetry.ContextWithTrace(context.Background(), at)
		ctx, cancel := context.WithDeadline(ctx, time.Now().Add(time.Hour))
		res, err := client.RequestCtx(ctx, keys, false)
		cancel()
		if err != nil {
			at.Finish("error", err.Error(), 0)
			return res, err
		}
		at.Finish(res.Op, "", 0)
		return res, nil
	}

	for step := 0; step < cfg.Steps; step++ {
		keys := keysOf(repo, stream.Next())
		rep.Steps++
		if _, err := traced(keys); err != nil {
			return rep, failf(cfg.Seed, step, "tracesim: request failed: %v", err)
		}
		rep.Acked++
	}

	// Guaranteed hit tail: the same spec twice, back to back. The
	// first lands it in the cache (or touches it); the second is served
	// from the concurrent manager's read-locked fast path, covering
	// lock_wait_read + hit even if every streamed repeat was evicted.
	tail := keysOf(repo, stream.Next())
	for i := 0; i < 2; i++ {
		if _, err := traced(tail); err != nil {
			return rep, failf(cfg.Seed, cfg.Steps, "tracesim: hit tail failed: %v", err)
		}
		rep.Steps++
		rep.Acked++
	}

	// One deliberate unknown-package request: the 400 finishes its
	// trace with outcome "error", exercising the interesting-ring
	// retention class.
	if _, err := traced([]string{"tracesim-no-such-package"}); err == nil {
		return rep, failf(cfg.Seed, cfg.Steps, "tracesim: bad request unexpectedly succeeded")
	}
	rep.Errors++

	rep.Checkpoints = srv.Registry().Counter("landlord_persist_checkpoints_total", "Checkpoints written").Value()
	rep.Started = srv.SpanTracer().Started()
	rep.Dump = srv.TraceRing().Dump(0)
	rep.Kept = len(rep.Dump)

	seen := make(map[string]bool)
	for i := range rep.Dump {
		if rep.Dump[i].RemoteParent != 0 {
			rep.Propagated++
		}
		for _, sp := range rep.Dump[i].Spans {
			seen[sp.Stage] = true
		}
	}
	for stage := range seen {
		rep.StagesCovered = append(rep.StagesCovered, stage)
	}
	sort.Strings(rep.StagesCovered)
	for _, stage := range telemetry.CanonicalStages() {
		if !seen[stage] {
			rep.MissingStages = append(rep.MissingStages, stage)
		}
	}
	if len(rep.MissingStages) > 0 {
		return rep, failf(cfg.Seed, cfg.Steps,
			"tracesim: dump missing stages %v (covered %v)", rep.MissingStages, rep.StagesCovered)
	}
	if rep.Propagated == 0 {
		return rep, failf(cfg.Seed, cfg.Steps, "tracesim: no kept trace continued a propagated header")
	}
	if rep.Checkpoints == 0 {
		return rep, failf(cfg.Seed, cfg.Steps, "tracesim: the WAL never grew past its size threshold to trigger a checkpoint")
	}
	return rep, nil
}
