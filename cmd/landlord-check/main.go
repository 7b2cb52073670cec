// Command landlord-check drives the deterministic simulation and
// invariant-checking harness (internal/check) from the command line:
//
//	landlord-check sim      -seed 1 [-steps 600]
//	landlord-check soak     -seed 1 [-requests 50000] [-workers 8]
//	landlord-check fleetchaos -seed 1 [-steps 240] [-agents 3] [-kill-phase 0] [-trace-dump path]
//	landlord-check chaos    -duration 10m [-seed 0] [-trace-dump path]
//
// sim runs the canonical deterministic suite under one seed: the
// in-memory simulations of the serving cache, exact and MinHash, plus
// the persistent chaos runs with checkpoints, prune passes, injected
// filesystem faults and crash/recovery cycles. soak hammers one cache
// from many goroutines with injected persist faults; run the binary
// built with -race for full effect. fleetchaos is the serving-path harness: one
// fault schedule, run on an in-memory network and a logical clock
// against a plain master and against a primary + standby pair, each
// fronting N agents, and one line per row. Agent 0 is durable on a
// fault-injecting disk, admits a small burst, and is crashed (kill -9
// or power loss) and recovered; the client's links to the masters
// inject resets, truncations and blackholes; bodies go out in seeded
// shapes, a quarter with close:true. It audits zero lost acks across
// crashes, partitions and primary kills, that no valid spec is refused
// and every answer echoes its spec, that sheds never mutate, that
// closure is idempotent, route-around of partitioned agents, soft-state
// recovery of a restarted master, bounded key movement under membership
// churn, indexed and faithful mirrors, and, after every crash, agent
// 0 and a copy of its state directory recovered by the persist layer
// (which must pass CheckIntegrity) back at the state it crashed with;
// in the pair also two-tick standby promotion, a promoted master healthy
// toward every agent the old primary could route to, a single acking
// primary per round and demotion of an isolated primary; and a warm
// drain handoff at the close. Every node's span tracer runs on the
// logical clock, and the rings must cover every canonical stage plus
// fleet_route and fleet_forward (-kill-phase rotates the kills,
// crashes and isolations; the nightly soak sweeps it). chaos loops sim,
// soak and fleetchaos over consecutive seeds until the duration
// expires (the nightly soak).
//
// -trace-dump writes the failing run's trace rings — every agent's and
// every live master's — to the given path as JSON, so CI can upload
// where-the-latency-went context alongside the reproduction seed.
//
// Every failure prints its seed and a reproduction command, and the
// process exits non-zero. sim and fleetchaos are functions of their
// flags: rerun with the same ones and the failure recurs at the same
// step with the same diagnostic. soak interleaves goroutines freely,
// so it replays its schedule, not every count.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/check"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "sim":
		err = runSim(os.Args[2:])
	case "soak":
		err = runSoak(os.Args[2:])
	case "fleetchaos":
		err = runFleetChaos(os.Args[2:])
	case "chaos":
		err = runChaos(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: landlord-check <sim|soak|fleetchaos|chaos> [flags]

  sim      -seed N [-steps N]               deterministic suite + persistent chaos runs
  soak     -seed N [-requests N] [-workers N]  concurrent soak with injected persist faults
  fleetchaos -seed N [-steps N] [-agents N] [-kill-phase N] [-trace-dump P]  plain master and HA pair under network, disk and crash faults, partitions, kills, isolations, drain
  chaos    -duration D [-seed N] [-trace-dump P]  loop sim+soak+fleetchaos over consecutive seeds (0 = from clock)`)
}

// suite runs the canonical deterministic schedule for one seed: the
// in-memory suite (exact rows, MinHash rows), then the persistent
// chaos runs in a throwaway
// directory. steps > 0 overrides the chaos runs' length.
func suite(seed int64, steps int) error {
	for _, cfg := range check.Suite(seed) {
		rep, f := check.RunSim(cfg)
		if f != nil {
			return f
		}
		report(cfg, rep)
	}
	dir, err := os.MkdirTemp("", "landlord-check-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	for _, cfg := range check.ChaosSuite(seed, dir) {
		if steps > 0 {
			cfg.Steps = steps
		}
		rep, f := check.RunSim(cfg)
		if f != nil {
			return f
		}
		report(cfg, rep)
	}
	return nil
}

// modeTag labels the rows beyond the exact-mode ones.
func modeTag(minhash, uniform bool) string {
	tag := ""
	if minhash {
		tag += " minhash"
	}
	if uniform {
		tag += " uniform"
	}
	return tag
}

func report(cfg check.SimConfig, rep check.SimReport) {
	fmt.Printf("sim seed=%d steps=%d alpha=%.2f persist=%v%s: hits=%d merges=%d inserts=%d deletes=%d splits=%d crashes=%d injected=%d state=%s\n",
		cfg.Seed, rep.Steps, cfg.Alpha, cfg.Dir != "", modeTag(cfg.MinHash, cfg.UniformOnly),
		rep.Stats.Hits, rep.Stats.Merges, rep.Stats.Inserts, rep.Stats.Deletes,
		rep.Stats.Splits, rep.Crashes, rep.Injected, rep.StateHash[:12])
}

func runSim(args []string) error {
	fs := flag.NewFlagSet("sim", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "simulation seed")
	steps := fs.Int("steps", 0, "override the chaos run's request count (0 = canonical 600)")
	fs.Parse(args)
	return suite(*seed, *steps)
}

func runSoak(args []string) error {
	fs := flag.NewFlagSet("soak", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "soak seed")
	requests := fs.Int("requests", 50000, "total requests across all workers")
	workers := fs.Int("workers", 8, "concurrent request goroutines")
	fs.Parse(args)
	return soak(*seed, *requests, *workers)
}

func soak(seed int64, requests, workers int) error {
	dir, err := os.MkdirTemp("", "landlord-soak-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg := check.SoakConfig{
		Seed: seed, Requests: requests, Workers: workers,
		Alpha: 0.6, CapacityFrac: 0.3,
		Dir: dir, Faults: true, MaintainEvery: 200,
	}
	rep, err := check.RunSoak(cfg)
	if err != nil {
		return fmt.Errorf("soak seed=%d: %w", seed, err)
	}
	fmt.Printf("soak seed=%d requests=%d workers=%d: hits=%d merges=%d splits=%d injected=%d images=%d\n",
		seed, requests, workers, rep.Stats.Hits, rep.Stats.Merges, rep.Stats.Splits,
		rep.Injected, rep.Images)
	return nil
}

// writeTraceDump writes a failure's tail-sampling trace rings to path
// as JSON, so CI uploads latency context alongside the repro seed.
// A failure without a dump (or an empty path) writes nothing.
func writeTraceDump(path string, f *check.Failure) {
	if path == "" || f == nil || len(f.TraceDump) == 0 {
		return
	}
	b, err := json.MarshalIndent(f.TraceDump, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "landlord-check: encoding trace dump: %v\n", err)
		return
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "landlord-check: writing trace dump: %v\n", err)
		return
	}
	fmt.Fprintf(os.Stderr, "landlord-check: wrote %d trace(s) to %s\n", len(f.TraceDump), path)
}

func runFleetChaos(args []string) error {
	fs := flag.NewFlagSet("fleetchaos", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "fleetchaos seed")
	steps := fs.Int("steps", 0, "override the request count (0 = canonical 240)")
	agents := fs.Int("agents", 0, "override the fleet size (0 = canonical 3)")
	killPhase := fs.Int("kill-phase", 0, "shift the kills and isolations by this many steps (the nightly soak rotates it)")
	dump := fs.String("trace-dump", "", "on failure, write every node's trace ring to this path as JSON")
	fs.Parse(args)
	return fleetchaos(*seed, *steps, *agents, *killPhase, *dump)
}

func fleetchaos(seed int64, steps, agents, killPhase int, dump string) error {
	for _, cfg := range check.FleetChaosSuite(seed) {
		if steps > 0 {
			cfg.Steps = steps
		}
		if agents > 0 {
			cfg.Agents = agents
		}
		cfg.KillPhase = killPhase
		rep, f := check.RunFleetChaos(cfg)
		if f != nil {
			writeTraceDump(dump, f)
			return f
		}
		fmt.Printf("fleetchaos seed=%d masters=%d steps=%d agents=%d kill_phase=%d: acked=%d unavailable=%d sheds=%d errors=%d partitions=%d kills=%d isolations=%d promotions=%d demotions=%d epoch=%d recovered=%d stale_rejects=%d handoff=%d key_move=%.3f crashes=%d/%d disk_faults=%d net_faults=%d checkpoints=%d stages=%d/%d traces=%d\n",
			seed, cfg.Masters, rep.Steps, cfg.Agents, killPhase, rep.Acked, rep.Unavailable, rep.Sheds, rep.Errors,
			rep.Partitions, rep.Kills, rep.Isolations, rep.Promotions, rep.Demotions,
			rep.MaxEpoch, rep.Recovered, rep.StaleRejects, rep.HandoffSpecs, rep.KeyMoveFraction,
			rep.CrashKills, rep.CrashPowers, rep.DiskFaults, rep.NetFaults, rep.Checkpoints,
			len(rep.Stages), len(rep.Stages)+len(rep.MissingStages), len(rep.Dump))
		if len(rep.MissingStages) > 0 {
			return fmt.Errorf("fleetchaos seed=%d masters=%d: trace rings miss stages %v", seed, cfg.Masters, rep.MissingStages)
		}
	}
	return nil
}

func runChaos(args []string) error {
	fs := flag.NewFlagSet("chaos", flag.ExitOnError)
	seed := fs.Int64("seed", 0, "base seed (0 = derived from the clock)")
	duration := fs.Duration("duration", 10*time.Minute, "how long to keep drawing seeds")
	dump := fs.String("trace-dump", "", "on failure, write the failing run's trace ring to this path as JSON")
	fs.Parse(args)
	base := *seed
	if base == 0 {
		base = time.Now().UnixNano() % 1_000_000
	}
	fmt.Printf("chaos base seed %d for %v (reproduce any failure with the printed command)\n", base, *duration)
	deadline := time.Now().Add(*duration)
	iters := 0
	for s := base; time.Now().Before(deadline); s++ {
		fmt.Printf("--- seed %d\n", s)
		if err := suite(s, 0); err != nil {
			return err
		}
		if err := soak(s, 20000, 8); err != nil {
			return err
		}
		// Rotate the kill schedule with the seed so the soak covers
		// kills and failovers landing at different points of the
		// request stream.
		if err := fleetchaos(s, 0, 0, int(s%29), *dump); err != nil {
			return err
		}
		iters++
	}
	fmt.Printf("chaos clean: %d seed(s) starting at %d\n", iters, base)
	return nil
}
