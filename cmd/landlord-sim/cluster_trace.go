package main

import (
	"fmt"
	"math/rand"
	"os"
	"slices"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/cvmfs"
	"repro/internal/dedup"
	"repro/internal/fleet"
	"repro/internal/pkggraph"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// clusterSites is the multi-site experiment's site count.
const clusterSites = 4

// sitePolicy places each job of the multi-site experiment on one site.
type sitePolicy struct {
	name  string
	place func(job spec.Spec) int
}

// sitePolicies returns the placements the multi-site experiment
// compares over the named sites: rotation, seeded uniform random, and
// the fleet hash — the head of fleet.RendezvousOrder over the site
// names for fleet.RouteKey of the job's package keys, which is where a
// landlordd master sends the spec before directory affinity (not
// modelled here) can redirect it to an agent already holding a
// superset.
func sitePolicies(repo *pkggraph.Repo, sites []string, seed int64) []sitePolicy {
	next := 0
	rng := rand.New(rand.NewSource(seed))
	index := make(map[string]int, len(sites))
	for i, name := range sites {
		index[name] = i
	}
	return []sitePolicy{
		{"round-robin", func(spec.Spec) int {
			i := next % len(sites)
			next++
			return i
		}},
		{"random", func(spec.Spec) int { return rng.Intn(len(sites)) }},
		{"fleet hash", func(job spec.Spec) int {
			return index[fleet.RendezvousOrder(sites, fleet.RouteKey(jobKeys(repo, job)))[0]]
		}},
	}
}

// jobKeys renders a job's package keys, as a client sends them.
func jobKeys(repo *pkggraph.Repo, job spec.Spec) []string {
	keys := make([]string, 0, job.Len())
	for _, id := range job.IDs() {
		keys = append(keys, repo.Key(id))
	}
	return keys
}

// cmdCluster runs the multi-site experiment: one job stream spread
// over several sites, each one LANDLORD head-node cache, under each
// placement policy, reporting head I/O, the images the sites end up
// holding, their mean cache efficiency and how evenly the jobs spread.
func cmdCluster(repo *pkggraph.Repo, opt *options) error {
	stream, err := workload.Stream(workload.NewDepClosure(repo, opt.seed), opt.uniqueJobs, opt.repeats, opt.seed+0x5eed)
	if err != nil {
		return err
	}
	names := make([]string, clusterSites)
	for i := range names {
		names[i] = fmt.Sprintf("site-%d", i)
	}

	fmt.Fprintf(opt.out, "Distributed deployment: %d sites, head caches %.1fx repo at alpha=%.2f, %d requests\n\n",
		len(names), opt.cacheX, opt.alpha, len(stream))
	w := tabw(opt.out)
	fmt.Fprintf(w, "policy\thead writes\tsite images\tsite cache eff\tmax/mean jobs\t\n")
	for _, pol := range sitePolicies(repo, names, opt.seed) {
		sites := make([]*core.Manager, len(names))
		for i := range sites {
			if sites[i], err = core.NewManager(repo, core.Config{
				Alpha:    opt.alpha,
				Capacity: int64(opt.cacheX * float64(repo.TotalSize())),
				MinHash:  core.DefaultMinHash(),
			}); err != nil {
				return err
			}
		}
		jobs := make([]int, len(sites))
		for n, job := range stream {
			i := pol.place(job)
			if _, err := sites[i].Request(job); err != nil {
				return fmt.Errorf("%s: job %d: %w", pol.name, n, err)
			}
			jobs[i]++
		}
		var written int64
		var images int
		var eff float64
		for _, m := range sites {
			written += m.Stats().BytesWritten
			images += m.Len()
			eff += m.CacheEfficiency()
		}
		mean := float64(len(stream)) / float64(len(sites))
		fmt.Fprintf(w, "%s\t%s\t%d\t%.1f%%\t%.2f\t\n",
			pol.name, stats.FormatBytes(written), images,
			eff/float64(len(sites))*100, float64(slices.Max(jobs))/mean)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(opt.out, "\nthe fleet hash sends every repeat of a spec to one site, so it hits the image built there\n")
	return nil
}

// cmdTraceGen generates a request stream and writes it as a JSON-lines
// trace for later replay.
func cmdTraceGen(repo *pkggraph.Repo, opt *options) error {
	if opt.traceFile == "" {
		return fmt.Errorf("missing -trace <file>")
	}
	var gen workload.Generator
	if opt.random {
		gen = workload.NewUniformRandom(repo, opt.seed)
	} else {
		g := workload.NewDepClosure(repo, opt.seed)
		if opt.maxInitial > 0 {
			g.MaxInitial = opt.maxInitial
		}
		gen = g
	}
	stream, err := workload.Stream(gen, opt.uniqueJobs, opt.repeats, opt.seed+0x5eed)
	if err != nil {
		return err
	}
	if err := trace.SaveFile(opt.traceFile, repo, stream); err != nil {
		return err
	}
	fmt.Fprintf(opt.out, "wrote %d requests (%d unique x%d) to %s\n",
		len(stream), opt.uniqueJobs, opt.repeats, opt.traceFile)
	return nil
}

// cmdReplay replays a trace file against a fresh cache and prints
// the run summary — the paper's trace-driven simulation entry point.
func cmdReplay(repo *pkggraph.Repo, opt *options) error {
	if opt.traceFile == "" {
		return fmt.Errorf("missing -trace <file>")
	}
	f, err := os.Open(opt.traceFile)
	if err != nil {
		return err
	}
	stream, err := trace.Load(f, repo)
	f.Close()
	if err != nil {
		return err
	}
	if len(stream) == 0 {
		return fmt.Errorf("trace %s is empty", opt.traceFile)
	}
	mgr, err := core.NewSharded(repo, core.Config{
		Alpha:    opt.alpha,
		Capacity: int64(opt.cacheX * float64(repo.TotalSize())),
		MinHash:  core.DefaultMinHash(),
	})
	if err != nil {
		return err
	}
	res, err := sim.Replay(mgr, stream, 0, nil)
	if err != nil {
		return err
	}
	st := res.Stats
	fmt.Fprintf(opt.out, "replayed %d requests at alpha=%.2f (cache %.1fx repo)\n\n", res.Requests, opt.alpha, opt.cacheX)
	w := tabw(opt.out)
	fmt.Fprintf(w, "hits\tmerges\tinserts\tdeletes\twritten\trequested\timages\tcache eff\tcontainer eff\t\n")
	fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%s\t%s\t%d\t%.1f%%\t%.1f%%\t\n",
		st.Hits, st.Merges, st.Inserts, st.Deletes,
		stats.FormatBytes(st.BytesWritten), stats.FormatBytes(st.RequestedBytes),
		res.Images, res.CacheEfficiency*100, res.ContainerEfficiency*100)
	return w.Flush()
}

// cmdDrift runs the evolving-workload experiment: a population of
// users whose specifications drift over time, with and without
// periodic image-split passes, quantifying the bloat mechanism of
// Section V and what splitting buys back.
func cmdDrift(repo *pkggraph.Repo, opt *options) error {
	base := sim.DriftParams{
		Repo:       repo,
		Alpha:      opt.alpha,
		CacheBytes: int64(opt.cacheX * float64(repo.TotalSize())),
		Users:      opt.uniqueJobs / 10,
		Requests:   opt.uniqueJobs * opt.repeats,
		MaxInitial: opt.maxInitial,
		Seed:       opt.seed,
		MutateProb: 0.6,
	}
	if base.Users < 1 {
		base.Users = 1
	}
	fmt.Fprintf(opt.out, "Evolving workload: %d users drifting over %d requests (alpha=%.2f, cache %.1fx repo)\n\n",
		base.Users, base.Requests, opt.alpha, opt.cacheX)
	w := tabw(opt.out)
	fmt.Fprintf(w, "mode\thits\tmerges\tinserts\tdeletes\tsplits\tshed\tcached\tcontainer eff\t\n")
	for _, mode := range []struct {
		name  string
		prune bool
	}{{"no pruning", false}, {"prune every 100", true}} {
		p := base
		if mode.prune {
			p.PruneEvery = 100
			p.PruneUtilization = 0.85
			p.PruneMinServed = 3
		}
		res, err := sim.RunDrift(p)
		if err != nil {
			return err
		}
		st := res.Stats
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%s\t%s\t%.1f%%\t\n",
			mode.name, st.Hits, st.Merges, st.Inserts, st.Deletes, res.Splits,
			stats.FormatBytes(res.SplitsBytes), stats.FormatBytes(res.TotalData),
			res.ContainerEfficiency*100)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(opt.out, "\nsplitting sheds packages no current job requests, trimming images the\nLRU evictor would never remove because they stay partially hot\n")
	return nil
}

// cmdDedup runs the Section III block-deduplication analysis: the
// duplication a content-addressed store could identify inside a naive
// per-spec image collection (but cannot reclaim for container users)
// versus what LANDLORD actually avoids by merging specifications
// before images exist.
func cmdDedup(repo *pkggraph.Repo, opt *options) error {
	stream, err := workload.Stream(workload.NewDepClosure(repo, opt.seed), opt.uniqueJobs, 1, opt.seed+0x5eed)
	if err != nil {
		return err
	}
	store := cvmfs.NewStore(repo)

	// Naive store: one image per unique specification.
	naive := stream

	// LANDLORD at the configured alpha: the images the cache ends up
	// holding after the same submissions.
	mgr, err := core.NewManager(repo, core.Config{
		Alpha:   opt.alpha,
		MinHash: core.DefaultMinHash(),
	})
	if err != nil {
		return err
	}
	for i, s := range stream {
		if _, err := mgr.Request(s); err != nil {
			return fmt.Errorf("request %d: %w", i, err)
		}
	}
	var merged []spec.Spec
	for _, img := range mgr.Images() {
		merged = append(merged, img.Spec)
	}

	fmt.Fprintf(opt.out, "Section III: what deduplication could reclaim vs what merging avoids\n")
	fmt.Fprintf(opt.out, "(%d unique specifications; landlord at alpha=%.2f holds %d images)\n\n",
		len(stream), opt.alpha, len(merged))
	w := tabw(opt.out)
	fmt.Fprintf(w, "image set\tgranularity\timages\tlogical\tunique\tduplicates\tratio\t\n")
	for _, set := range []struct {
		name   string
		images []spec.Spec
	}{{"naive per-spec", naive}, {"landlord merged", merged}} {
		for _, g := range []dedup.Granularity{dedup.ByFile, dedup.ByBlock} {
			rep, err := dedup.Analyze(store, set.images, g, 1<<20)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%s\t%s\t%d\t%s\t%s\t%s\t%.2fx\t\n",
				set.name, g, rep.Images,
				stats.FormatBytes(rep.LogicalBytes), stats.FormatBytes(rep.UniqueBytes),
				stats.FormatBytes(rep.DuplicateBytes), rep.DuplicationRatio())
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(opt.out, "\na block store can *identify* the naive set's duplicates but container\nusers cannot reclaim them; merging removes them before images are built\n")
	return nil
}

// cmdLatency converts the α sweep's I/O accounting into per-job
// preparation latency — the time framing of the paper's operational
// zone upper bound ("allowing at most a twofold increase in the
// compute and I/O time compared to directly creating the requested
// images").
func cmdLatency(repo *pkggraph.Repo, opt *options) error {
	points, err := sweep(repo, opt, baseParams(repo, opt))
	if err != nil {
		return err
	}
	lat, err := sim.LatencyFromSweep(points, opt.uniqueJobs*opt.repeats, sim.DefaultLatencyModel())
	if err != nil {
		return err
	}
	fmt.Fprintf(opt.out, "Preparation latency per job over alpha (write bandwidth 500 MB/s)\n\n")
	w := tabw(opt.out)
	fmt.Fprintf(w, "alpha\tmean prep/job\tdirect prep/job\toverhead\t\n")
	for _, p := range lat {
		marker := ""
		if p.Overhead > 2 {
			marker = "  <- beyond the paper's 2x limit"
		}
		fmt.Fprintf(w, "%.2f\t%.2fs\t%.2fs\t%.2fx%s\t\n",
			p.Alpha, p.MeanPrep.Seconds(), p.DirectPrep.Seconds(), p.Overhead, marker)
	}
	return w.Flush()
}

// cmdCampaign runs the WLCG-style multi-experiment campaign scenario:
// four experiments with weighted submission rates and versioned
// pipeline phases sharing one LANDLORD cache.
func cmdCampaign(repo *pkggraph.Repo, opt *options) error {
	gen, err := campaign.NewGenerator(campaign.Config{
		Repo:           repo,
		Experiments:    campaign.DefaultExperiments(),
		Campaigns:      5,
		MutateFraction: 0.3,
		Seed:           opt.seed,
	})
	if err != nil {
		return err
	}
	jobs := gen.Jobs(opt.uniqueJobs * opt.repeats)
	mgr, err := core.NewManager(repo, core.Config{
		Alpha:    opt.alpha,
		Capacity: int64(opt.cacheX * float64(repo.TotalSize())),
		MinHash:  core.DefaultMinHash(),
	})
	if err != nil {
		return err
	}
	rep, err := campaign.Run(mgr, jobs)
	if err != nil {
		return err
	}
	fmt.Fprintf(opt.out, "Multi-experiment campaign: %d jobs, 5 software revisions, alpha=%.2f\n\n",
		rep.Jobs, opt.alpha)
	w := tabw(opt.out)
	fmt.Fprintf(w, "experiment\tjobs\thits\tmerges\tinserts\tcontainer eff\t\n")
	for _, er := range rep.PerExperiment {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%.1f%%\t\n",
			er.Name, er.Jobs, er.Hits, er.Merges, er.Inserts, er.MeanContainerEfficiency*100)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(opt.out, "\ncache: %d images (%d serving multiple experiments), %s stored, %s unique\n",
		rep.Images, rep.SharedImages,
		stats.FormatBytes(rep.TotalData), stats.FormatBytes(rep.UniqueData))
	return nil
}

// zoneRatios are the cache sizes, as multiples of the repository,
// whose operational zones zone maps.
var zoneRatios = []float64{1.0, 1.4, 2.0, 5.0}

// cmdZone maps how the operational zone's bounds move with the
// cache:repository ratio — the paper: "there is no general rule for
// the placement of these limits, which depends strongly on the
// performance characteristics of the execution environment".
func cmdZone(repo *pkggraph.Repo, opt *options) error {
	fmt.Fprintf(opt.out, "Operational zone vs cache size (cache eff >= 30%%, write amplification <= 2x)\n")
	fmt.Fprintf(opt.out, "(%d unique jobs x%d, medians of %d runs)\n\n", opt.uniqueJobs, opt.repeats, opt.reps)
	w := tabw(opt.out)
	fmt.Fprintf(w, "cache\tzone\tcache eff at 0.75\tcontainer eff at 0.75\t\n")
	for _, ratio := range zoneRatios {
		points, err := zoneSweep(repo, opt, ratio)
		if err != nil {
			return err
		}
		zone, at75 := zoneOf(points)
		fmt.Fprintf(w, "%.1fx\t%s\t%.1f%%\t%.1f%%\t\n",
			ratio, zone, at75.CacheEfficiency*100, at75.ContainerEfficiency*100)
	}
	return w.Flush()
}

// zoneSweep runs the standard α sweep on a cache of ratio times the
// repository's size.
func zoneSweep(repo *pkggraph.Repo, opt *options, ratio float64) ([]sim.SweepPoint, error) {
	p := baseParams(repo, opt)
	p.CacheBytes = int64(ratio * float64(repo.TotalSize()))
	return sweep(repo, opt, p)
}

// zoneOf returns a sweep's operational zone, printed, and its point at
// α = 0.75.
func zoneOf(points []sim.SweepPoint) (string, sim.SweepPoint) {
	zone := "none"
	if lo, hi, ok := sim.OperationalZone(points, 0.30, 2.0); ok {
		zone = fmt.Sprintf("[%.2f, %.2f]", lo, hi)
	}
	var at75 sim.SweepPoint
	for _, pt := range points {
		if pt.Alpha == 0.75 {
			at75 = pt
			break
		}
	}
	return zone, at75
}
