package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"text/tabwriter"

	"repro/internal/cvmfs"
	"repro/internal/hep"
	"repro/internal/pkggraph"
	"repro/internal/report"
	"repro/internal/shrinkwrap"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// tabw returns a tabwriter with the layout used by all tables.
func tabw(out io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
}

// writeCSV emits an experiment's machine-readable output when -csv is
// set.
func writeCSV(opt *options, name string, emit func(w *os.File) error) error {
	if opt.csvDir == "" {
		return nil
	}
	if err := os.MkdirAll(opt.csvDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(opt.csvDir, name))
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		f.Close()
		return err
	}
	fmt.Fprintf(opt.out, "\n[wrote %s]\n", filepath.Join(opt.csvDir, name))
	return f.Close()
}

// baseParams assembles the standard simulation parameters from flags.
func baseParams(repo *pkggraph.Repo, opt *options) sim.Params {
	return sim.Params{
		Repo:       repo,
		Alpha:      opt.alpha,
		CacheBytes: int64(opt.cacheX * float64(repo.TotalSize())),
		UniqueJobs: opt.uniqueJobs,
		Repeats:    opt.repeats,
		MaxInitial: opt.maxInitial,
		Seed:       opt.seed,
		UseMinHash: true,
		Events:     opt.events,
	}
}

func cmdRepo(repo *pkggraph.Repo, opt *options) error {
	st := repo.Stats()
	fmt.Fprintf(opt.out, "Repository characterization (Section VI)\n\n")
	fmt.Fprintf(opt.out, "packages:        %d\n", st.Packages)
	fmt.Fprintf(opt.out, "families:        %d\n", st.Families)
	fmt.Fprintf(opt.out, "total size:      %s\n", stats.FormatBytes(st.TotalSize))
	fmt.Fprintf(opt.out, "max dep depth:   %d\n", st.MaxDepth)
	fmt.Fprintf(opt.out, "mean out-degree: %.2f\n", st.MeanOutDeg)
	fmt.Fprintf(opt.out, "mean closure:    %.1f packages\n", st.MeanClosure)
	fmt.Fprintf(opt.out, "max closure:     %d packages\n", st.MaxClosure)
	fmt.Fprintf(opt.out, "core-reachable:  %.1f%% of packages\n", repo.SharedCoreFraction()*100)
	w := tabw(opt.out)
	fmt.Fprintf(w, "\ntier\tpackages\tsize\t\n")
	for _, tier := range []pkggraph.Tier{pkggraph.TierCore, pkggraph.TierFramework, pkggraph.TierLibrary, pkggraph.TierApplication} {
		fmt.Fprintf(w, "%s\t%d\t%s\t\n", tier, st.TierCounts[tier], stats.FormatBytes(st.TierSizes[tier]))
	}
	fmt.Fprintf(w, "\nmost depended-upon packages\tdependents\t\n")
	deps := repo.TransitiveDependents()
	for _, id := range st.TopDependees {
		fmt.Fprintf(w, "%s\t%d\t\n", repo.Package(id).Key(), deps[id])
	}
	return w.Flush()
}

func cmdTable2(repo *pkggraph.Repo, opt *options) error {
	builder := shrinkwrap.NewBuilder(cvmfs.NewStore(repo), shrinkwrap.DefaultCostModel())
	rows, err := hep.MeasureAll(builder, repo)
	if err != nil {
		return err
	}
	fmt.Fprintf(opt.out, "Figure 2: benchmark applications for LHC experiments\n")
	fmt.Fprintf(opt.out, "(paper values are the published reference; measured values are this\nreproduction's Shrinkwrap analogue over the synthetic repository)\n\n")
	w := tabw(opt.out)
	fmt.Fprintf(w, "app\trun time (paper)\tprep (paper)\tprep (measured)\tprep (warm)\tmin image (paper)\tmin image (measured)\tpackages\tfull repo (paper)\t\n")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%v\t%v\t%.0fs\t%.0fs\t%s\t%s\t%d\t%s\t\n",
			r.App.Name, r.App.PaperRunTime, r.App.PaperPrepTime,
			r.MeasuredPrep.Seconds(), r.MeasuredWarmPrep.Seconds(),
			stats.FormatBytes(r.App.PaperMinimalImage), stats.FormatBytes(r.MeasuredImage),
			r.MeasuredPackages, stats.FormatBytes(r.App.PaperFullRepo))
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(opt.out, "\nsynthetic repository stands in for the per-experiment CVMFS repos: %s\n",
		stats.FormatBytes(repo.TotalSize()))
	return nil
}

func cmdFig3(repo *pkggraph.Repo, opt *options) error {
	maxSpec, step, samples := 1000, 50, 100
	if opt.short {
		maxSpec, step, samples = 400, 100, 20
	}
	points, err := sim.ClosureCurve(repo, maxSpec, step, samples, opt.seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(opt.out, "Figure 3: image size vs selection size (medians over %d samples)\n\n", samples)
	w := tabw(opt.out)
	fmt.Fprintf(w, "spec size (pkgs)\tspec-only size (GB)\timage count (pkgs)\timage size (GB)\texpansion\t\n")
	for _, p := range points {
		fmt.Fprintf(w, "%d\t%.1f\t%.0f\t%.1f\t%.2fx\t\n",
			p.SpecSize, p.SpecOnlyGB, p.ImagePackages, p.ImageGB,
			p.ImagePackages/float64(p.SpecSize))
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return writeCSV(opt, "fig3.csv", func(f *os.File) error {
		return report.WriteFig3CSV(f, points)
	})
}

// sweep runs the standard α sweep for the current options.
func sweep(repo *pkggraph.Repo, opt *options, p sim.Params) ([]sim.SweepPoint, error) {
	return sim.SweepAlpha(p, sim.DefaultAlphas(), opt.reps, opt.parallel)
}

func cmdFig4(repo *pkggraph.Repo, opt *options) error {
	points, err := sweep(repo, opt, baseParams(repo, opt))
	if err != nil {
		return err
	}
	fmt.Fprintf(opt.out, "Figure 4: cache behavior over a range of alpha values\n")
	fmt.Fprintf(opt.out, "(%d unique jobs x%d, cache %.1fx repo, medians of %d runs)\n\n",
		opt.uniqueJobs, opt.repeats, opt.cacheX, opt.reps)

	fmt.Fprintf(opt.out, "(a) total cache operations\n")
	w := tabw(opt.out)
	fmt.Fprintf(w, "alpha\thits\tinserts\tdeletes\tmerges\t\n")
	for _, p := range points {
		fmt.Fprintf(w, "%.2f\t%.0f\t%.0f\t%.0f\t%.0f\t\n", p.Alpha, p.Hits, p.Inserts, p.Deletes, p.Merges)
	}
	w.Flush()

	fmt.Fprintf(opt.out, "\n(b) duplication of data in cache\n")
	w = tabw(opt.out)
	fmt.Fprintf(w, "alpha\tunique data (GB)\ttotal data (GB)\t\n")
	for _, p := range points {
		fmt.Fprintf(w, "%.2f\t%.0f\t%.0f\t\n", p.Alpha, p.UniqueGB, p.TotalGB)
	}
	w.Flush()

	fmt.Fprintf(opt.out, "\n(c) cumulative I/O overhead\n")
	w = tabw(opt.out)
	fmt.Fprintf(w, "alpha\tactual writes (TB)\trequested writes (TB)\tamplification\t\n")
	for _, p := range points {
		fmt.Fprintf(w, "%.2f\t%.1f\t%.1f\t%.2fx\t\n",
			p.Alpha, p.ActualWriteGB/1024, p.RequestedWriteGB/1024, p.WriteAmplification())
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return writeCSV(opt, "fig4.csv", func(f *os.File) error {
		return report.WriteSweepCSV(f, points)
	})
}

func cmdFig5(repo *pkggraph.Repo, opt *options) error {
	p := baseParams(repo, opt)
	total := p.UniqueJobs * p.Repeats
	p.TimelineEvery = total / 50
	if p.TimelineEvery < 1 {
		p.TimelineEvery = 1
	}
	res, err := sim.Run(p)
	if err != nil {
		return err
	}
	fmt.Fprintf(opt.out, "Figure 5: behavior of a single simulation\n")
	fmt.Fprintf(opt.out, "(alpha=%.2f, cache=%s, %d unique jobs x%d)\n\n",
		p.Alpha, stats.FormatBytes(p.CacheBytes), p.UniqueJobs, p.Repeats)
	w := tabw(opt.out)
	fmt.Fprintf(w, "requests\thits\tinserts\tdeletes\tmerges\tcached data (GB)\tbytes written (TB)\t\n")
	for _, pt := range res.Timeline {
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%.0f\t%.2f\t\n",
			pt.Request, pt.Hits, pt.Inserts, pt.Deletes, pt.Merges,
			stats.BytesToGB(pt.CachedBytes), stats.BytesToTB(pt.BytesWritten))
	}
	w.Flush()
	fmt.Fprintf(opt.out, "\nfinal: %d images, cache efficiency %.1f%%, container efficiency %.1f%%\n",
		res.Images, res.CacheEfficiency*100, res.ContainerEfficiency*100)
	return writeCSV(opt, "fig5.csv", func(f *os.File) error {
		return report.WriteTimelineCSV(f, res.Timeline)
	})
}

func cmdFig6(repo *pkggraph.Repo, opt *options) error {
	fmt.Fprintf(opt.out, "Figure 6: effects of simulation parameters on system efficiency\n")
	fmt.Fprintf(opt.out, "(medians of %d runs per point)\n\n", opt.reps)

	fmt.Fprintf(opt.out, "(a,b) efficiency vs cache size (%d unique jobs x%d)\n", opt.uniqueJobs, opt.repeats)
	w := tabw(opt.out)
	fmt.Fprintf(w, "alpha\t")
	cacheSizes := []float64{1, 2, 5, 10}
	for _, x := range cacheSizes {
		fmt.Fprintf(w, "container %.0fx\tcache %.0fx\t", x, x)
	}
	fmt.Fprintf(w, "\n")
	var byCache [][]sim.SweepPoint
	for _, x := range cacheSizes {
		p := baseParams(repo, opt)
		p.CacheBytes = int64(x * float64(repo.TotalSize()))
		points, err := sweep(repo, opt, p)
		if err != nil {
			return err
		}
		byCache = append(byCache, points)
	}
	for i := range byCache[0] {
		fmt.Fprintf(w, "%.2f\t", byCache[0][i].Alpha)
		for c := range cacheSizes {
			fmt.Fprintf(w, "%.1f%%\t%.1f%%\t", byCache[c][i].ContainerEfficiency*100, byCache[c][i].CacheEfficiency*100)
		}
		fmt.Fprintf(w, "\n")
	}
	w.Flush()

	fmt.Fprintf(opt.out, "\n(c,d) efficiency vs unique job count (cache %.1fx repo)\n", opt.cacheX)
	jobCounts := []int{100, 500, 1000}
	if opt.short {
		jobCounts = []int{50, 100, 200}
	}
	w = tabw(opt.out)
	fmt.Fprintf(w, "alpha\t")
	for _, n := range jobCounts {
		fmt.Fprintf(w, "container %dj\tcache %dj\t", n, n)
	}
	fmt.Fprintf(w, "\n")
	var byJobs [][]sim.SweepPoint
	for _, n := range jobCounts {
		p := baseParams(repo, opt)
		p.UniqueJobs = n
		points, err := sweep(repo, opt, p)
		if err != nil {
			return err
		}
		byJobs = append(byJobs, points)
	}
	for i := range byJobs[0] {
		fmt.Fprintf(w, "%.2f\t", byJobs[0][i].Alpha)
		for j := range jobCounts {
			fmt.Fprintf(w, "%.1f%%\t%.1f%%\t", byJobs[j][i].ContainerEfficiency*100, byJobs[j][i].CacheEfficiency*100)
		}
		fmt.Fprintf(w, "\n")
	}
	return w.Flush()
}

func cmdFig7(repo *pkggraph.Repo, opt *options) error {
	deps, err := sweep(repo, opt, baseParams(repo, opt))
	if err != nil {
		return err
	}
	rp := baseParams(repo, opt)
	rp.Workload = sim.WorkloadRandom
	random, err := sweep(repo, opt, rp)
	if err != nil {
		return err
	}
	fmt.Fprintf(opt.out, "Figure 7: impact of dependencies on duplication\n")
	fmt.Fprintf(opt.out, "(dependency-scheme vs uniform-random images, medians of %d runs)\n\n", opt.reps)
	w := tabw(opt.out)
	fmt.Fprintf(w, "alpha\tdeps cache eff\trandom cache eff\tdeps container eff\trandom container eff\tdeps merges\trandom merges\t\n")
	for i := range deps {
		fmt.Fprintf(w, "%.2f\t%.1f%%\t%.1f%%\t%.1f%%\t%.1f%%\t%.0f\t%.0f\t\n",
			deps[i].Alpha,
			deps[i].CacheEfficiency*100, random[i].CacheEfficiency*100,
			deps[i].ContainerEfficiency*100, random[i].ContainerEfficiency*100,
			deps[i].Merges, random[i].Merges)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := writeCSV(opt, "fig7_deps.csv", func(f *os.File) error {
		return report.WriteSweepCSV(f, deps)
	}); err != nil {
		return err
	}
	return writeCSV(opt, "fig7_random.csv", func(f *os.File) error {
		return report.WriteSweepCSV(f, random)
	})
}

func cmdFig8(repo *pkggraph.Repo, opt *options) error {
	points, err := sweep(repo, opt, baseParams(repo, opt))
	if err != nil {
		return err
	}
	fmt.Fprintf(opt.out, "Figure 8: limits on efficiency\n")
	fmt.Fprintf(opt.out, "(cache %.1fx repo, %d unique jobs x%d, medians of %d runs)\n\n",
		opt.cacheX, opt.uniqueJobs, opt.repeats, opt.reps)
	w := tabw(opt.out)
	fmt.Fprintf(w, "alpha\tcache efficiency\tcontainer efficiency\twrite amplification\t\n")
	for _, p := range points {
		fmt.Fprintf(w, "%.2f\t%.1f%%\t%.1f%%\t%.2fx\t\n",
			p.Alpha, p.CacheEfficiency*100, p.ContainerEfficiency*100, p.WriteAmplification())
	}
	w.Flush()
	lo, hi, ok := sim.OperationalZone(points, 0.30, 2.0)
	if ok {
		fmt.Fprintf(opt.out, "\noperational zone (cache eff >= 30%%, write amplification <= 2.0x): alpha in [%.2f, %.2f]\n", lo, hi)
		fmt.Fprintf(opt.out, "(paper reports a wide operational zone of 0.65 to 0.95)\n")
	} else {
		fmt.Fprintf(opt.out, "\nno operational zone under the default limits\n")
	}
	return writeCSV(opt, "fig8.csv", func(f *os.File) error {
		return report.WriteSweepCSV(f, points)
	})
}

func cmdBaselines(repo *pkggraph.Repo, opt *options) error {
	gen := workload.NewDepClosure(repo, opt.seed)
	if opt.maxInitial > 0 {
		gen.MaxInitial = opt.maxInitial
	}
	stream, err := workload.Stream(gen, opt.uniqueJobs, opt.repeats, opt.seed+0x5eed)
	if err != nil {
		return err
	}
	results, err := sim.RunBaselines(repo, stream, opt.alpha, int64(opt.cacheX*float64(repo.TotalSize())))
	if err != nil {
		return err
	}
	fmt.Fprintf(opt.out, "Section III: imperfect solutions vs LANDLORD\n")
	fmt.Fprintf(opt.out, "(%d requests: %d unique jobs x%d, cache %.1fx repo)\n\n",
		len(stream), opt.uniqueJobs, opt.repeats, opt.cacheX)
	w := tabw(opt.out)
	fmt.Fprintf(w, "store\timages\tstored\tunique\tstorage eff\twritten\ttransferred\thits\t\n")
	for _, r := range results {
		fmt.Fprintf(w, "%s\t%d\t%s\t%s\t%.1f%%\t%s\t%s\t%d\t\n",
			r.Name, r.Images, stats.FormatBytes(r.StoredBytes), stats.FormatBytes(r.UniqueBytes),
			r.StorageEfficiency()*100, stats.FormatBytes(r.BytesWritten),
			stats.FormatBytes(r.TransferredBytes), r.Hits)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return writeCSV(opt, "baselines.csv", func(f *os.File) error {
		return report.WriteBaselinesCSV(f, results)
	})
}

// cmdPackages lists every package key, one per line, so users can
// compose specification files (and scripts can grep for packages).
func cmdPackages(repo *pkggraph.Repo, opt *options) error {
	w := tabw(opt.out)
	fmt.Fprintf(w, "key\ttier\tsize\tdeps\t\n")
	for i := 0; i < repo.Len(); i++ {
		p := repo.Package(pkggraph.PkgID(i))
		fmt.Fprintf(w, "%s\t%s\t%s\t%d\t\n", p.Key(), p.Tier, stats.FormatBytes(p.Size), len(p.Deps))
	}
	return w.Flush()
}

// cmdDot emits a Graphviz DOT rendering of (a prefix of) the
// dependency graph, for visualizing the hierarchical structure the
// merging strategy exploits.
func cmdDot(repo *pkggraph.Repo, opt *options) error {
	n := opt.uniqueJobs // reuse the -unique flag as the node budget
	if n <= 0 || n > 500 {
		n = 150
	}
	return repo.WriteDOT(opt.out, n)
}
