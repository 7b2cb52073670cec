// Command landlord is the user-level job wrapper of Section V: given a
// container specification for a job, it consults a persistent image
// cache, reuses or merges or creates an image per Algorithm 1, then
// "launches" the job inside the prepared container (execution is
// simulated in this reproduction; the container preparation, cache
// state, and I/O accounting are real).
//
// Typical use:
//
//	landlord -cache-dir /scratch/images -spec job.spec -- ./analysis.sh
//
// The cache directory persists between invocations, so a stream of job
// submissions sees exactly the hit/merge/insert behaviour the paper
// describes. State is stored as a CRC-validated checkpoint
// (internal/persist format, shared with landlordd).
// `landlord -stats` prints the cache state.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/cvmfs"
	"repro/internal/persist"
	"repro/internal/pkggraph"
	"repro/internal/shrinkwrap"
	"repro/internal/spec"
	"repro/internal/stats"
)

// State lives in <cache-dir>/state.ckpt, a single CRC-framed checkpoint
// in the internal/persist format (the same one landlordd compacts its
// WAL into).
const stateName = "state.ckpt"

func main() {
	var (
		cacheDir    = flag.String("cache-dir", "landlord-cache", "directory holding the persistent image cache state")
		specPath    = flag.String("spec", "", "container specification file (one package key per line)")
		alpha       = flag.Float64("alpha", 0.8, "merge threshold (paper recommends a moderate 0.8 to start)")
		capacityGB  = flag.Float64("capacity-gb", 0, "cache capacity in GB (0 = unlimited)")
		repoSeed    = flag.Int64("repo-seed", 1, "seed for the synthetic repository")
		repoFile    = flag.String("repo-file", "", "load the repository from this JSONL file")
		materialize = flag.Bool("materialize", false, "build the image contents via shrinkwrap and report I/O")
		showStats   = flag.Bool("stats", false, "print cache state and exit")
	)
	flag.Parse()

	if err := run(*cacheDir, *specPath, *alpha, *capacityGB, *repoSeed, *repoFile, *materialize, *showStats, flag.Args()); err != nil {
		fmt.Fprintf(os.Stderr, "landlord: %v\n", err)
		os.Exit(1)
	}
}

func run(cacheDir, specPath string, alpha, capacityGB float64, repoSeed int64, repoFile string, materialize, showStats bool, jobArgs []string) error {
	repo, err := loadRepo(repoSeed, repoFile)
	if err != nil {
		return err
	}
	mgr, err := core.NewManager(repo, core.Config{
		Alpha:    alpha,
		Capacity: int64(capacityGB * float64(stats.GB)),
		MinHash:  core.DefaultMinHash(),
	})
	if err != nil {
		return err
	}
	if err := loadState(cacheDir, mgr, repoSeed, repoFile); err != nil {
		return err
	}

	if showStats {
		printStats(mgr, repo)
		return nil
	}
	if specPath == "" {
		return fmt.Errorf("missing -spec (or -stats); run with -h for usage")
	}

	f, err := os.Open(specPath)
	if err != nil {
		return err
	}
	s, err := spec.Parse(f, repo)
	f.Close()
	if err != nil {
		return err
	}
	if s.Empty() {
		return fmt.Errorf("specification %s is empty", specPath)
	}
	// Images must contain the full dependency closure of the request;
	// partial-package or partial-dependency images are unreliable.
	closed := spec.WithClosure(repo, s.IDs())
	if closed.Len() != s.Len() {
		fmt.Printf("landlord: expanded %d requested packages to %d with dependencies\n",
			s.Len(), closed.Len())
	}
	s = closed

	res, err := mgr.Request(s)
	if err != nil {
		return err
	}
	fmt.Printf("landlord: %s -> image %d (%s, efficiency %.1f%%)\n",
		res.Op, res.ImageID, stats.FormatBytes(res.ImageSize), res.ContainerEfficiency()*100)
	if res.BytesWritten > 0 {
		fmt.Printf("landlord: wrote %s preparing the image\n", stats.FormatBytes(res.BytesWritten))
	}
	if res.Evicted > 0 {
		fmt.Printf("landlord: evicted %d image(s) (%s) to stay within capacity\n",
			res.Evicted, stats.FormatBytes(res.EvictedBytes))
	}

	if materialize {
		builder := shrinkwrap.NewBuilder(cvmfs.NewStore(repo), shrinkwrap.DefaultCostModel())
		rep, err := builder.Build(s)
		if err != nil {
			return err
		}
		fmt.Printf("landlord: shrinkwrap packed %d files, %s (simulated %.0fs)\n",
			rep.Image.Files, stats.FormatBytes(rep.WrittenBytes), rep.PrepTime.Seconds())
	}

	// Name every package the job's container holds, one line each, so
	// the job's log records what it ran with.
	for _, id := range s.IDs() {
		fmt.Printf("landlord: using package %s\n", repo.Package(id).Key())
	}

	if len(jobArgs) > 0 {
		fmt.Printf("landlord: launching (simulated): %s\n", strings.Join(jobArgs, " "))
	}

	return saveState(cacheDir, mgr, repoSeed, repoFile)
}

func loadRepo(seed int64, file string) (*pkggraph.Repo, error) {
	if file != "" {
		return pkggraph.LoadFile(file)
	}
	return pkggraph.Generate(pkggraph.DefaultGenConfig(), seed)
}

// repoMeta describes the repository the cache was built against, so a
// later invocation with a different repository fails loudly instead of
// resolving package keys against the wrong package set.
func repoMeta(repoSeed int64, repoFile string) map[string]string {
	return map[string]string{
		"repo_seed": strconv.FormatInt(repoSeed, 10),
		"repo_file": repoFile,
	}
}

func loadState(cacheDir string, mgr *core.Manager, repoSeed int64, repoFile string) error {
	path := filepath.Join(cacheDir, stateName)
	ck, err := persist.ReadCheckpointFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("corrupt state %s: %w", path, err)
	}
	if want := repoMeta(repoSeed, repoFile); ck.Meta["repo_seed"] != want["repo_seed"] || ck.Meta["repo_file"] != want["repo_file"] {
		return fmt.Errorf("cache %s was built against repository {seed %s, file %q}, not {seed %s, file %q}; use a fresh -cache-dir",
			cacheDir, ck.Meta["repo_seed"], ck.Meta["repo_file"], want["repo_seed"], want["repo_file"])
	}
	return mgr.ImportState(ck.State)
}

func saveState(cacheDir string, mgr *core.Manager, repoSeed int64, repoFile string) error {
	if err := os.MkdirAll(cacheDir, 0o755); err != nil {
		return err
	}
	return persist.WriteCheckpointFile(filepath.Join(cacheDir, stateName), persist.Checkpoint{
		SavedUnixNano: time.Now().UnixNano(),
		Meta:          repoMeta(repoSeed, repoFile),
		State:         mgr.ExportState(),
	})
}

func printStats(mgr *core.Manager, repo *pkggraph.Repo) {
	imgs := mgr.Images()
	fmt.Printf("cache: %d image(s), %s total, %s unique (efficiency %.1f%%)\n",
		len(imgs), stats.FormatBytes(mgr.TotalData()),
		stats.FormatBytes(mgr.UniqueData()), mgr.CacheEfficiency()*100)
	for _, img := range imgs {
		fmt.Printf("  image %d: %d packages, %s, %d merges\n",
			img.ID, img.Spec.Len(), stats.FormatBytes(img.Size), img.Merges)
	}
}
