package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/pkggraph"
	"repro/internal/spec"
	"repro/internal/workload"
)

// The reference for Algorithm 1 is internal/check's Oracle — a naive
// re-derivation over sorted id slices with linear scans, no bitsets, no
// band index, and signatures from the direct kernel. These tests drive
// a Manager through it on a mid-sized repository: every request's
// operation, target image, post-state and eviction victims must be what
// the oracle derives, and CheckIntegrity must hold after each.

// refRepo is the mid-sized generated repository the reference tests
// share.
func refRepo(seed int64) *pkggraph.Repo {
	cfg := pkggraph.DefaultGenConfig()
	cfg.CoreFamilies = 3
	cfg.FrameworkFamilies = 8
	cfg.LibraryFamilies = 37
	cfg.ApplicationFamilies = 72
	return pkggraph.MustGenerate(cfg, seed)
}

// underOracle issues n specs from next through the oracle.
func underOracle(t *testing.T, o *check.Oracle, n int, next func() spec.Spec) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, f := o.Step(next()); f != nil {
			t.Fatal(f)
		}
	}
}

// TestManagerMatchesReference replays random dependency-closed streams
// (40% repeats, to drive hits) through an exact-mode Manager under the
// oracle, across several alphas and capacities.
func TestManagerMatchesReference(t *testing.T) {
	repo := refRepo(77)
	for _, alpha := range []float64{0, 0.4, 0.75, 0.95, 1.0} {
		for _, capDiv := range []int64{0, 2, 8} {
			capacity := int64(0)
			if capDiv > 0 {
				capacity = repo.TotalSize() / capDiv
			}
			t.Run(fmt.Sprintf("alpha=%v/cap=%d", alpha, capacity), func(t *testing.T) {
				m := core.MustNewManager(repo, core.Config{Alpha: alpha, Capacity: capacity})
				gen := workload.NewDepClosure(repo, int64(alpha*100)+capDiv)
				gen.MaxInitial = 6
				rng := rand.New(rand.NewSource(5))
				var history []spec.Spec
				underOracle(t, check.NewOracle(m, 5), 250, func() spec.Spec {
					if len(history) > 0 && rng.Float64() < 0.4 {
						return history[rng.Intn(len(history))]
					}
					s := gen.Next()
					history = append(history, s)
					return s
				})
			})
		}
	}
}

// TestManagerMinHashNearReference replays a stream through a MinHash
// manager (K = 128, margin 0.3) under the oracle in margin mode,
// tolerating no divergence: the band index must retrieve every image
// the margin prefilter admits.
func TestManagerMinHashNearReference(t *testing.T) {
	repo := refRepo(78)
	m := core.MustNewManager(repo, core.Config{
		Alpha:   0.75,
		MinHash: &core.MinHashConfig{K: 128, Seed: 3, Margin: 0.3},
	})
	gen := workload.NewDepClosure(repo, 9)
	gen.MaxInitial = 6
	underOracle(t, check.NewOracle(m, 9), 200, gen.Next)
}

// TestBandIndexIdenticalSelection pins that taking merge candidates
// from the LSH band index changes no decision: the oracle's margin scan
// walks every image with no index, so the two must pick the identical
// target on every request through a workload of merges, evictions, and
// splits (which rewrite specs and signatures the index must track).
func TestBandIndexIdenticalSelection(t *testing.T) {
	repo := refRepo(77)
	configs := []core.Config{
		// alpha+margin = 0.85 ≤ 1: candidates come from the band buckets.
		{Alpha: 0.6, MinHash: core.DefaultMinHash(), Capacity: repo.TotalSize() / 4},
		// alpha+margin = 1.15 > 1: disjoint images pass the margin
		// prefilter, so production must fall back to the linear scan.
		{Alpha: 0.9, MinHash: core.DefaultMinHash()},
	}
	rounds := 4
	if testing.Short() {
		rounds = 2
	}
	for ci, cfg := range configs {
		t.Run(fmt.Sprintf("config%d", ci), func(t *testing.T) {
			m := core.MustNewManager(repo, cfg)
			o := check.NewOracle(m, int64(200+ci))
			gen := workload.NewDepClosure(repo, int64(200+ci))
			for r := 0; r < rounds; r++ {
				underOracle(t, o, 250, gen.Next)
				if _, err := m.Prune(0.8, 1); err != nil {
					t.Fatal(err)
				}
				if err := m.CheckIntegrity(); err != nil {
					t.Fatalf("integrity after prune %d: %v", r, err)
				}
			}
		})
	}
}

// TestBandIndexSurvivesImportRestore pins index maintenance on the
// bulk-load paths: a manager rebuilt via ImportState must keep making
// the oracle's decisions afterwards, and one rebuilt via Restore must
// pass the integrity audit and serve.
func TestBandIndexSurvivesImportRestore(t *testing.T) {
	repo := refRepo(77)
	cfg := core.Config{Alpha: 0.6, MinHash: core.DefaultMinHash(), Capacity: repo.TotalSize() / 4}
	donor := core.MustNewManager(repo, cfg)
	gen := workload.NewDepClosure(repo, 333)
	for i := 0; i < 400; i++ {
		if _, err := donor.Request(gen.Next()); err != nil {
			t.Fatal(err)
		}
	}
	st := donor.ExportState()

	imported := core.MustNewManager(repo, cfg)
	if err := imported.ImportState(st); err != nil {
		t.Fatal(err)
	}
	underOracle(t, check.NewOracle(imported, 333), 300, gen.Next)

	restored := core.MustNewManager(repo, cfg)
	if err := restored.Restore(st.Images); err != nil {
		t.Fatal(err)
	}
	underOracle(t, check.NewOracle(restored, 333), 100, gen.Next)
}
