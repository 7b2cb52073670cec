// Benchmarks for the deployment layer (HTTP site service) and the
// remaining DESIGN.md ablations: A5 image splitting and the LSH
// candidate index.
package repro

import (
	"net/http/httptest"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/cvmfs"
	"repro/internal/dedup"
	"repro/internal/server"
	"repro/internal/similarity"
	"repro/internal/spec"
	"repro/internal/workload"
)

// BenchmarkServerRequest measures one job submission through the HTTP
// site service (client -> loopback HTTP -> manager).
func BenchmarkServerRequest(b *testing.B) {
	repo := benchFullRepo(b)
	srv, err := server.New(repo, core.Config{Alpha: 0.8, MinHash: core.DefaultMinHash()})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := server.NewClient(ts.URL, ts.Client())

	gen := workload.NewDepClosure(repo, 5)
	gen.MaxInitial = 5
	keys := make([][]string, 32)
	for i := range keys {
		s := gen.Next()
		ids := s.IDs()
		row := make([]string, 0, len(ids))
		for _, id := range ids {
			row = append(row, repo.Package(id).Key())
		}
		keys[i] = row
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Request(keys[i%len(keys)], false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSplit compares a merge-heavy run with and without
// periodic Prune passes (ablation A5): splitting pays I/O to shed cold
// bloat from hot images.
func BenchmarkAblationSplit(b *testing.B) {
	repo := benchFullRepo(b)
	stream, err := workload.Stream(workload.NewDepClosure(repo, 3), 100, 3, 4)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name  string
		prune bool
	}{{"no-split", false}, {"split-every-50", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mgr := core.MustNewManager(repo, core.Config{
					Alpha:    0.9,
					Capacity: repo.TotalSize() * 14 / 10,
					MinHash:  core.DefaultMinHash(),
				})
				for j, s := range stream {
					if _, err := mgr.Request(s); err != nil {
						b.Fatal(err)
					}
					if mode.prune && (j+1)%50 == 0 {
						if _, err := mgr.Prune(0.5, 3); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
		})
	}
}

// BenchmarkLSHIndex measures candidate retrieval from a 10,000-set
// index versus the linear signature scan it replaces.
func BenchmarkLSHIndex(b *testing.B) {
	repo := benchFullRepo(b)
	const k = 64
	h := similarity.MustNewHasher(k, 1)
	gen := workload.NewDepClosure(repo, 9)
	gen.MaxInitial = 20

	const n = 10000
	sigs := make([]similarity.Signature, n)
	idx, err := similarity.NewLSHIndex(k, 1)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		sigs[i] = h.Sign(gen.Next())
		if err := idx.Insert(uint64(i), sigs[i]); err != nil {
			b.Fatal(err)
		}
	}
	query := h.Sign(gen.Next())

	b.Run("lsh-candidates", func(b *testing.B) {
		b.ReportAllocs()
		var ids []uint64
		for i := 0; i < b.N; i++ {
			var err error
			if ids, err = idx.CandidatesAppend(query, ids[:0]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("linear-scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, sig := range sigs {
				similarity.EstimateDistance(query, sig)
			}
		}
	})
}

// BenchmarkCampaign measures the multi-experiment campaign scenario
// (experiment D6): generation plus a 200-job run.
func BenchmarkCampaign(b *testing.B) {
	repo := benchFullRepo(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		gen, err := campaign.NewGenerator(campaign.Config{
			Repo:           repo,
			Experiments:    campaign.DefaultExperiments(),
			Campaigns:      5,
			MutateFraction: 0.3,
			Seed:           int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		mgr := core.MustNewManager(repo, core.Config{Alpha: 0.8, MinHash: core.DefaultMinHash()})
		if _, err := campaign.Run(mgr, gen.Jobs(200)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDedupAnalysis measures the Section III duplication scan
// (experiment D3) over 20 images at file granularity.
func BenchmarkDedupAnalysis(b *testing.B) {
	repo := benchMidRepo(b)
	store := cvmfs.NewStore(repo)
	gen := workload.NewDepClosure(repo, 5)
	gen.MaxInitial = 5
	images := make([]spec.Spec, 20)
	for i := range images {
		images[i] = gen.Next()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dedup.Analyze(store, images, dedup.ByFile, 0); err != nil {
			b.Fatal(err)
		}
	}
}
