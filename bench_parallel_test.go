// Parallel cache benchmarks: the concurrent request pipeline
// (core.ShardedManager, at one shard and at several) against the
// single-threaded Manager on the two ends of the operational spectrum. "hit-heavy" repeats cached
// specs — every request rides the shared read lock, so throughput
// should scale with cores. "merge-heavy" streams fresh specs — almost
// every request needs the exclusive write lock, so parallel throughput
// is bounded by the serial decision procedure and measures pipeline
// overhead instead. EXPERIMENTS.md records the measured table.
package repro

import (
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/spec"
	"repro/internal/workload"
)

const parallelWarmImages = 50

// The serial and parallel variants share one configuration, so the
// comparison isolates the locking strategy: at GOMAXPROCS >= 4 the
// hit-heavy shards=1 throughput must be at least 2x the serial baseline.

func BenchmarkManagerSerial(b *testing.B) {
	repo := benchFullRepo(b)
	cfg := core.Config{Alpha: 0.75, Capacity: repo.TotalSize() * 2, MinHash: core.DefaultMinHash()}

	b.Run("hit-heavy", func(b *testing.B) {
		mgr := core.MustNewManager(repo, cfg)
		warm := warmSpecs(b, mgr.Request, 11)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := mgr.Request(warm[i%len(warm)]); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("merge-heavy", func(b *testing.B) {
		mgr := core.MustNewManager(repo, cfg)
		gen := workload.NewDepClosure(repo, 13)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := mgr.Request(gen.Next()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkManagerSharded runs the concurrent cache the site service
// serves from (one lock pair in front of one Manager) under parallel
// load: hits of warm specs, which share the read lock, and fresh
// merge-heavy specs, which queue on the write lock.
func BenchmarkManagerSharded(b *testing.B) {
	repo := benchFullRepo(b)
	cfg := core.Config{Alpha: 0.75, Capacity: repo.TotalSize() * 2, MinHash: core.DefaultMinHash()}

	b.Run("hit-heavy", func(b *testing.B) {
		sm, err := core.NewSharded(repo, cfg)
		if err != nil {
			b.Fatal(err)
		}
		warm := warmSpecs(b, sm.Request, 11)
		var worker atomic.Uint64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			off := int(worker.Add(1))
			i := 0
			for pb.Next() {
				i++
				if _, err := sm.Request(warm[(off*31+i)%len(warm)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	})

	b.Run("merge-heavy", func(b *testing.B) {
		sm, err := core.NewSharded(repo, cfg)
		if err != nil {
			b.Fatal(err)
		}
		var seed atomic.Int64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			gen := workload.NewDepClosure(repo, 1000+seed.Add(1))
			for pb.Next() {
				if _, err := sm.Request(gen.Next()); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

// warmSpecs populates the cache with parallelWarmImages images via
// request (inserts) and returns those specs: re-requesting any of them
// is a guaranteed hit.
func warmSpecs(b *testing.B, request func(spec.Spec) (core.Result, error), seed int64) []spec.Spec {
	b.Helper()
	gen := workload.NewDepClosure(benchFullRepo(b), seed)
	warm := make([]spec.Spec, parallelWarmImages)
	for i := range warm {
		warm[i] = gen.Next()
		if _, err := request(warm[i]); err != nil {
			b.Fatal(err)
		}
	}
	return warm
}
