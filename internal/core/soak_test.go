package core

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/pkggraph"
	"repro/internal/spec"
	"repro/internal/workload"
)

// TestSoakInvariants drives a Manager through a long mixed sequence of
// requests, prunes, and snapshot/restore cycles, checking internal
// invariants after every operation. Configurations cover exact and
// MinHash candidate search, bounded and unbounded caches.
func TestSoakInvariants(t *testing.T) {
	cfg := pkggraph.DefaultGenConfig()
	cfg.CoreFamilies = 3
	cfg.FrameworkFamilies = 8
	cfg.LibraryFamilies = 37
	cfg.ApplicationFamilies = 72
	repo := pkggraph.MustGenerate(cfg, 55)

	configs := []Config{
		{Alpha: 0.75},
		{Alpha: 0.75, MinHash: DefaultMinHash()},
		{Alpha: 0.9, Capacity: repo.TotalSize() / 2, MinHash: DefaultMinHash()},
		{Alpha: 0.5, Capacity: repo.TotalSize() / 4},
	}
	for ci, cfg := range configs {
		m := mgr(t, repo, cfg)
		gen := workload.NewDepClosure(repo, int64(ci))
		gen.MaxInitial = 6
		rng := rand.New(rand.NewSource(int64(ci) + 100))
		var history []spec.Spec

		for step := 0; step < 400; step++ {
			switch {
			case step%97 == 96:
				// Periodic split pass.
				if _, err := m.Prune(0.7, 2); err != nil {
					t.Fatalf("config %d step %d: Prune: %v", ci, step, err)
				}
			case step%151 == 150:
				// Snapshot/restore round trip mid-run.
				m2 := mgr(t, repo, cfg)
				if err := m2.ImportState(m.ExportState()); err != nil {
					t.Fatalf("config %d step %d: ImportState: %v", ci, step, err)
				}
				if err := m2.CheckIntegrity(); err != nil {
					t.Fatalf("config %d step %d: restored manager: %v", ci, step, err)
				}
				if m2.TotalData() != m.TotalData() || m2.Len() != m.Len() {
					t.Fatalf("config %d step %d: restore changed state", ci, step)
				}
			default:
				var s spec.Spec
				if len(history) > 0 && rng.Float64() < 0.35 {
					s = history[rng.Intn(len(history))]
				} else {
					s = gen.Next()
					history = append(history, s)
				}
				if _, err := m.Request(s); err != nil {
					t.Fatalf("config %d step %d: Request: %v", ci, step, err)
				}
			}
			if err := m.CheckIntegrity(); err != nil {
				t.Fatalf("config %d step %d: %v", ci, step, err)
			}
		}
		// Capacity respected (modulo the single in-use overflow).
		if cfg.Capacity > 0 && m.Len() > 1 && m.TotalData() > cfg.Capacity {
			t.Errorf("config %d: %d images exceed capacity %d (total %d)",
				ci, m.Len(), cfg.Capacity, m.TotalData())
		}
	}
}

// pruneEvent records one split pass taken during the concurrent soak:
// the clock value observed under the write lock locates the pass in
// the linearization order (after the request stamped with that clock).
type pruneEvent struct {
	afterClock uint64
	maxUtil    float64
	minServed  int
}

// TestSoakConcurrent is the multi-goroutine soak: 8 workers hammer a
// ShardedManager with a seeded mixed workload — requests plus
// periodic split passes — with full invariant checks at every
// quiescent point, and the final stats and state cross-checked against
// the sequential oracle (the same requests and prunes replayed in
// linearization order through a single-threaded Manager).
func TestSoakConcurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("long soak; skipped in -short")
	}
	cfg := pkggraph.DefaultGenConfig()
	cfg.CoreFamilies = 3
	cfg.FrameworkFamilies = 8
	cfg.LibraryFamilies = 37
	cfg.ApplicationFamilies = 72
	repo := pkggraph.MustGenerate(cfg, 56)

	const workers = 8
	const rounds = 4
	const perRound = 350

	configs := []Config{
		{Alpha: 0.75, MinHash: DefaultMinHash()},
		{Alpha: 0.9, Capacity: repo.TotalSize() / 2},
	}
	for ci, cfg := range configs {
		cm, err := NewSharded(repo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		pool := specPool(repo, 300, int64(ci)+500)
		records := make([][]reqRec, workers)
		var pruneLog []pruneEvent // appends ride the write lock: totally ordered

		for round := 0; round < rounds; round++ {
			var wg sync.WaitGroup
			for g := 0; g < workers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < perRound; i++ {
						step := round*perRound + i
						if g == 0 && i > 0 && i%150 == 0 {
							// Worker 0 doubles as the maintenance loop.
							cm.WithExclusive(func(m *Manager) {
								ev := pruneEvent{afterClock: m.clock, maxUtil: 0.7, minServed: 2}
								if _, err := m.Prune(ev.maxUtil, ev.minServed); err != nil {
									t.Errorf("prune: %v", err)
									return
								}
								pruneLog = append(pruneLog, ev)
							})
							continue
						}
						k := (g*104729 + step*31277) % len(pool)
						if k < 0 {
							k += len(pool)
						}
						res, err := cm.Request(pool[k])
						if err != nil {
							t.Errorf("worker %d step %d: %v", g, step, err)
							return
						}
						records[g] = append(records[g], reqRec{pool[k], res})
					}
				}(g)
			}
			wg.Wait()
			if t.Failed() {
				t.Fatalf("config %d round %d aborted", ci, round)
			}
			cm.WithExclusive(func(m *Manager) {
				if err := m.CheckIntegrity(); err != nil {
					t.Fatalf("config %d round %d: %v", ci, round, err)
				}
			})
		}

		// Sequential oracle: replay requests in Seq order, interleaving
		// each recorded prune after the request whose clock it observed.
		var all []reqRec
		for _, rs := range records {
			all = append(all, rs...)
		}
		bySeq := make([]reqRec, len(all))
		for _, r := range all {
			bySeq[r.res.Seq-1] = r
		}
		oracleCfg := cfg
		oracle := mgr(t, repo, oracleCfg)
		pi := 0
		replayPrunes := func(clock uint64) {
			for pi < len(pruneLog) && pruneLog[pi].afterClock <= clock {
				if _, err := oracle.Prune(pruneLog[pi].maxUtil, pruneLog[pi].minServed); err != nil {
					t.Fatalf("oracle prune %d: %v", pi, err)
				}
				pi++
			}
		}
		replayPrunes(0)
		for i, rec := range bySeq {
			got, err := oracle.Request(rec.s)
			if err != nil {
				t.Fatalf("config %d oracle request %d: %v", ci, i, err)
			}
			if got != rec.res {
				t.Fatalf("config %d request %d diverges:\nconcurrent %+v\n    oracle %+v", ci, i, rec.res, got)
			}
			replayPrunes(rec.res.Seq)
		}
		if gotSt, wantSt := cm.Stats(), oracle.Stats(); gotSt != wantSt {
			t.Errorf("config %d final stats diverge:\nconcurrent %+v\n    oracle %+v", ci, gotSt, wantSt)
		}
		if got, want := stateJSON(t, cm.ExportState()), stateJSON(t, oracle.ExportState()); got != want {
			t.Errorf("config %d final state diverges:\nconcurrent %s\n    oracle %s", ci, got, want)
		}
	}
}
