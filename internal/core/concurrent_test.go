package core

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"repro/internal/pkggraph"
	"repro/internal/spec"
	"repro/internal/workload"
)

// The oracle-equivalence harness: drive a ShardedManager with N
// goroutines over a seeded workload, then prove the concurrent
// execution equals SOME sequential execution of the same requests.
//
// Three independent checks, strongest first:
//
//  1. Per-request results: sorting the concurrent results by their
//     linearization stamp (Result.Seq) and replaying the specs in that
//     order through a fresh single-threaded Manager must reproduce
//     every Result exactly — same op, same image, same bytes, same
//     evictions.
//  2. Final state: the live concurrent manager's ExportState must be
//     byte-identical (JSON) to the oracle's.
//  3. Mutation log: replaying the commit-hook stream through
//     ApplyMutation (the crash-recovery path) must also rebuild the
//     identical state, proving the WAL observes mutations in a replay-
//     exact order.

// reqRec pairs a submitted spec with the result the concurrent manager
// returned for it.
type reqRec struct {
	s   spec.Spec
	res Result
}

// recordingHook captures the mutation stream in commit order. It is
// deliberately unsynchronized: the ShardedManager's linearization
// guarantee says hook invocations are totally ordered (hitMu for hits,
// the write lock for the rest), so a data race here IS a violation of
// that guarantee — and `go test -race` turns it into a failure.
type recordingHook struct{ muts []Mutation }

func (h *recordingHook) Commit(mut Mutation) {
	mut.Packages = append([]string(nil), mut.Packages...)
	h.muts = append(h.muts, mut)
}

// concRepo is a mid-sized generated repository shared by the
// concurrency tests.
func concRepo(t testing.TB) *pkggraph.Repo {
	t.Helper()
	cfg := pkggraph.DefaultGenConfig()
	cfg.CoreFamilies = 3
	cfg.FrameworkFamilies = 8
	cfg.LibraryFamilies = 30
	cfg.ApplicationFamilies = 60
	return pkggraph.MustGenerate(cfg, 77)
}

// specPool generates n seeded dependency-closure specs; workers index
// into the pool deterministically, so the request multiset is fixed
// even though the interleaving is not.
func specPool(repo *pkggraph.Repo, n int, seed int64) []spec.Spec {
	gen := workload.NewDepClosure(repo, seed)
	gen.MaxInitial = 5
	pool := make([]spec.Spec, n)
	for i := range pool {
		pool[i] = gen.Next()
	}
	return pool
}

func stateJSON(t *testing.T, st ManagerState) string {
	t.Helper()
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatalf("marshal state: %v", err)
	}
	return string(data)
}

func TestConcurrentOracleEquivalence(t *testing.T) {
	repo := concRepo(t)
	const workers = 8
	const rounds = 5
	perRound := 1000 // 8 goroutines x 5000 requests per config
	if testing.Short() {
		perRound = 100
	}

	configs := []Config{
		{Alpha: 0.75},
		{Alpha: 0.9, Capacity: repo.TotalSize() / 3, MinHash: DefaultMinHash()},
		{Alpha: 0.5, Capacity: repo.TotalSize() / 6},
	}
	for ci, cfg := range configs {
		t.Run(fmt.Sprintf("config%d", ci), func(t *testing.T) {
			hook := &recordingHook{}
			cfg.Commit = hook
			cm, err := NewSharded(repo, cfg)
			if err != nil {
				t.Fatal(err)
			}
			pool := specPool(repo, 400, int64(ci)+1)

			records := make([][]reqRec, workers)
			for g := range records {
				records[g] = make([]reqRec, 0, rounds*perRound)
			}
			for round := 0; round < rounds; round++ {
				var wg sync.WaitGroup
				for g := 0; g < workers; g++ {
					wg.Add(1)
					go func(g, round int) {
						defer wg.Done()
						for i := 0; i < perRound; i++ {
							// Deterministic per-worker index stream; the odd
							// strides make workers collide on the same specs
							// often (hits) without marching in lockstep.
							k := (g*2654435761 + (round*perRound+i)*40503) % len(pool)
							if k < 0 {
								k += len(pool)
							}
							s := pool[k]
							res, err := cm.Request(s)
							if err != nil {
								t.Errorf("worker %d: Request: %v", g, err)
								return
							}
							records[g] = append(records[g], reqRec{s, res})
						}
					}(g, round)
				}
				wg.Wait()
				if t.Failed() {
					t.Fatalf("round %d aborted", round)
				}
				// Quiescent point: full structural invariants, byte
				// accounting, and counter partition.
				cm.WithExclusive(func(m *Manager) {
					if err := m.CheckIntegrity(); err != nil {
						t.Fatalf("round %d invariants: %v", round, err)
					}
				})
			}

			// Order the concurrent execution by its linearization stamps.
			all := make([]reqRec, 0, workers*rounds*perRound)
			for _, rs := range records {
				all = append(all, rs...)
			}
			bySeq := make([]reqRec, len(all))
			for _, r := range all {
				if r.res.Seq < 1 || r.res.Seq > uint64(len(all)) {
					t.Fatalf("Seq %d outside 1..%d", r.res.Seq, len(all))
				}
				slot := &bySeq[r.res.Seq-1]
				if slot.res.Seq != 0 {
					t.Fatalf("duplicate Seq %d", r.res.Seq)
				}
				*slot = r
			}

			// Check 1+2: replay the specs in linearized order through the
			// single-threaded oracle; every Result and the final exported
			// state must match exactly.
			oracleCfg := cfg
			oracleCfg.Commit = nil
			oracle := mgr(t, repo, oracleCfg)
			for i, rec := range bySeq {
				want, err := oracle.Request(rec.s)
				if err != nil {
					t.Fatalf("oracle request %d: %v", i, err)
				}
				if want != rec.res {
					t.Fatalf("request %d diverges from the sequential oracle:\nconcurrent %+v\n    oracle %+v", i, rec.res, want)
				}
			}
			live := stateJSON(t, cm.ExportState())
			if want := stateJSON(t, oracle.ExportState()); live != want {
				t.Errorf("final state differs from the sequential oracle:\n live %s\nwant %s", live, want)
			}

			// Check 3: the mutation stream replays (the crash-recovery
			// path) to the identical state.
			replayCfg := cfg
			replayCfg.Commit = nil
			replay := mgr(t, repo, replayCfg)
			for i, mut := range hook.muts {
				if err := replay.ApplyMutation(mut); err != nil {
					t.Fatalf("mutation %d (%s image %d): %v", i, mut.Kind, mut.ImageID, err)
				}
			}
			if got := stateJSON(t, replay.ExportState()); got != live {
				t.Errorf("mutation-log replay differs from the live state:\nreplay %s\n  live %s", got, live)
			}

			// The harness is only meaningful if the read fast path carried
			// real traffic.
			if cm.ReadHits() == 0 {
				t.Error("no requests took the read-lock fast path")
			}
			if st := cm.Stats(); st.Requests != int64(len(all)) {
				t.Errorf("stats.Requests = %d, want %d", st.Requests, len(all))
			}
		})
	}
}

// TestConcurrentReadOnlyTakesNoWriteLock pins the contract the server's
// read-only endpoints rely on: accessors and hits never touch the
// write lock.
func TestConcurrentReadOnlyTakesNoWriteLock(t *testing.T) {
	repo := concRepo(t)
	cm, err := NewSharded(repo, Config{Alpha: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	pool := specPool(repo, 8, 3)
	for _, s := range pool {
		if _, err := cm.Request(s); err != nil {
			t.Fatal(err)
		}
	}
	before := cm.WriteLockAcquisitions()
	if before == 0 {
		t.Fatal("inserts did not take the write lock")
	}

	cm.Stats()
	cm.Len()
	cm.TotalData()
	cm.UniqueData()
	cm.CacheEfficiency()
	cm.Images()
	cm.ExportState()
	if _, err := cm.Request(pool[0]); err != nil { // cached: a hit
		t.Fatal(err)
	}
	if got := cm.WriteLockAcquisitions(); got != before {
		t.Errorf("read-only traffic took the write lock %d time(s)", got-before)
	}
	if cm.ReadHits() == 0 {
		t.Error("repeat request did not ride the read path")
	}
}

// TestConcurrentTracerSeesHits verifies a hit served on the read path
// still records what its event needs, since the server's /v1/events
// ring and latency histograms are fed from EventOf.
func TestConcurrentTracerSeesHits(t *testing.T) {
	repo := concRepo(t)
	cm, err := NewSharded(repo, Config{Alpha: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	rig := newTraceRig()
	s := specPool(repo, 1, 9)[0]
	rig.sharded(t, cm, s)
	_, ev, _ := rig.sharded(t, cm, s)
	if ev.Op != "hit" {
		t.Errorf("second event op = %q, want hit", ev.Op)
	}
	if ev.Seq == 0 {
		t.Error("hit event missing its linearization Seq")
	}
	if ev.SupersetScanned == 0 || ev.Images != 1 || ev.CachedBytes != cm.TotalData() {
		t.Errorf("hit event lost its scan count or occupancy: %+v", ev)
	}
}

// TestConcurrentRejectsEmptySpec mirrors the sequential contract.
func TestConcurrentRejectsEmptySpec(t *testing.T) {
	repo := flatRepo(t, 4, 1)
	cm, err := NewSharded(repo, Config{Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cm.Request(spec.Spec{}); err == nil {
		t.Fatal("empty spec accepted")
	}
	if _, err := NewSharded(repo, Config{Alpha: 2}); err == nil {
		t.Fatal("invalid config accepted")
	}
}
