package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestPruneVsHitOrdering pins the ordering contract between the
// read-path hit commit (under hitMu, no write lock) and concurrent
// split passes (under the write lock):
//
//  1. Result.Seq stays a dense permutation of 1..requests — a prune
//     pass never consumes or duplicates a clock value;
//  2. stamped mutations reach the commit hook in exactly Seq order
//     with splits only at request boundaries, never inside a
//     request's mutation group (a merge/insert and its evictions
//     commit in one critical section that prune cannot enter);
//  3. the commit stream replays to the live state, splits included.
//
// This is the regression test for the prune-vs-hit window: a prune
// that sneaked in between a hit's clock stamp and its hook emission
// would break (2), and one racing the clock itself would break (1).
func TestPruneVsHitOrdering(t *testing.T) {
	repo := concRepo(t)
	cfg := Config{Alpha: 0.8} // unlimited: images bloat, so splits actually fire
	cm, err := NewSharded(repo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hook := &recordingHook{}
	cm.SetCommitHook(hook)

	// Pre-warm with the full pool: at α=0.8 the closures merge into a
	// few bloated images. The workers then hit only a narrow subset, so
	// images stay partially hot — exactly the state Prune splits.
	pool := specPool(repo, 40, 91)
	hot := pool[:3]
	for _, s := range pool {
		if _, err := cm.Request(s); err != nil {
			t.Fatal(err)
		}
	}
	warm := len(pool)

	const workers = 8
	perWorker := 2000
	if testing.Short() {
		perWorker = 400
	}
	var running atomic.Int64
	running.Store(workers - 1)
	seqs := make([][]uint64, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g == 0 {
				// The pruner: a split pass whenever enough hit traffic
				// has accumulated to make the pass non-trivial (the hot
				// windows reset on every pass, so back-to-back passes
				// would race an empty window and split nothing).
				last := cm.Stats().Requests
				for running.Load() > 0 {
					if now := cm.Stats().Requests; now-last >= 300 {
						if _, err := cm.Prune(0.7, 1); err != nil {
							t.Errorf("prune: %v", err)
							return
						}
						last = now
					} else {
						runtime.Gosched()
					}
				}
				return
			}
			defer running.Add(-1)
			for i := 0; i < perWorker; i++ {
				res, err := cm.Request(hot[(g*7+i)%len(hot)])
				if err != nil {
					t.Errorf("worker %d request %d: %v", g, i, err)
					return
				}
				seqs[g] = append(seqs[g], res.Seq)
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// If scheduling never gave the pruner a non-trivial window (fast
	// machines can drain the workers in milliseconds), force one split
	// epoch deterministically: reset the hot windows, focus traffic on
	// the hot subset, and prune the now-partially-hot images.
	extra := 0
	if cm.Stats().Splits == 0 {
		if _, err := cm.Prune(0.7, 1); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 60; i++ {
			res, err := cm.Request(hot[i%len(hot)])
			if err != nil {
				t.Fatal(err)
			}
			seqs[1] = append(seqs[1], res.Seq)
			extra++
		}
		if _, err := cm.Prune(0.7, 1); err != nil {
			t.Fatal(err)
		}
	}

	// (1) Dense Seq: warm-up plus every worker request, each seq once.
	total := warm + (workers-1)*perWorker + extra
	seen := make([]bool, total+1)
	count := warm
	for s := 1; s <= warm; s++ {
		seen[s] = true
	}
	for _, ss := range seqs {
		for _, s := range ss {
			if s == 0 || s > uint64(total) || seen[s] {
				t.Fatalf("Seq %d out of range or duplicated (want a dense permutation of 1..%d)", s, total)
			}
			seen[s] = true
			count++
		}
	}
	if count != total {
		t.Fatalf("recorded %d Seq values, want %d", count, total)
	}

	// (2) Hook order: stamped mutations in exactly Seq order; a delete
	// group is glued to its stamped mutation with no split inside.
	wantStamp := uint64(0)
	splits := 0
	for i, mut := range hook.muts {
		switch mut.Kind {
		case MutTouch, MutMerge, MutInsert:
			wantStamp++
			if mut.LastUse != wantStamp {
				t.Fatalf("mutation %d: %s stamped %d, want %d (prune interleaved with a request's commit)",
					i, mut.Kind, mut.LastUse, wantStamp)
			}
		case MutDelete:
			switch hook.muts[i-1].Kind {
			case MutMerge, MutInsert, MutDelete:
			default:
				t.Fatalf("mutation %d: delete follows %s; evictions must be contiguous with their merge/insert",
					i, hook.muts[i-1].Kind)
			}
		case MutSplit:
			splits++
		}
	}
	if wantStamp != uint64(total) {
		t.Fatalf("hook saw %d stamped mutations, want %d", wantStamp, total)
	}
	if splits == 0 {
		t.Fatal("no split mutations recorded; the pruner never raced the hit traffic")
	}

	// (3) The stream replays to the live state.
	oracle := mgr(t, repo, Config{Alpha: 0.8})
	for i, mut := range hook.muts {
		if err := oracle.ApplyMutation(mut); err != nil {
			t.Fatalf("replaying mutation %d (%s): %v", i, mut.Kind, err)
		}
	}
	if got, want := stateJSON(t, oracle.ExportState()), stateJSON(t, cm.ExportState()); got != want {
		t.Fatalf("replayed state diverges from live state:\n got %s\nwant %s", got, want)
	}
}
