package core

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/pkggraph"
	"repro/internal/spec"
	"repro/internal/workload"
)

// Shard-aware oracle equivalence.
//
// The sharded cache's correctness claim is: the concurrent sharded
// execution equals SOME serial execution of the same requests through
// the same router — per-shard total orders merged by the globally
// dense Seq. The harness proves it the same three ways as the
// unsharded one (concurrent_test.go), shard-aware:
//
//  1. Per-request results: sorting all results by Seq (dense across
//     shards — one shared clock) and replaying the specs serially
//     through a fresh ShardedManager must reproduce every Result.
//  2. Final state: the merged ExportState must be byte-identical to
//     the serial reference's. With shards=1 it must also be
//     byte-identical to a plain single-threaded Manager's — the
//     degeneration the config default relies on.
//  3. Mutation log: the per-shard commit streams, merged by stamp,
//     must replay through ShardedManager.ApplyMutation (the crash-
//     recovery path) to the identical merged state.

// shardHook records each shard's commit stream separately, routed by
// the ImageID residue. Like recordingHook it is deliberately
// unsynchronized per shard: a shard's hook invocations are totally
// ordered by its stamping locks, so a data race on a per-shard slice
// IS a linearization violation, surfaced by -race.
type shardHook struct {
	n       int
	streams [][]Mutation
}

func newShardHook(n int) *shardHook {
	return &shardHook{n: n, streams: make([][]Mutation, n)}
}

func (h *shardHook) Commit(mut Mutation) {
	i := int(mut.ImageID % uint64(h.n))
	mut.Packages = append([]string(nil), mut.Packages...)
	h.streams[i] = append(h.streams[i], mut)
}

// mergeShardStreams interleaves per-shard commit streams into the
// global linearization order: chunks of [stamped mutation + its
// trailing unstamped deletes/splits] taken in stamp order. It fails
// the test if any shard stream violates its own ordering contract
// (stamps not strictly increasing, or a chunk not led by a stamped
// mutation).
func mergeShardStreams(t *testing.T, streams [][]Mutation) []Mutation {
	t.Helper()
	total := 0
	for i, s := range streams {
		total += len(s)
		last := uint64(0)
		for j, mut := range s {
			switch mut.Kind {
			case MutTouch, MutMerge, MutInsert:
				if mut.LastUse <= last {
					t.Fatalf("shard %d mutation %d: stamp %d not above predecessor %d", i, j, mut.LastUse, last)
				}
				last = mut.LastUse
			}
		}
	}
	idx := make([]int, len(streams))
	out := make([]Mutation, 0, total)
	for len(out) < total {
		best := -1
		var bestStamp uint64
		for i, s := range streams {
			if idx[i] >= len(s) {
				continue
			}
			mut := s[idx[i]]
			switch mut.Kind {
			case MutTouch, MutMerge, MutInsert:
			default:
				t.Fatalf("shard %d: chunk led by unstamped %s (deletes/splits must trail their request)", i, mut.Kind)
			}
			if best == -1 || mut.LastUse < bestStamp {
				best, bestStamp = i, mut.LastUse
			}
		}
		s := streams[best]
		out = append(out, s[idx[best]])
		idx[best]++
		for idx[best] < len(s) {
			if k := s[idx[best]].Kind; k != MutDelete && k != MutSplit {
				break
			}
			out = append(out, s[idx[best]])
			idx[best]++
		}
	}
	return out
}

func TestShardedOracleEquivalence(t *testing.T) {
	repo := concRepo(t)
	const workers = 8
	perWorker := 5000
	if testing.Short() {
		perWorker = 500
	}

	base := Config{Alpha: 0.75, Capacity: repo.TotalSize() / 4}
	for _, shards := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := base
			cfg.Shards = shards
			hook := newShardHook(shards)
			cfg.Commit = hook
			sm, err := NewSharded(repo, cfg)
			if err != nil {
				t.Fatal(err)
			}
			pool := specPool(repo, 400, int64(shards))

			records := make([][]reqRec, workers)
			var wg sync.WaitGroup
			for g := 0; g < workers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < perWorker; i++ {
						k := (g*2654435761 + i*40503) % len(pool)
						if k < 0 {
							k += len(pool)
						}
						s := pool[k]
						res, err := sm.Request(s)
						if err != nil {
							t.Errorf("worker %d: Request: %v", g, err)
							return
						}
						records[g] = append(records[g], reqRec{s, res})
					}
				}(g)
			}
			wg.Wait()
			if t.Failed() {
				t.FailNow()
			}
			if err := sm.CheckIntegrity(); err != nil {
				t.Fatalf("integrity: %v", err)
			}

			// Seq is dense across shards: one shared clock.
			total := workers * perWorker
			bySeq := make([]reqRec, total)
			for _, rs := range records {
				for _, r := range rs {
					if r.res.Seq < 1 || r.res.Seq > uint64(total) {
						t.Fatalf("Seq %d outside 1..%d", r.res.Seq, total)
					}
					slot := &bySeq[r.res.Seq-1]
					if slot.res.Seq != 0 {
						t.Fatalf("duplicate Seq %d", r.res.Seq)
					}
					*slot = r
				}
			}

			// Check 1+2: serial replay through a fresh sharded manager.
			refCfg := cfg
			refCfg.Commit = nil
			ref, err := NewSharded(repo, refCfg)
			if err != nil {
				t.Fatal(err)
			}
			for i, rec := range bySeq {
				want, err := ref.Request(rec.s)
				if err != nil {
					t.Fatalf("reference request %d: %v", i, err)
				}
				if want != rec.res {
					t.Fatalf("request %d diverges from the serial reference:\nconcurrent %+v\n reference %+v", i, rec.res, want)
				}
			}
			live := stateJSON(t, sm.ExportState())
			if want := stateJSON(t, ref.ExportState()); live != want {
				t.Errorf("merged state differs from the serial reference:\n live %s\nwant %s", live, want)
			}

			// With one shard the sharded cache must degenerate byte-
			// identically to the plain single-threaded Manager.
			if shards == 1 {
				oracleCfg := cfg
				oracleCfg.Commit = nil
				oracleCfg.Shards = 0
				oracle := mgr(t, repo, oracleCfg)
				for i, rec := range bySeq {
					want, err := oracle.Request(rec.s)
					if err != nil {
						t.Fatalf("oracle request %d: %v", i, err)
					}
					if want != rec.res {
						t.Fatalf("request %d diverges from the unsharded oracle:\nsharded %+v\n oracle %+v", i, rec.res, want)
					}
				}
				if want := stateJSON(t, oracle.ExportState()); live != want {
					t.Errorf("shards=1 state differs from the unsharded Manager:\n live %s\nwant %s", live, want)
				}
			}

			// Check 3: the merged mutation streams replay through the
			// recovery path to the identical merged state.
			merged := mergeShardStreams(t, hook.streams)
			replay, err := NewSharded(repo, refCfg)
			if err != nil {
				t.Fatal(err)
			}
			for i, mut := range merged {
				if err := replay.ApplyMutation(mut); err != nil {
					t.Fatalf("mutation %d (%s image %d): %v", i, mut.Kind, mut.ImageID, err)
				}
			}
			if got := stateJSON(t, replay.ExportState()); got != live {
				t.Errorf("merged mutation-log replay differs from the live state:\nreplay %s\n  live %s", got, live)
			}

			if st := sm.Stats(); st.Requests != int64(total) {
				t.Errorf("stats.Requests = %d, want %d", st.Requests, total)
			}
		})
	}
}

// TestShardedPruneVsHitOrdering is TestPruneVsHitOrdering run against
// the sharded cache: global Seq stays a dense permutation under
// concurrent per-shard prune passes, every shard's commit stream keeps
// its stamps strictly increasing with deletes/splits glued to request
// boundaries, and the merged stream replays to the live merged state.
func TestShardedPruneVsHitOrdering(t *testing.T) {
	repo := concRepo(t)
	const shards = 4
	cfg := Config{Alpha: 0.8, Shards: shards} // unlimited: images bloat, so splits fire
	sm, err := NewSharded(repo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hook := newShardHook(shards)
	sm.SetCommitHook(hook)

	pool := specPool(repo, 40, 91)
	hot := pool[:4]
	for _, s := range pool {
		if _, err := sm.Request(s); err != nil {
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
				last := sm.Stats().Requests
				for running.Load() > 0 {
					if now := sm.Stats().Requests; now-last >= 300 {
						if _, err := sm.Prune(0.7, 1); err != nil {
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
				res, err := sm.Request(hot[(g*7+i)%len(hot)])
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

	extra := 0
	if sm.Stats().Splits == 0 {
		if _, err := sm.Prune(0.7, 1); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 60; i++ {
			res, err := sm.Request(hot[i%len(hot)])
			if err != nil {
				t.Fatal(err)
			}
			seqs[1] = append(seqs[1], res.Seq)
			extra++
		}
		if _, err := sm.Prune(0.7, 1); err != nil {
			t.Fatal(err)
		}
	}

	// Global dense Seq across all shards.
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

	// Per-shard stream contracts plus global replay. mergeShardStreams
	// itself asserts strictly-increasing stamps and chunk boundaries.
	merged := mergeShardStreams(t, hook.streams)
	stamped, splits := 0, 0
	for _, mut := range merged {
		switch mut.Kind {
		case MutTouch, MutMerge, MutInsert:
			stamped++
		case MutSplit:
			splits++
		}
	}
	if stamped != total {
		t.Fatalf("hooks saw %d stamped mutations, want %d", stamped, total)
	}
	if splits == 0 {
		t.Fatal("no split mutations recorded; the pruner never raced the hit traffic")
	}

	replay, err := NewSharded(repo, Config{Alpha: 0.8, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	for i, mut := range merged {
		if err := replay.ApplyMutation(mut); err != nil {
			t.Fatalf("replaying mutation %d (%s): %v", i, mut.Kind, err)
		}
	}
	if got, want := stateJSON(t, replay.ExportState()), stateJSON(t, sm.ExportState()); got != want {
		t.Fatalf("replayed state diverges from live state:\n got %s\nwant %s", got, want)
	}
}

// TestBalancerStarvation drives all traffic at one shard of eight and
// pins the balancer's contract: budgets always sum exactly to the
// global capacity (the identity the global byte bound rests on), cold
// shards never drop below the capacity/(4·shards) floor, the hot
// shard's budget grows past its even share, and the resident bytes
// never exceed the global budget at rebalance points.
func TestBalancerStarvation(t *testing.T) {
	repo := concRepo(t)
	const shards = 8
	capacity := repo.TotalSize() / 5
	cfg := Config{Alpha: 0.6, Capacity: capacity, Shards: shards}
	sm, err := NewSharded(repo, cfg)
	if err != nil {
		t.Fatal(err)
	}

	pool := specPool(repo, 600, 7)
	target := sm.ShardFor(pool[0])
	var hot []reqRec
	for _, s := range pool {
		if sm.ShardFor(s) == target {
			hot = append(hot, reqRec{s: s})
		}
	}
	if len(hot) < 10 {
		t.Fatalf("only %d specs route to shard %d; need more diversity", len(hot), target)
	}

	floor := capacity / (4 * shards)
	even := capacity / shards
	audit := func(step int) {
		t.Helper()
		budgets := sm.Budgets()
		var sum int64
		for i, b := range budgets {
			sum += b
			if b < floor {
				t.Fatalf("step %d: shard %d budget %d below floor %d (starved)", step, i, b, floor)
			}
		}
		if sum != capacity {
			t.Fatalf("step %d: budgets sum to %d, want exactly %d", step, sum, capacity)
		}
		sm.WithSharedAll(func(ms []*Manager) {
			var resident int64
			for i, m := range ms {
				if m.TotalData() > m.Capacity() && m.Len() > 1 {
					t.Fatalf("step %d: shard %d holds %d bytes over its %d budget with %d images",
						step, i, m.TotalData(), m.Capacity(), m.Len())
				}
				if m.Len() > 1 {
					resident += m.TotalData()
				}
			}
			// Multi-image shards respect their budgets, and budgets sum
			// to capacity, so multi-image residency is globally bounded.
			if resident > capacity {
				t.Fatalf("step %d: %d resident bytes exceed the %d global budget", step, resident, capacity)
			}
		})
	}

	for i := 0; i < 40*len(hot); i++ {
		if _, err := sm.Request(hot[i%len(hot)].s); err != nil {
			t.Fatal(err)
		}
		if i%97 == 0 {
			sm.Rebalance()
			audit(i)
		}
	}
	sm.Rebalance()
	audit(-1)

	budgets := sm.Budgets()
	if budgets[target] <= even {
		t.Errorf("hot shard %d budget %d never grew past its even share %d", target, budgets[target], even)
	}
	bal := sm.BalancerStats()
	if bal.Rebalances == 0 || bal.BudgetMoved == 0 {
		t.Errorf("balancer idle: %+v", bal)
	}
	if err := sm.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestSplitBudget pins the even split's exactness.
func TestSplitBudget(t *testing.T) {
	for _, tc := range []struct {
		c int64
		n int
	}{{100, 3}, {7, 4}, {0, 5}, {-3, 2}, {1, 1}, {1 << 40, 16}} {
		got := SplitBudget(tc.c, tc.n)
		if len(got) != tc.n {
			t.Fatalf("SplitBudget(%d,%d) returned %d budgets", tc.c, tc.n, len(got))
		}
		var sum int64
		for i, b := range got {
			sum += b
			if tc.c > 0 && i > 0 && b > got[i-1] {
				t.Errorf("SplitBudget(%d,%d): remainder not front-loaded: %v", tc.c, tc.n, got)
			}
		}
		want := tc.c
		if want < 0 {
			want = 0
		}
		if sum != want {
			t.Errorf("SplitBudget(%d,%d) sums to %d", tc.c, tc.n, sum)
		}
	}
}

// TestShardRouteDegenerate pins the unsharded degeneration: any shard
// count below 2 routes everything to shard 0.
// TestShardForMatchesShardRoute pins the dispatch fast path to the
// public route definition: ShardFor streams package fields straight
// into the hash state instead of materializing key strings, and the
// two must agree on every spec — the shadow checker recomputes routes
// from mutation key slices via ShardRoute, so any drift between the
// paths would misattribute inserts to the wrong shard.
func TestShardForMatchesShardRoute(t *testing.T) {
	repo := concRepo(t)
	for _, n := range []int{1, 2, 3, 4, 16} {
		cfg := Config{Alpha: 0.75, Shards: n}
		sm, err := NewSharded(repo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		gen := workload.NewDepClosure(repo, int64(900+n))
		for i := 0; i < 200; i++ {
			s := gen.Next()
			want := ShardRoute(sm.shards[0].m.keysOf(s), n)
			if got := sm.ShardFor(s); got != want {
				t.Fatalf("shards=%d spec %d: ShardFor = %d, ShardRoute over keys = %d", n, i, got, want)
			}
		}
	}
}

// TestShardsShareOneHasher pins that a sharded cache signs through one
// Hasher — one probe index per daemon, built once, whichever shard
// meets the first dense spec — and an unsharded one through its own.
func TestShardsShareOneHasher(t *testing.T) {
	repo := concRepo(t)
	sm, err := NewSharded(repo, Config{Alpha: 0.75, Shards: 4, MinHash: DefaultMinHash()})
	if err != nil {
		t.Fatal(err)
	}
	for i, sh := range sm.shards {
		if sh.m.hasher == nil || sh.m.hasher != sm.shards[0].m.hasher {
			t.Fatalf("shard %d signs with hasher %p, shard 0 with %p", i, sh.m.hasher, sm.shards[0].m.hasher)
		}
	}
	plain, err := NewSharded(repo, Config{Alpha: 0.75, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if plain.shards[3].m.hasher != nil {
		t.Fatal("a cache without MinHash was given a hasher")
	}
}

func TestShardRouteDegenerate(t *testing.T) {
	keys := []string{"b/1/p", "a/2/p", "c/3/p"}
	for _, n := range []int{1, 0, -4} {
		if got := ShardRoute(keys, n); got != 0 {
			t.Errorf("ShardRoute(keys, %d) = %d, want 0", n, got)
		}
	}
	if got, want := ShardRoute(keys, 7), ShardRoute([]string{"c/3/p", "b/1/p", "a/2/p"}, 7); got != want {
		t.Errorf("route depends on key order: %d vs %d", got, want)
	}
}

// TestShardRoutePinned pins the shard route: image ids are strided by
// shard and recovery routes by them, so a route that moved would strand
// every persisted image. 1<<62 shards keeps 62 of the mixed sum's bits.
func TestShardRoutePinned(t *testing.T) {
	for _, tc := range []struct {
		keys []string
		want [5]int // at 2, 3, 4, 16 and 1<<62 shards
	}{
		{[]string{"a"}, [5]int{0, 1, 0, 12, 3216957245285230780}},
		{[]string{"b/1/p", "a/2/p", "c/3/p"}, [5]int{1, 1, 3, 15, 4414258315557580271}},
		{[]string{"core-000/2.1.0/x86_64-centos7-gcc8-opt", "app-0004/4.0.0/x86_64-centos7-gcc8-opt"}, [5]int{0, 0, 0, 4, 4428599360246242356}},
		{[]string{""}, [5]int{0, 2, 0, 8, 1094985734709970104}},
		{[]string{"x", "x"}, [5]int{0, 2, 0, 12, 2633860030269881708}},
	} {
		for i, n := range []int{2, 3, 4, 16, 1 << 62} {
			if got := ShardRoute(tc.keys, n); got != tc.want[i] {
				t.Errorf("ShardRoute(%q, %d) = %d, want %d", tc.keys, n, got, tc.want[i])
			}
		}
	}
	repo := concRepo(t)
	sm, err := NewSharded(repo, Config{Alpha: 0.75, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewDepClosure(repo, 1)
	digest := uint64(14695981039346656037)
	for i := 0; i < 500; i++ {
		route := ShardRoute(sm.shards[0].m.keysOf(gen.Next()), 1<<62)
		digest = (digest ^ uint64(route)) * 1099511628211
	}
	if digest != 0xe6c088532d348e95 {
		t.Errorf("500 seed-1 specs route to digest %#x, want 0xe6c088532d348e95", digest)
	}
}

// FuzzShardRoute fuzzes the shard router: for every key set and shard
// count the route must be deterministic, land in [0, shards), ignore
// key order, and degenerate to shard 0 for shard counts below 2. It
// also pins the interned fold: mapping the blob's bytes onto a fixed
// repository's packages, the term table's sum (spec.RouteTerms, the
// type the fleet's key dictionary keeps too) must equal the string
// fold of the spec's keys, and so route every spec exactly where
// streaming its keys would.
func FuzzShardRoute(f *testing.F) {
	repo := concRepo(f)
	terms := spec.NewRouteTerms(repo)
	f.Add("base/1.0/p\nlib/2.0/p", 4)
	f.Add("", 1)
	f.Add("core-000/1.7.0/x86_64\napp/3/p\napp/3/p", 16)
	f.Add("x", 0)
	f.Add("\x00\xff\ny", -7)
	f.Fuzz(func(t *testing.T, blob string, shards int) {
		keys := strings.Split(blob, "\n")
		ids := make([]pkggraph.PkgID, 0, len(blob))
		for i := 0; i < len(blob); i++ {
			ids = append(ids, pkggraph.PkgID(int(blob[i])%repo.Len()))
		}
		s := spec.New(ids)
		specKeys := make([]string, 0, s.Len())
		for _, id := range s.IDs() {
			specKeys = append(specKeys, repo.Package(id).Key())
		}
		if got, want := terms.Sum(s), spec.RouteSum(specKeys); got != want {
			t.Fatalf("RouteTerms.Sum(%v) = %x, RouteSum over its keys = %x", s.IDs(), got, want)
		}
		for _, n := range []int{-1, 0, 1, 2, 3, 4, 16, shards} {
			if got, want := ShardOf(terms.Sum(s), n), ShardRoute(specKeys, n); got != want {
				t.Fatalf("ShardOf(table sum of %v, %d) = %d, streamed ShardRoute = %d", s.IDs(), n, got, want)
			}
		}
		route := ShardRoute(keys, shards)
		if shards < 2 {
			if route != 0 {
				t.Fatalf("ShardRoute(%q, %d) = %d, want 0", keys, shards, route)
			}
		} else if route < 0 || route >= shards {
			t.Fatalf("ShardRoute(%q, %d) = %d outside [0,%d)", keys, shards, route, shards)
		}
		if again := ShardRoute(keys, shards); again != route {
			t.Fatalf("route not deterministic: %d then %d", route, again)
		}
		rev := make([]string, len(keys))
		for i, k := range keys {
			rev[len(keys)-1-i] = k
		}
		if got := ShardRoute(rev, shards); got != route {
			t.Fatalf("route depends on key order: %d vs %d", route, got)
		}
		for _, n := range []int{1, 2, 3, 4, 16, 64} {
			if r := ShardRoute(keys, n); r < 0 || r >= n {
				t.Fatalf("ShardRoute(%q, %d) = %d outside [0,%d)", keys, n, r, n)
			}
		}
	})
}
