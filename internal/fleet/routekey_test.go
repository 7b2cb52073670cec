package fleet

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"repro/internal/pkggraph"
	"repro/internal/workload"
)

// routeKeyOf is the dictionary's route key for a request's key views.
func routeKeyOf(d *KeyDict, keys [][]byte) uint64 {
	key, _, _ := d.Route(keys)
	return key
}

// TestRouteKeyHashesDistinctKeys: a repeated key is the same spec to
// the agent, so it must be the same route — through RouteKey and
// through the master's dictionary — and the key itself is pinned (the
// seeded finaliser over the two keys' summed route terms): a route
// that moved would send every warm spec to a cold agent.
func TestRouteKeyHashesDistinctKeys(t *testing.T) {
	if got := RouteKey([]string{"b", "a"}); got != 0x719be83e0c553a7d {
		t.Fatalf("RouteKey([b a]) = %#x, want 0x719be83e0c553a7d: the route moved", got)
	}
	dup, plain := []string{"a", "b", "a"}, []string{"b", "a"}
	if RouteKey(dup) != RouteKey(plain) {
		t.Fatalf("RouteKey(%q) = %x, RouteKey(%q) = %x", dup, RouteKey(dup), plain, RouteKey(plain))
	}

	m := NewMaster(MasterConfig{SuspectAfter: -1, MaxAttempts: 10})
	for _, id := range []string{"a1", "a2", "a3"} {
		seedMember(t, m, id, DirEntry{ID: 1, Version: 1, Size: 1, Packages: []string{"a", "c"}})
	}
	for _, gossipB := range []bool{false, true} { // "b" unknown, then known
		if gossipB {
			seedMember(t, m, "a1", DirEntry{ID: 2, Version: 1, Size: 1, Packages: []string{"b"}})
		}
		m.mu.Lock()
		got, want := m.routeLocked(m.ms.dict.Route(keyViews(dup))), m.routeLocked(m.ms.dict.Route(keyViews(plain)))
		m.mu.Unlock()
		if got.Key != RouteKey(plain) || got.Key != want.Key || !slices.Equal(got.Candidates, want.Candidates) {
			t.Fatalf("master routes %q as %+v and %q as %+v, want key %x for both", dup, got, plain, want, RouteKey(plain))
		}
	}
}

// TestRouteKeyDictionaryDifferential grows one dictionary through two
// agents' seeded gossip — upserts and removes over the lossy wire, gaps
// answered by full resyncs, generation resets — and after every applied
// frame requires the term audit to pass and the dictionary's route key
// to equal RouteKey on requests all known, partly and wholly unknown,
// with repeats (known and unknown), of one key, empty, and permuted.
func TestRouteKeyDictionaryDifferential(t *testing.T) {
	const universe = 300
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dict := NewKeyDict()
		followers := []*Follower{NewFollower(dict), NewFollower(dict)}
		compared := 0
		ghost := func() string {
			return []string{"", "a", "pkg-", "pkg-" + strconv.Itoa(universe+rng.Intn(900)), "~"}[rng.Intn(5)]
		}
		probe := func(when string) {
			t.Helper()
			if err := dict.checkTerms(); err != nil {
				t.Fatalf("seed %d, %s: %v", seed, when, err)
			}
			for n := 0; n < 16; n++ {
				var req []string
				if len(dict.keys) > 0 {
					for k := rng.Intn(40); k >= 0; k-- {
						req = append(req, dict.keys[rng.Intn(len(dict.keys))])
					}
				}
				switch rng.Intn(6) {
				case 0: // partly unknown
					for k := rng.Intn(4); k >= 0; k-- {
						req = append(req, ghost())
					}
				case 1: // all unknown, repeats included
					req = req[:0]
					for k := rng.Intn(5); k >= 0; k-- {
						req = append(req, ghost())
					}
					req = append(req, req...)
				case 2: // repeated keys
					req = append(req, req[:len(req)/2]...)
				case 3: // one key
					req = req[:min(len(req), 1)]
				case 4: // empty
					req = []string{}
				}
				rng.Shuffle(len(req), func(i, j int) { req[i], req[j] = req[j], req[i] })
				if got, want := routeKeyOf(dict, keyViews(req)), RouteKey(req); got != want {
					t.Fatalf("seed %d, %s: dictionary route key %x, RouteKey %x for %q", seed, when, got, want, req)
				}
				compared++
			}
		}
		for gen := 0; gen < 3; gen++ {
			for a, f := range followers {
				f.Reset()
				dir := NewDirectory(16)
				var frames []DirDelta
				ack := uint64(0)
				live := map[uint64]uint64{}
				for batch := 0; batch < 30; batch++ {
					for n := rng.Intn(4); n >= 0; n-- {
						id := uint64(rng.Intn(12))
						if _, ok := live[id]; ok && rng.Float64() < 0.3 {
							delete(live, id)
							dir.Remove(id)
						} else {
							live[id]++
							dir.Put(DirEntry{ID: id, Version: live[id], Size: int64(id),
								Packages: randomKeySet(rng, universe, 1+rng.Intn(20))})
						}
					}
					d := dir.DeltaSince(ack)
					frames = append(frames, d)
					if rng.Float64() < 0.7 {
						ack = d.To
					}
				}
				for i, fr := range lossyWire(t, rng, frames) {
					res := f.Apply(fr)
					if res == DeltaGap {
						res = f.Apply(dir.Full())
					}
					probe(fmt.Sprintf("agent %d gen %d frame %d (%v)", a, gen, i, res))
				}
				assertConverged(t, dir, f)
			}
		}
		if compared == 0 || len(dict.keys) < universe/2 {
			t.Fatalf("seed %d: %d comparisons over a %d-key dictionary", seed, compared, len(dict.keys))
		}
	}
}

// seedSpecKeys returns the package keys of the first n seed-1 closed
// specs over the default 9,660-package repository — the benchmark's
// fleet_mixed specs, the first 256 its warm set.
func seedSpecKeys(tb testing.TB, n int) [][]string {
	tb.Helper()
	repo, err := pkggraph.Generate(pkggraph.DefaultGenConfig(), 1)
	if err != nil {
		tb.Fatal(err)
	}
	gen := workload.NewDepClosure(repo, 1)
	specs := make([][]string, n)
	for i := range specs {
		for _, id := range gen.Next().IDs() {
			specs[i] = append(specs[i], repo.Package(id).Key())
		}
	}
	return specs
}

// benchRouteRequests is the route-key workload at the benchmark's
// scale: a dictionary grown from one full gossip frame of the first 256
// seed-1 specs (a warm agent's directory), and the n specs after them
// in body order, one in five carrying a key no agent gossiped.
func benchRouteRequests(tb testing.TB, n int) (*KeyDict, [][][]byte) {
	tb.Helper()
	specs := seedSpecKeys(tb, 256+n)
	dir := NewDirectory(0)
	for i, keys := range specs[:256] {
		dir.Put(DirEntry{ID: uint64(i), Version: 1, Size: 1, Packages: keys})
	}
	dict := NewKeyDict()
	NewFollower(dict).Apply(dir.Full())
	reqs := make([][][]byte, n)
	for i, keys := range specs[256:] {
		if i%5 == 0 {
			keys = append(keys, "ghost-"+strconv.Itoa(i)+"/1.0.0/x86_64-centos7-gcc8-opt")
		}
		reqs[i] = keyViews(keys)
	}
	return dict, reqs
}

// TestRouteKeyPlacement is the placement proof on the benchmark's
// specs: through the dictionary, each request's route key is RouteKey's
// in body order, permuted, with injected repeats, and with none, one or
// all of its keys unknown to the dictionary. -short routes 500 specs,
// the full run 10,000.
func TestRouteKeyPlacement(t *testing.T) {
	n := 10000
	if testing.Short() {
		n = 500
	}
	dict, reqs := benchRouteRequests(t, n)
	empty := NewKeyDict()
	rng := rand.New(rand.NewSource(1))
	strs := func(views [][]byte) []string {
		out := make([]string, len(views))
		for i, v := range views {
			out[i] = string(v)
		}
		return out
	}
	for i, req := range reqs {
		want := RouteKey(strs(req))
		permuted := slices.Clone(req)
		rng.Shuffle(len(permuted), func(a, b int) { permuted[a], permuted[b] = permuted[b], permuted[a] })
		repeated := append(slices.Clone(req), req[rng.Intn(len(req))], req[0])
		oneUnknown := append(slices.Clone(req), []byte("ghost-one/1.0.0/x86_64-centos7-gcc8-opt"))
		for name, got := range map[string]uint64{
			"body order":  routeKeyOf(dict, req),
			"permuted":    routeKeyOf(dict, permuted),
			"repeated":    routeKeyOf(dict, repeated),
			"all unknown": routeKeyOf(empty, req),
		} {
			if got != want {
				t.Fatalf("spec %d (%d keys), %s: dictionary route key %x, RouteKey %x", i, len(req), name, got, want)
			}
		}
		if got, want := routeKeyOf(dict, oneUnknown), RouteKey(strs(oneUnknown)); got != want {
			t.Fatalf("spec %d, one more unknown key: dictionary route key %x, RouteKey %x", i, got, want)
		}
	}
}

// benchAgents names agents agent-1..agent-n, the benchmark topology's
// names.
func benchAgents(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = "agent-" + strconv.Itoa(i+1)
	}
	return names
}

// sortedFNVRouteKey is the route key the fleet used before it summed
// route terms: fnv64a over the distinct keys in sorted order, each
// followed by a newline. It is kept only to count what moving off it
// costs.
func sortedFNVRouteKey(packages []string) uint64 {
	sorted := slices.Clone(packages)
	slices.Sort(sorted)
	h := fnv.New64a()
	for _, k := range slices.Compact(sorted) {
		h.Write([]byte(k + "\n"))
	}
	return h.Sum64()
}

// TestRouteUpgradeCost counts what the summed route costs once, at
// upgrade: of the benchmark's 256 seed-1 warm specs, how many change
// agent between sortedFNVRouteKey and RouteKey, each placed on its
// rendezvous owner among 2 and among 3 agents (DESIGN.md §10 quotes
// these counts). A random reassignment would move (N−1)/N of them.
func TestRouteUpgradeCost(t *testing.T) {
	specs := seedSpecKeys(t, 256)
	for agents, want := range map[int]int{2: 143, 3: 166} {
		names, moved := benchAgents(agents), 0
		for _, keys := range specs {
			if rendezvousOwner(names, sortedFNVRouteKey(keys)) != rendezvousOwner(names, RouteKey(keys)) {
				moved++
			}
		}
		t.Logf("%d agents: %d of %d warm specs (%.1f%%) change agent", agents, moved, len(specs), 100*float64(moved)/float64(len(specs)))
		if moved != want {
			t.Errorf("%d agents: %d of %d warm specs change agent, want %d", agents, moved, len(specs), want)
		}
	}
}

var routeKeySink uint64

// BenchmarkRouteKey prices the master's per-request route key on the
// benchmark's bodies (benchRouteRequests): one Route per request, which
// also answers the affinity translation. `make bench-guard` holds it
// to 0 allocs/op.
func BenchmarkRouteKey(b *testing.B) {
	dict, reqs := benchRouteRequests(b, 500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key, _, _ := dict.Route(reqs[i%len(reqs)])
		routeKeySink += key
	}
}
