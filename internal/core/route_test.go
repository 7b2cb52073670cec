package core

import (
	"strings"
	"testing"

	"repro/internal/pkggraph"
	"repro/internal/spec"
	"repro/internal/workload"
)

// TestShardForMatchesShardRoute pins the interned route fold to the
// streamed one on realistic specs: the term table's sum over a spec's
// ids (what the fleet's directory index and key dictionary add up)
// must equal spec.RouteSum over its package keys for 1,000 generated
// dependency closures.
func TestShardForMatchesShardRoute(t *testing.T) {
	repo := concRepo(t)
	m := mgr(t, repo, Config{})
	terms := spec.NewRouteTerms(repo)
	for _, seed := range []int64{901, 902, 903, 904, 916} {
		gen := workload.NewDepClosure(repo, seed)
		for i := 0; i < 200; i++ {
			s := gen.Next()
			if got, want := terms.Sum(s), spec.RouteSum(m.keysOf(s)); got != want {
				t.Fatalf("seed %d spec %d: table sum %x, streamed sum %x", seed, i, got, want)
			}
		}
	}
}

// TestShardRoutePinned pins the route fold, mixed: RouteMix over
// RouteSum, the unseeded core of the fleet's route key, so a fold that
// moved would re-draw every spec's agent. Its low 62 bits are the
// values the cache's shard router once reduced, here pinned for five
// key lists and, as a digest, for 500 seed-1 generated specs.
func TestShardRoutePinned(t *testing.T) {
	const low62 = 1<<62 - 1
	for _, tc := range []struct {
		keys []string
		want uint64
	}{
		{[]string{"a"}, 3216957245285230780},
		{[]string{"b/1/p", "a/2/p", "c/3/p"}, 4414258315557580271},
		{[]string{"core-000/2.1.0/x86_64-centos7-gcc8-opt", "app-0004/4.0.0/x86_64-centos7-gcc8-opt"}, 4428599360246242356},
		{[]string{""}, 1094985734709970104},
		{[]string{"x", "x"}, 2633860030269881708},
	} {
		if got := spec.RouteMix(spec.RouteSum(tc.keys)) & low62; got != tc.want {
			t.Errorf("route of %q = %d, want %d", tc.keys, got, tc.want)
		}
	}
	repo := concRepo(t)
	m := mgr(t, repo, Config{})
	gen := workload.NewDepClosure(repo, 1)
	digest := uint64(14695981039346656037)
	for i := 0; i < 500; i++ {
		route := spec.RouteMix(spec.RouteSum(m.keysOf(gen.Next()))) & low62
		digest = (digest ^ route) * 1099511628211
	}
	if digest != 0xe6c088532d348e95 {
		t.Errorf("500 seed-1 specs route to digest %#x, want 0xe6c088532d348e95", digest)
	}
}

// FuzzShardRoute fuzzes the route fold the fleet places specs by
// (internal/spec's RouteSum, RouteTerms and RouteMix; the cache's shard
// router was its first user, hence the name and this corpus). For every
// key set the streamed fold must be deterministic and ignore key order
// — the blob's keys reversed and rotated by rot — and a placement over
// n members, RouteMix of the sum mod n, must land in [0, n). It also
// pins the interned fold: mapping the blob's bytes onto a fixed
// repository's packages, the term table's sum (the type the fleet's key
// dictionary and directory index keep) must equal the string fold of
// the spec's keys, so a spec routes exactly where streaming its keys
// would.
func FuzzShardRoute(f *testing.F) {
	repo := concRepo(f)
	terms := spec.NewRouteTerms(repo)
	f.Add("base/1.0/p\nlib/2.0/p", 4)
	f.Add("", 1)
	f.Add("core-000/1.7.0/x86_64\napp/3/p\napp/3/p", 16)
	f.Add("x", 0)
	f.Add("\x00\xff\ny", -7)
	f.Fuzz(func(t *testing.T, blob string, rot int) {
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
		sum := spec.RouteSum(keys)
		if again := spec.RouteSum(keys); again != sum {
			t.Fatalf("fold not deterministic: %x then %x", sum, again)
		}
		rev := make([]string, len(keys))
		for i, k := range keys {
			rev[len(keys)-1-i] = k
		}
		k := ((rot % len(keys)) + len(keys)) % len(keys)
		rotated := append(append([]string(nil), keys[k:]...), keys[:k]...)
		for _, other := range [][]string{rev, rotated} {
			if got := spec.RouteSum(other); got != sum {
				t.Fatalf("fold depends on key order: %q folds to %x, %q to %x", keys, sum, other, got)
			}
		}
		for _, n := range []uint64{1, 2, 3, 4, 16, 64} {
			if r := spec.RouteMix(sum) % n; r >= n {
				t.Fatalf("placement of %q over %d members = %d", keys, n, r)
			}
		}
	})
}
