package fleet

import (
	"fmt"
	"go/parser"
	"go/token"
	"math/rand"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// naiveHoldsSuperset is the test oracle for Follower.HoldsSuperset: the
// map-building scan the index replaced. It reads only the mirror's
// entries, never the index, and treats the request as a set (a repeated
// key counts once).
func naiveHoldsSuperset(f *Follower, packages []string) bool {
	for _, e := range f.Entries() {
		have := make(map[string]bool, len(e.Packages))
		for _, k := range e.Packages {
			have[k] = true
		}
		ok := true
		for _, k := range packages {
			if !have[k] {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func indexedHoldsSuperset(dict *KeyDict, f *Follower, packages []string) bool {
	_, q, known := dict.Route(keyViews(packages))
	return known && f.HoldsSuperset(q)
}

// keyViews renders package keys as the master's decoder hands them out.
func keyViews(packages []string) [][]byte {
	views := make([][]byte, len(packages))
	for i, k := range packages {
		views[i] = []byte(k)
	}
	return views
}

// randomKeySet draws n distinct keys of a universe-sized key space,
// sorted as agents gossip them.
func randomKeySet(rng *rand.Rand, universe, n int) []string {
	keys := make([]string, 0, n)
	for _, i := range rng.Perm(universe)[:n] {
		keys = append(keys, "pkg-"+strconv.Itoa(i))
	}
	sort.Strings(keys)
	return keys
}

// TestMirrorIndexDifferential drives two agents' directories through
// seeded mutation streams over the lossy gossip wire into followers that
// share one dictionary — gaps answered by Full resyncs, generation
// resets mid-stream — and after every applied frame requires the index
// to pass its own audit and to answer random requests exactly as the
// naive scan does.
func TestMirrorIndexDifferential(t *testing.T) {
	const universe = 120
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dict := NewKeyDict()
		followers := []*Follower{NewFollower(dict), NewFollower(dict)}
		compared, held := 0, 0

		probe := func(f *Follower, when string) {
			t.Helper()
			if err := f.checkIndex(); err != nil {
				t.Fatalf("seed %d, %s: %v", seed, when, err)
			}
			entries := f.Entries()
			for n := 0; n < 12; n++ {
				var req []string
				if len(entries) > 0 {
					from := entries[rng.Intn(len(entries))].Packages
					for _, i := range rng.Perm(len(from))[:rng.Intn(len(from)+1)] {
						req = append(req, from[i])
					}
				}
				switch rng.Intn(5) {
				case 0: // near-miss: one key more, usually not in that image
					req = append(req, "pkg-"+strconv.Itoa(rng.Intn(universe)))
				case 1: // a key no agent ever gossiped
					req = append(req, "never-gossiped-"+strconv.Itoa(rng.Intn(4)))
				case 2: // repeated keys
					req = append(req, req...)
				case 3: // empty but non-nil
					req = []string{}
				}
				want := naiveHoldsSuperset(f, req)
				if got := indexedHoldsSuperset(dict, f, req); got != want {
					t.Fatalf("seed %d, %s: index says %v, naive scan says %v for %q over %+v",
						seed, when, got, want, req, entries)
				}
				compared++
				if want {
					held++
				}
			}
		}

		// Each generation is a fresh leader whose revisions restart, as
		// after an agent restart; Membership.Register resets the mirror.
		for gen := 0; gen < 3; gen++ {
			for a, f := range followers {
				f.Reset()
				probe(f, fmt.Sprintf("agent %d gen %d after reset", a, gen))
				dir := NewDirectory(16) // small journal: aged-out acks force Full frames too
				var frames []DirDelta
				ack := uint64(0)
				live := map[uint64]uint64{}
				for batch := 0; batch < 40; batch++ {
					for n := rng.Intn(4); n >= 0; n-- {
						id := uint64(rng.Intn(12))
						if _, ok := live[id]; ok && rng.Float64() < 0.3 {
							delete(live, id)
							dir.Remove(id)
						} else {
							live[id]++
							dir.Put(DirEntry{ID: id, Version: live[id], Size: int64(id),
								Packages: randomKeySet(rng, universe, 1+rng.Intn(40))})
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
					probe(f, fmt.Sprintf("agent %d gen %d frame %d (%v)", a, gen, i, res))
				}
				assertConverged(t, dir, f)
				probe(f, fmt.Sprintf("agent %d gen %d converged", a, gen))
			}
		}
		if held == 0 || held == compared {
			t.Fatalf("seed %d: %d of %d probes were held; the comparison never saw both answers", seed, held, compared)
		}
	}
}

// TestCheckIndexCatchesDivergence corrupts a follower's index the two
// ways maintenance can go wrong — an image the mirror dropped is still
// indexed, and an indexed bitset no longer matches its entry — and
// requires the audit behind Master.CheckIntegrity to name each.
func TestCheckIndexCatchesDivergence(t *testing.T) {
	dir := NewDirectory(0)
	dir.Put(DirEntry{ID: 1, Version: 1, Size: 1, Packages: []string{"a", "b"}})
	dir.Put(DirEntry{ID: 2, Version: 1, Size: 1, Packages: []string{"b", "c"}})
	f := NewFollower(NewKeyDict())
	f.Apply(dir.Full())
	if err := f.checkIndex(); err != nil {
		t.Fatalf("clean mirror: %v", err)
	}

	kept := f.index[2]
	delete(f.entries, 2) // what a Remove that skips the index leaves behind
	if err := f.checkIndex(); err == nil || !strings.Contains(err.Error(), "[2]") {
		t.Fatalf("stale indexed image: %v", err)
	}
	f.entries[2] = DirEntry{ID: 2, Version: 2, Size: 1, Packages: []string{"c"}}
	f.index[2] = kept
	if err := f.checkIndex(); err == nil || !strings.Contains(err.Error(), "image 2 v2") {
		t.Fatalf("stale bitset: %v", err)
	}
}

// TestFleetDoesNotImportClusterSim pins the dependency cut: the
// networked control plane is the one site model and must not link the
// retired in-process one (make check's tripwire keeps it retired).
func TestFleetDoesNotImportClusterSim(t *testing.T) {
	banned := "repro/internal/" + "cluster"
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("listing package files: %v (%d found)", err, len(files))
	}
	fset := token.NewFileSet()
	for _, name := range files {
		file, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatalf("parsing %s: %v", name, err)
		}
		for _, imp := range file.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == banned {
				t.Errorf("%s imports %s", name, banned)
			}
		}
	}
}

var affinitySink bool

// BenchmarkRouteAffinity prices the per-request affinity question at
// the benchmark's scale: two agents each mirroring 25 images of ~3000
// keys from a 9660-key repository, and a 350-key request only the
// second agent holds, so one mirror is scanned to exhaustion and the
// other to a hit. `make bench-guard` requires 0 allocs/op.
func BenchmarkRouteAffinity(b *testing.B) {
	const universe, images, imageKeys, reqKeys = 9660, 25, 3000, 350
	rng := rand.New(rand.NewSource(1))
	ms := NewMembership(-1, 0)
	agents := []string{"agent-0", "agent-1"}
	now := time.Unix(0, 0)
	var last []string
	for _, id := range agents {
		ms.Register(RegisterRequest{ID: id, URL: "http://" + id, Gen: 1}, now)
		dir := NewDirectory(0)
		for i := 0; i < images; i++ {
			last = randomKeySet(rng, universe, imageKeys)
			dir.Put(DirEntry{ID: uint64(i), Version: 1, Size: 1, Packages: last})
		}
		if resp := ms.Heartbeat(HeartbeatRequest{ID: id, Gen: 1, Delta: dir.Full()}, now); resp.Unknown || resp.Resync {
			b.Fatalf("seeding %s: %+v", id, resp)
		}
	}
	req := make([][]byte, 0, reqKeys)
	for _, i := range rng.Perm(len(last))[:reqKeys] {
		req = append(req, []byte(last[i]))
	}
	holds := func() (first, second bool) {
		_, q, known := ms.dict.Route(req)
		return known && ms.HoldsSuperset(agents[0], q), known && ms.HoldsSuperset(agents[1], q)
	}
	if first, second := holds(); first || !second {
		b.Fatalf("setup: agent-0 holds=%v agent-1 holds=%v, want false/true", first, second)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, affinitySink = holds()
	}
}
