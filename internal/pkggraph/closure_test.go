package pkggraph

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// referenceClosure is Repo.Closure as it was before the bitset kernel:
// a map as the mark set over the precomputed table, then a sort. It
// lives on here only as the oracle the kernel is held to.
func referenceClosure(r *Repo, ids []PkgID) []PkgID {
	if len(ids) == 0 {
		return nil
	}
	seen := make(map[PkgID]struct{}, len(ids)*8)
	for _, id := range ids {
		for _, c := range r.closures[id] {
			seen[c] = struct{}{}
		}
	}
	return sortedSet(seen)
}

// referenceBuildClosures is buildClosures as it was before the kernel.
func referenceBuildClosures(pkgs []Package, order []PkgID) [][]PkgID {
	closures := make([][]PkgID, len(pkgs))
	for _, id := range order {
		seen := map[PkgID]struct{}{id: {}}
		for _, d := range pkgs[id].Deps {
			for _, c := range closures[d] {
				seen[c] = struct{}{}
			}
		}
		closures[id] = sortedSet(seen)
	}
	return closures
}

// dfsClosure walks Package.Deps and never reads the closure table, so
// it also catches a table both implementations would agree on wrongly.
func dfsClosure(r *Repo, ids []PkgID) []PkgID {
	if len(ids) == 0 {
		return nil
	}
	seen := make(map[PkgID]struct{})
	var visit func(PkgID)
	visit = func(id PkgID) {
		if _, ok := seen[id]; ok {
			return
		}
		seen[id] = struct{}{}
		for _, d := range r.Package(id).Deps {
			visit(d)
		}
	}
	for _, id := range ids {
		visit(id)
	}
	return sortedSet(seen)
}

func sortedSet(seen map[PkgID]struct{}) []PkgID {
	out := make([]PkgID, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// checkClosure holds one Closure call to both oracles and checks that
// the call left the pooled scratch it drew all zero.
func checkClosure(t testing.TB, r *Repo, ids []PkgID) {
	t.Helper()
	got := r.Closure(ids)
	if (got == nil) != (len(ids) == 0) {
		t.Fatalf("Closure of %d id(s): nil = %v", len(ids), got == nil)
	}
	if cap(got) != len(got) {
		t.Fatalf("Closure of %d id(s): len %d, cap %d: result not exactly sized", len(ids), len(got), cap(got))
	}
	if want := referenceClosure(r, ids); !idsEqual(got, want) {
		t.Fatalf("Closure of %d id(s) differs from the map+sort reference:\n got %v\nwant %v", len(ids), got, want)
	}
	if want := dfsClosure(r, ids); !idsEqual(got, want) {
		t.Fatalf("Closure of %d id(s) differs from a walk over Deps:\n got %v\nwant %v", len(ids), got, want)
	}
	b := r.scratch.Get().(*idBits)
	for i, w := range b.words {
		if w != 0 {
			t.Fatalf("Closure of %d id(s) left scratch word %d = %#x", len(ids), i, w)
		}
	}
	r.scratch.Put(b)
}

// checkTable holds the repository's closure table to the reference
// build, package by package.
func checkTable(t testing.TB, r *Repo) {
	t.Helper()
	order, err := topoOrder(r.pkgs)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceBuildClosures(r.pkgs, order)
	for id := range want {
		if got := r.PackageClosure(PkgID(id)); !idsEqual(got, want[id]) || cap(got) != len(got) {
			t.Fatalf("closure table entry %d: got %v (cap %d), want %v", id, got, cap(got), want[id])
		}
	}
}

// randomDAG builds an n-package repository whose dependencies follow a
// seeded random rank, not the ID order, so closures reach above and
// below a package's own ID (a loaded repository may list packages in
// any order; Generate never does).
func randomDAG(t testing.TB, rng *rand.Rand, n int) *Repo {
	t.Helper()
	rank := rng.Perm(n) // rank[i] is the ID of the i-th package in dependency order
	pkgs := make([]Package, n)
	for i, id := range rank {
		p := Package{ID: PkgID(id), Name: fmt.Sprintf("p%d", id), Version: "1", Platform: "p", Size: 1}
		for k := rng.Intn(4); k > 0 && i > 0; k-- {
			p.Deps = append(p.Deps, PkgID(rank[rng.Intn(i)])) // repeats allowed
		}
		pkgs[id] = p
	}
	r, err := New(pkgs)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// selection draws n package IDs, distinct or not, in random order.
func selection(rng *rand.Rand, r *Repo, n int, distinct bool) []PkgID {
	if distinct {
		ids := make([]PkgID, n)
		for i, v := range rng.Perm(r.Len())[:n] {
			ids[i] = PkgID(v)
		}
		return ids
	}
	ids := make([]PkgID, n)
	for i := range ids {
		ids[i] = PkgID(rng.Intn(r.Len()))
	}
	return ids
}

// TestClosureMatchesReference holds the bitset kernel — Repo.Closure
// and the table buildClosures fills — to the deleted map+sort bodies
// and to a walk over Deps, on the default repository at Figure 3's
// selection sizes and on small DAGs whose sizes straddle the word
// boundaries.
func TestClosureMatchesReference(t *testing.T) {
	check := func(t *testing.T, r *Repo, rng *rand.Rand, sizes []int) {
		checkTable(t, r)
		checkClosure(t, r, nil)
		checkClosure(t, r, []PkgID{})
		all, rev := make([]PkgID, r.Len()), make([]PkgID, r.Len())
		for i := range all {
			all[i], rev[i] = PkgID(i), PkgID(r.Len()-1-i)
		}
		checkClosure(t, r, all)
		checkClosure(t, r, rev)
		for _, n := range sizes {
			if n > r.Len() {
				continue
			}
			checkClosure(t, r, selection(rng, r, n, true))
			dup := selection(rng, r, n, false)
			checkClosure(t, r, append(dup, dup...)) // unsorted, every ID at least twice
		}
	}

	t.Run("default", func(t *testing.T) {
		r := MustGenerate(DefaultGenConfig(), 1)
		check(t, r, rand.New(rand.NewSource(3)), []int{1, 2, 3, 10, 50, 100, 200, 500, 1000})
	})
	t.Run("small", func(t *testing.T) {
		r := MustGenerate(smallGenConfig(), 2)
		check(t, r, rand.New(rand.NewSource(4)), []int{1, 2, 7, 100, r.Len()})
	})
	for _, n := range []int{1, 2, 63, 64, 65, 127, 128, 129, 300} {
		n := n
		t.Run(fmt.Sprintf("dag%d", n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(n)))
			for rep := 0; rep < 5; rep++ {
				check(t, randomDAG(t, rng, n), rng, []int{1, 2, 3, n / 2, n})
			}
		})
	}
}

// TestClosureConcurrent calls Closure back to back from 8 goroutines
// on one Repo: each call must see a clean scratch no other call is
// writing. Run under -race (make race, CI) the detector checks the
// private part; the comparison checks the clean part.
func TestClosureConcurrent(t *testing.T) {
	r := MustGenerate(smallGenConfig(), 5)
	rng := rand.New(rand.NewSource(6))
	const workers, perWorker = 8, 40
	sels := make([][]PkgID, workers*perWorker)
	want := make([][]PkgID, len(sels))
	for i := range sels {
		sels[i] = selection(rng, r, 2+rng.Intn(60), false)
		want[i] = referenceClosure(r, sels[i])
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				for i := w * perWorker; i < (w+1)*perWorker; i++ {
					if got := r.Closure(sels[i]); !idsEqual(got, want[i]) {
						t.Errorf("worker %d selection %d: got %v, want %v", w, i, got, want[i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// dagFromBytes decodes a repository and a selection from fuzz input:
// data[0] sizes the DAG (1..160 packages: up to three scratch words),
// data[1]'s low bit reverses the ID order so dependencies point at
// higher IDs, data[2] counts the (from, to) byte pairs that follow as
// edges — the package later in dependency order gains the other as a
// dependency — and every remaining byte selects one package.
func dagFromBytes(data []byte) ([]Package, []PkgID) {
	if len(data) < 3 {
		return nil, nil
	}
	n := 1 + int(data[0])%160
	flip := data[1]&1 == 1
	edges := int(data[2])
	data = data[3:]
	if edges > len(data)/2 {
		edges = len(data) / 2
	}
	id := func(rank int) PkgID {
		if flip {
			return PkgID(n - 1 - rank)
		}
		return PkgID(rank)
	}
	pkgs := make([]Package, n)
	for i := range pkgs {
		pkgs[i] = Package{ID: PkgID(i), Name: fmt.Sprintf("p%d", i), Version: "1", Platform: "p"}
	}
	for e := 0; e < edges; e++ {
		a, b := int(data[2*e])%n, int(data[2*e+1])%n
		if a == b {
			continue
		}
		if a < b {
			a, b = b, a
		}
		pkgs[id(a)].Deps = append(pkgs[id(a)].Deps, id(b))
	}
	var sel []PkgID
	for _, v := range data[2*edges:] {
		sel = append(sel, PkgID(int(v)%n))
	}
	return pkgs, sel
}

// FuzzClosure builds a DAG and a selection from the input and holds
// the kernel to both oracles: the closure table package by package,
// then the selection's closure, its prefix of one and of two.
func FuzzClosure(f *testing.F) {
	f.Add([]byte{4, 0, 3, 1, 0, 2, 1, 4, 2, 4, 0, 4, 4, 1})
	f.Add([]byte{129, 1, 4, 128, 0, 64, 63, 65, 64, 127, 1, 128, 0, 64})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{63, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		pkgs, sel := dagFromBytes(data)
		if pkgs == nil {
			return
		}
		r, err := New(pkgs)
		if err != nil {
			t.Fatalf("decoded DAG rejected: %v", err)
		}
		checkTable(t, r)
		checkClosure(t, r, sel)
		for n := 1; n <= 2 && n < len(sel); n++ {
			checkClosure(t, r, sel[:n])
		}
	})
}
