package pkggraph

import (
	"sort"
	"testing"
	"testing/quick"
)

// tinyRepo builds a small hand-written repository:
//
//	base (core)
//	fw (framework) -> base
//	libA (library) -> fw
//	libB (library) -> fw, libA
//	app (application) -> libB
func tinyRepo(t *testing.T) *Repo {
	t.Helper()
	pkgs := []Package{
		{ID: 0, Name: "base", Version: "1.0", Platform: "p", Tier: TierCore, Size: 100, FileCount: 10},
		{ID: 1, Name: "fw", Version: "1.0", Platform: "p", Tier: TierFramework, Size: 50, FileCount: 5, Deps: []PkgID{0}},
		{ID: 2, Name: "libA", Version: "1.0", Platform: "p", Tier: TierLibrary, Size: 20, FileCount: 2, Deps: []PkgID{1}},
		{ID: 3, Name: "libB", Version: "1.0", Platform: "p", Tier: TierLibrary, Size: 30, FileCount: 3, Deps: []PkgID{1, 2}},
		{ID: 4, Name: "app", Version: "1.0", Platform: "p", Tier: TierApplication, Size: 10, FileCount: 1, Deps: []PkgID{3}},
	}
	r, err := New(pkgs)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return r
}

func idsEqual(a, b []PkgID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestNewRejectsNonDenseIDs(t *testing.T) {
	_, err := New([]Package{{ID: 5, Name: "x", Version: "1", Platform: "p"}})
	if err == nil {
		t.Fatal("expected error for non-dense ID")
	}
}

func TestNewRejectsDuplicateKeys(t *testing.T) {
	_, err := New([]Package{
		{ID: 0, Name: "x", Version: "1", Platform: "p"},
		{ID: 1, Name: "x", Version: "1", Platform: "p"},
	})
	if err == nil {
		t.Fatal("expected error for duplicate keys")
	}
}

func TestNewRejectsSelfDependency(t *testing.T) {
	_, err := New([]Package{{ID: 0, Name: "x", Version: "1", Platform: "p", Deps: []PkgID{0}}})
	if err == nil {
		t.Fatal("expected error for self dependency")
	}
}

func TestNewRejectsOutOfRangeDep(t *testing.T) {
	_, err := New([]Package{{ID: 0, Name: "x", Version: "1", Platform: "p", Deps: []PkgID{9}}})
	if err == nil {
		t.Fatal("expected error for out-of-range dep")
	}
}

func TestNewRejectsNegativeSize(t *testing.T) {
	_, err := New([]Package{{ID: 0, Name: "x", Version: "1", Platform: "p", Size: -1}})
	if err == nil {
		t.Fatal("expected error for negative size")
	}
}

func TestNewRejectsCycle(t *testing.T) {
	_, err := New([]Package{
		{ID: 0, Name: "a", Version: "1", Platform: "p", Deps: []PkgID{1}},
		{ID: 1, Name: "b", Version: "1", Platform: "p", Deps: []PkgID{0}},
	})
	if err == nil {
		t.Fatal("expected error for cycle")
	}
}

func TestPackageClosure(t *testing.T) {
	r := tinyRepo(t)
	cases := []struct {
		id   PkgID
		want []PkgID
	}{
		{0, []PkgID{0}},
		{1, []PkgID{0, 1}},
		{2, []PkgID{0, 1, 2}},
		{3, []PkgID{0, 1, 2, 3}},
		{4, []PkgID{0, 1, 2, 3, 4}},
	}
	for _, c := range cases {
		if got := r.PackageClosure(c.id); !idsEqual(got, c.want) {
			t.Errorf("closure(%d) = %v, want %v", c.id, got, c.want)
		}
	}
}

func TestClosureOfSet(t *testing.T) {
	r := tinyRepo(t)
	got := r.Closure([]PkgID{2, 4})
	want := []PkgID{0, 1, 2, 3, 4}
	if !idsEqual(got, want) {
		t.Fatalf("Closure = %v, want %v", got, want)
	}
}

func TestClosureEmpty(t *testing.T) {
	r := tinyRepo(t)
	if got := r.Closure(nil); got != nil {
		t.Fatalf("Closure(nil) = %v, want nil", got)
	}
}

func TestClosureSingleIsCopy(t *testing.T) {
	r := tinyRepo(t)
	got := r.Closure([]PkgID{1})
	got[0] = 99
	if r.PackageClosure(1)[0] == 99 {
		t.Fatal("Closure returned shared memory for singleton input")
	}
}

func TestSetSizeAndClosureSize(t *testing.T) {
	r := tinyRepo(t)
	if got := r.SetSize([]PkgID{0, 1}); got != 150 {
		t.Errorf("SetSize = %d, want 150", got)
	}
	// Duplicates in sorted input counted once.
	if got := r.SetSize([]PkgID{0, 0, 1}); got != 150 {
		t.Errorf("SetSize with dup = %d, want 150", got)
	}
}

func TestLookupAndFamilies(t *testing.T) {
	r := tinyRepo(t)
	id, ok := r.Lookup("libA/1.0/p")
	if !ok || id != 2 {
		t.Fatalf("Lookup = %d,%v", id, ok)
	}
	if _, ok := r.Lookup("nope/1/p"); ok {
		t.Fatal("Lookup of missing key succeeded")
	}
	if r.Families() != 5 {
		t.Fatalf("Families = %d, want 5", r.Families())
	}
	if vs := r.FamilyVersions("base"); len(vs) != 1 || vs[0] != 0 {
		t.Fatalf("FamilyVersions(base) = %v", vs)
	}
}

func TestTotalSize(t *testing.T) {
	r := tinyRepo(t)
	if r.TotalSize() != 210 {
		t.Fatalf("TotalSize = %d, want 210", r.TotalSize())
	}
}

func TestTierString(t *testing.T) {
	if TierCore.String() != "core" || TierApplication.String() != "application" {
		t.Fatal("tier names wrong")
	}
	if Tier(200).String() == "" {
		t.Fatal("unknown tier should still render")
	}
}

func TestStatsOnTinyRepo(t *testing.T) {
	r := tinyRepo(t)
	s := r.Stats()
	if s.Packages != 5 || s.Families != 5 {
		t.Fatalf("bad counts: %+v", s)
	}
	if s.MaxDepth != 4 {
		t.Errorf("MaxDepth = %d, want 4", s.MaxDepth)
	}
	if s.MaxClosure != 5 {
		t.Errorf("MaxClosure = %d, want 5", s.MaxClosure)
	}
	if s.TierCounts[TierLibrary] != 2 {
		t.Errorf("library count = %d, want 2", s.TierCounts[TierLibrary])
	}
	// base is in every closure except its own -> 4 transitive dependents.
	if len(s.TopDependees) == 0 || s.TopDependees[0] != 0 {
		t.Errorf("TopDependees = %v, want base first", s.TopDependees)
	}
}

func TestTransitiveDependents(t *testing.T) {
	r := tinyRepo(t)
	counts := r.TransitiveDependents()
	want := []int{4, 3, 2, 1, 0}
	for i, w := range want {
		if counts[i] != w {
			t.Errorf("dependents[%d] = %d, want %d", i, counts[i], w)
		}
	}
}

func TestSharedCoreFraction(t *testing.T) {
	r := tinyRepo(t)
	if got := r.SharedCoreFraction(); got != 1.0 {
		t.Fatalf("SharedCoreFraction = %v, want 1.0", got)
	}
}

// Property: closures are always sorted, duplicate-free, and include the
// package itself plus all direct deps.
func TestClosureInvariantsProperty(t *testing.T) {
	r := MustGenerate(smallGenConfig(), 11)
	f := func(rawIDs []uint16) bool {
		ids := make([]PkgID, 0, len(rawIDs))
		for _, v := range rawIDs {
			ids = append(ids, PkgID(int(v)%r.Len()))
		}
		cl := r.Closure(ids)
		if !sort.SliceIsSorted(cl, func(a, b int) bool { return cl[a] < cl[b] }) {
			return false
		}
		for i := 1; i < len(cl); i++ {
			if cl[i] == cl[i-1] {
				return false
			}
		}
		inClosure := make(map[PkgID]bool, len(cl))
		for _, c := range cl {
			inClosure[c] = true
		}
		for _, id := range ids {
			if !inClosure[id] {
				return false
			}
			for _, d := range r.Package(id).Deps {
				if !inClosure[d] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: closure is idempotent — closing a closed set changes nothing.
func TestClosureIdempotentProperty(t *testing.T) {
	r := MustGenerate(smallGenConfig(), 12)
	f := func(seed uint16) bool {
		id := PkgID(int(seed) % r.Len())
		once := r.Closure([]PkgID{id})
		twice := r.Closure(once)
		return idsEqual(once, twice)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
