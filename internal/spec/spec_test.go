package spec

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/pkggraph"
)

func ids(vs ...pkggraph.PkgID) []pkggraph.PkgID { return vs }

func TestNewSortsAndDedups(t *testing.T) {
	want := ids(1, 2, 3)
	// Unsorted, sorted with a duplicate, and already canonical (the
	// copy-only path).
	for _, in := range [][]pkggraph.PkgID{ids(3, 1, 2, 3, 1), ids(1, 2, 2, 3), ids(1, 2, 3)} {
		s := New(in)
		if s.Len() != 3 {
			t.Fatalf("New(%v): Len = %d", in, s.Len())
		}
		for i, id := range s.IDs() {
			if id != want[i] {
				t.Fatalf("New(%v): IDs = %v, want %v", in, s.IDs(), want)
			}
		}
	}
}

func TestNewEmpty(t *testing.T) {
	s := New(nil)
	if !s.Empty() || s.Len() != 0 {
		t.Fatal("New(nil) should be empty")
	}
}

func TestNewCopiesInput(t *testing.T) {
	for _, in := range [][]pkggraph.PkgID{ids(2, 1), ids(1, 2)} {
		s := New(in)
		in[0] = 99
		if s.Contains(99) {
			t.Fatal("New aliased caller slice")
		}
	}
}

func TestFromSortedPanicsOnUnsorted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSorted(ids(2, 1))
}

func TestFromSortedPanicsOnDuplicate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSorted(ids(1, 1))
}

func TestContains(t *testing.T) {
	s := New(ids(1, 5, 9))
	for _, id := range []pkggraph.PkgID{1, 5, 9} {
		if !s.Contains(id) {
			t.Errorf("Contains(%d) = false", id)
		}
	}
	for _, id := range []pkggraph.PkgID{0, 2, 10} {
		if s.Contains(id) {
			t.Errorf("Contains(%d) = true", id)
		}
	}
}

func TestEqual(t *testing.T) {
	a := New(ids(1, 2))
	b := New(ids(2, 1))
	c := New(ids(1, 2, 3))
	if !a.Equal(b) {
		t.Error("a should equal b")
	}
	if a.Equal(c) || c.Equal(a) {
		t.Error("a should not equal c")
	}
	if !(Spec{}).Equal(Spec{}) {
		t.Error("empty specs should be equal")
	}
}

func TestSubsetOf(t *testing.T) {
	cases := []struct {
		s, t []pkggraph.PkgID
		want bool
	}{
		{nil, nil, true},
		{nil, ids(1), true},
		{ids(1), nil, false},
		{ids(1, 3), ids(1, 2, 3), true},
		{ids(1, 4), ids(1, 2, 3), false},
		{ids(1, 2, 3), ids(1, 2, 3), true},
		{ids(0), ids(1, 2), false},
		{ids(3), ids(1, 2), false},
	}
	for _, c := range cases {
		if got := New(c.s).SubsetOf(New(c.t)); got != c.want {
			t.Errorf("SubsetOf(%v, %v) = %v, want %v", c.s, c.t, got, c.want)
		}
	}
}

func TestUnionIntersectDiff(t *testing.T) {
	a := New(ids(1, 2, 3))
	b := New(ids(3, 4))
	if u := a.Union(b); u.Len() != 4 || !u.Contains(4) || !u.Contains(1) {
		t.Errorf("Union = %v", u.IDs())
	}
	if x := a.Intersect(b); x.Len() != 1 || !x.Contains(3) {
		t.Errorf("Intersect = %v", x.IDs())
	}
	if d := a.Diff(b); d.Len() != 2 || d.Contains(3) {
		t.Errorf("Diff = %v", d.IDs())
	}
	if d := b.Diff(a); d.Len() != 1 || !d.Contains(4) {
		t.Errorf("Diff = %v", d.IDs())
	}
}

func TestUnionWithEmpty(t *testing.T) {
	a := New(ids(1, 2))
	if u := a.Union(Spec{}); !u.Equal(a) {
		t.Error("union with empty should be identity")
	}
	if u := (Spec{}).Union(a); !u.Equal(a) {
		t.Error("empty union should be identity")
	}
}

func TestIntersectionAndUnionLen(t *testing.T) {
	a := New(ids(1, 2, 3, 7))
	b := New(ids(2, 3, 9))
	if n := a.IntersectionLen(b); n != 2 {
		t.Errorf("IntersectionLen = %d, want 2", n)
	}
	if n := a.UnionLen(b); n != 5 {
		t.Errorf("UnionLen = %d, want 5", n)
	}
}

func TestHashDistinguishes(t *testing.T) {
	a := New(ids(1, 2, 3))
	b := New(ids(1, 2, 4))
	c := New(ids(3, 2, 1))
	if a.Hash() == b.Hash() {
		t.Error("different specs hash equal")
	}
	if a.Hash() != c.Hash() {
		t.Error("equal specs hash differently")
	}
}

func TestSizeAgainstRepo(t *testing.T) {
	repo := testRepo(t)
	s := New(ids(0, 1))
	if got := s.Size(repo); got != 150 {
		t.Fatalf("Size = %d, want 150", got)
	}
}

func TestWithClosure(t *testing.T) {
	repo := testRepo(t)
	s := WithClosure(repo, ids(4))
	if s.Len() != 5 {
		t.Fatalf("closure spec has %d packages, want 5", s.Len())
	}
}

func TestString(t *testing.T) {
	s := New(ids(1, 2))
	if s.String() == "" {
		t.Fatal("empty String()")
	}
}

// testRepo mirrors the tinyRepo in pkggraph's tests.
func testRepo(t *testing.T) *pkggraph.Repo {
	t.Helper()
	pkgs := []pkggraph.Package{
		{ID: 0, Name: "base", Version: "1.0", Platform: "p", Tier: pkggraph.TierCore, Size: 100, FileCount: 10},
		{ID: 1, Name: "fw", Version: "1.0", Platform: "p", Tier: pkggraph.TierFramework, Size: 50, FileCount: 5, Deps: ids(0)},
		{ID: 2, Name: "libA", Version: "1.0", Platform: "p", Tier: pkggraph.TierLibrary, Size: 20, FileCount: 2, Deps: ids(1)},
		{ID: 3, Name: "libB", Version: "1.0", Platform: "p", Tier: pkggraph.TierLibrary, Size: 30, FileCount: 3, Deps: ids(1, 2)},
		{ID: 4, Name: "app", Version: "1.0", Platform: "p", Tier: pkggraph.TierApplication, Size: 10, FileCount: 1, Deps: ids(3)},
	}
	r, err := pkggraph.New(pkgs)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return r
}

func specFromUints(vals []uint16, mod int) Spec {
	raw := make([]pkggraph.PkgID, len(vals))
	for i, v := range vals {
		raw[i] = pkggraph.PkgID(int(v) % mod)
	}
	return New(raw)
}

// Property: union is commutative and associative; intersection
// distributes the usual way; subset relations hold.
func TestSetAlgebraProperties(t *testing.T) {
	f := func(xs, ys, zs []uint16) bool {
		a := specFromUints(xs, 500)
		b := specFromUints(ys, 500)
		c := specFromUints(zs, 500)
		if !a.Union(b).Equal(b.Union(a)) {
			return false
		}
		if !a.Union(b).Union(c).Equal(a.Union(b.Union(c))) {
			return false
		}
		if !a.Intersect(b).Equal(b.Intersect(a)) {
			return false
		}
		u := a.Union(b)
		if !a.SubsetOf(u) || !b.SubsetOf(u) {
			return false
		}
		x := a.Intersect(b)
		if !x.SubsetOf(a) || !x.SubsetOf(b) {
			return false
		}
		// |A∪B| = |A| + |B| - |A∩B|
		if u.Len() != a.Len()+b.Len()-x.Len() {
			return false
		}
		// Diff and intersect partition a.
		if a.Diff(b).Len()+x.Len() != a.Len() {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: IDs are always sorted strictly increasing after New.
func TestCanonicalFormProperty(t *testing.T) {
	f := func(xs []uint16) bool {
		s := specFromUints(xs, 1<<16)
		got := s.IDs()
		return sort.SliceIsSorted(got, func(a, b int) bool { return got[a] < got[b] }) &&
			func() bool {
				for i := 1; i < len(got); i++ {
					if got[i] == got[i-1] {
						return false
					}
				}
				return true
			}()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: SubsetOf agrees with a map-based reference implementation.
func TestSubsetOfAgainstReference(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		a := specFromUints(widen(xs), 64)
		b := specFromUints(widen(ys), 64)
		inB := make(map[pkggraph.PkgID]bool)
		for _, id := range b.IDs() {
			inB[id] = true
		}
		want := true
		for _, id := range a.IDs() {
			if !inB[id] {
				want = false
				break
			}
		}
		return a.SubsetOf(b) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func widen(xs []uint8) []uint16 {
	out := make([]uint16, len(xs))
	for i, x := range xs {
		out[i] = uint16(x)
	}
	return out
}
