package spec

import (
	"strings"
	"testing"

	"repro/internal/pkggraph"
)

// versionedRepo has two versions of "py" plus an unrelated "lib".
func versionedRepo(t *testing.T) *pkggraph.Repo {
	t.Helper()
	pkgs := []pkggraph.Package{
		{ID: 0, Name: "py", Version: "2.7", Platform: "p", Tier: pkggraph.TierCore, Size: 10, FileCount: 1},
		{ID: 1, Name: "py", Version: "3.8", Platform: "p", Tier: pkggraph.TierCore, Size: 10, FileCount: 1},
		{ID: 2, Name: "lib", Version: "1.0", Platform: "p", Tier: pkggraph.TierLibrary, Size: 5, FileCount: 1},
	}
	r, err := pkggraph.New(pkgs)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return r
}

func TestNoConflicts(t *testing.T) {
	a := New(ids(0))
	b := New(ids(1))
	if (NoConflicts{}).Conflicts(a, b) {
		t.Fatal("NoConflicts reported a conflict")
	}
}

func TestSingleVersionPolicyAllFamilies(t *testing.T) {
	repo := versionedRepo(t)
	p := NewSingleVersionPolicy(repo)
	py2 := New(ids(0, 2))
	py3 := New(ids(1, 2))
	if !p.Conflicts(py2, py3) {
		t.Error("different py versions should conflict")
	}
	if p.Conflicts(py2, py2) {
		t.Error("identical specs should not conflict")
	}
	if p.Conflicts(New(ids(2)), py3) {
		t.Error("disjoint families should not conflict")
	}
}

func TestSingleVersionPolicyScoped(t *testing.T) {
	repo := versionedRepo(t)
	p := NewSingleVersionPolicy(repo, "otherfamily")
	py2 := New(ids(0))
	py3 := New(ids(1))
	if p.Conflicts(py2, py3) {
		t.Error("py not in exclusive set; should not conflict")
	}
}

func TestSingleVersionPolicyInternallyConflicted(t *testing.T) {
	repo := versionedRepo(t)
	p := NewSingleVersionPolicy(repo)
	both := New(ids(0, 1))
	if !p.Conflicts(both, New(ids(2))) {
		t.Error("internally conflicted spec should conflict with anything")
	}
}

// TestWriteParseRoundTrip reads a spec back from its written key list.
func TestWriteParseRoundTrip(t *testing.T) {
	repo := versionedRepo(t)
	orig := New(ids(0, 2))
	parsed, err := Parse(strings.NewReader(keysText(orig, repo)), repo)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !parsed.Equal(orig) {
		t.Fatalf("round trip mismatch: %v vs %v", parsed.IDs(), orig.IDs())
	}
}

func TestParseSkipsCommentsAndBlanks(t *testing.T) {
	repo := versionedRepo(t)
	text := "# header\n\n  py/3.8/p  \n# trailing\nlib/1.0/p\n"
	s, err := ParseString(text, repo)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if s.Len() != 2 || !s.Contains(1) || !s.Contains(2) {
		t.Fatalf("parsed %v", s.IDs())
	}
}

func TestParseRejectsUnknown(t *testing.T) {
	repo := versionedRepo(t)
	if _, err := ParseString("ghost/9.9/p\n", repo); err == nil {
		t.Fatal("expected error for unknown package")
	}
	if err := errString(t, repo); !strings.Contains(err, "line 1") {
		t.Fatalf("error should name the line: %q", err)
	}
}

func errString(t *testing.T, repo *pkggraph.Repo) string {
	t.Helper()
	_, err := ParseString("ghost/9.9/p\n", repo)
	if err == nil {
		return ""
	}
	return err.Error()
}

func TestParseDedups(t *testing.T) {
	repo := versionedRepo(t)
	s, err := ParseString("lib/1.0/p\nlib/1.0/p\n", repo)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if s.Len() != 1 {
		t.Fatalf("duplicate keys not deduped: %v", s.IDs())
	}
}
