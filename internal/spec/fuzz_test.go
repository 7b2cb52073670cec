package spec

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/pkggraph"
)

// FuzzParse throws arbitrary text at the specification parser: it must
// never panic, and anything it accepts must round-trip through its key
// list (keysText).
func FuzzParse(f *testing.F) {
	pkgs := []pkggraph.Package{
		{ID: 0, Name: "base", Version: "1.0", Platform: "p", Tier: pkggraph.TierCore, Size: 10, FileCount: 1},
		{ID: 1, Name: "lib", Version: "2.0", Platform: "p", Tier: pkggraph.TierLibrary, Size: 5, FileCount: 1},
	}
	repo, err := pkggraph.New(pkgs)
	if err != nil {
		f.Fatal(err)
	}
	f.Add("base/1.0/p\n")
	f.Add("# comment\nlib/2.0/p\n\nbase/1.0/p\n")
	f.Add("")
	f.Add("ghost/9/p\n")
	f.Add("base/1.0/p\x00\xff\n")
	f.Fuzz(func(t *testing.T, input string) {
		s, err := ParseString(input, repo)
		if err != nil {
			return
		}
		// Accepted specs are canonical and re-serializable.
		ids := s.IDs()
		for i := 1; i < len(ids); i++ {
			if ids[i] <= ids[i-1] {
				t.Fatalf("non-canonical spec from %q", input)
			}
		}
		back, err := ParseString(keysText(s, repo), repo)
		if err != nil {
			t.Fatalf("round trip parse failed: %v", err)
		}
		if !back.Equal(s) {
			t.Fatalf("round trip changed spec: %v vs %v", back.IDs(), s.IDs())
		}
	})
}

// FuzzSpecParse drives the parser against a realistic generated
// repository (the tiered shape the harness uses) instead of FuzzParse's
// two-package toy: family lookup, version disambiguation, and the
// closure machinery all run on accepted input. Any accepted spec must
// round-trip, stay canonical, and yield a closure that contains it.
func FuzzSpecParse(f *testing.F) {
	gen := pkggraph.DefaultGenConfig()
	gen.CoreFamilies = 2
	gen.FrameworkFamilies = 6
	gen.LibraryFamilies = 18
	gen.ApplicationFamilies = 34
	repo := pkggraph.MustGenerate(gen, 1)
	f.Add(repo.Package(0).Key() + "\n")
	f.Add(repo.Package(0).Key() + "\n" + repo.Package(pkggraph.PkgID(repo.Len()-1)).Key() + "\n")
	f.Add("# closure roots\n" + repo.Package(pkggraph.PkgID(repo.Len()/2)).Key() + "\n")
	f.Add("no/such/package\n")
	f.Add("\x00\n\xff\n")
	f.Fuzz(func(t *testing.T, input string) {
		s, err := ParseString(input, repo)
		if err != nil {
			return
		}
		ids := s.IDs()
		for i := 1; i < len(ids); i++ {
			if ids[i] <= ids[i-1] {
				t.Fatalf("non-canonical spec from %q", input)
			}
		}
		closure := repo.Closure(ids)
		if len(closure) < len(ids) {
			t.Fatalf("closure of %d packages has only %d members", len(ids), len(closure))
		}
		if repo.SetSize(closure) < repo.SetSize(ids) {
			t.Fatalf("closure smaller than its roots")
		}
		back, err := ParseString(keysText(s, repo), repo)
		if err != nil {
			t.Fatalf("round trip parse failed: %v", err)
		}
		if !back.Equal(s) || back.Hash() != s.Hash() {
			t.Fatalf("round trip changed spec: %v vs %v", back.IDs(), s.IDs())
		}
	})
}

// keysText renders s in the text form Parse reads: one package key per
// line, in key order.
func keysText(s Spec, repo *pkggraph.Repo) string {
	keys := make([]string, 0, s.Len())
	for _, id := range s.IDs() {
		keys = append(keys, repo.Package(id).Key())
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k + "\n")
	}
	return b.String()
}
