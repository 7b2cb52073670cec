package cvmfs

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/pkggraph"
)

// famRepo builds a repository with one family "tool" in three versions
// plus an unrelated singleton.
func famRepo(t *testing.T) *pkggraph.Repo {
	t.Helper()
	pkgs := []pkggraph.Package{
		{ID: 0, Name: "tool", Version: "1.0", Platform: "p", Tier: pkggraph.TierCore, Size: 1000, FileCount: 10},
		{ID: 1, Name: "tool", Version: "2.0", Platform: "p", Tier: pkggraph.TierCore, Size: 1000, FileCount: 10},
		{ID: 2, Name: "tool", Version: "3.0", Platform: "p", Tier: pkggraph.TierCore, Size: 1200, FileCount: 10},
		{ID: 3, Name: "other", Version: "1.0", Platform: "p", Tier: pkggraph.TierLibrary, Size: 500, FileCount: 4},
	}
	r, err := pkggraph.New(pkgs)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return r
}

func TestPublishCatalogSizes(t *testing.T) {
	repo := famRepo(t)
	s := NewStore(repo)
	cat := s.Publish(0)
	if len(cat.Files) != 10 {
		t.Fatalf("files = %d, want 10", len(cat.Files))
	}
	if cat.LogicalSize() != 1000 {
		t.Fatalf("LogicalSize = %d, want 1000 (package size)", cat.LogicalSize())
	}
	for _, f := range cat.Files {
		if f.Size < 0 {
			t.Fatalf("negative file size: %+v", f)
		}
		if f.Path == "" {
			t.Fatal("empty path")
		}
	}
}

func TestPublishIdempotent(t *testing.T) {
	repo := famRepo(t)
	s := NewStore(repo)
	a := s.Publish(0)
	b := s.Publish(0)
	if a != b {
		t.Fatal("second Publish returned a different catalog")
	}
	st := s.Stats()
	if st.Packages != 1 || st.LogicalBytes != 1000 {
		t.Fatalf("stats after double publish: %+v", st)
	}
}

func TestCrossVersionDedup(t *testing.T) {
	repo := famRepo(t)
	s := NewStore(repo)
	s.Publish(0)
	before := s.Stats()
	s.Publish(1)
	after := s.Stats()
	if after.UniqueBytes-before.UniqueBytes >= after.LogicalBytes-before.LogicalBytes {
		t.Fatalf("no cross-version dedup: unique grew by %d, logical by %d",
			after.UniqueBytes-before.UniqueBytes, after.LogicalBytes-before.LogicalBytes)
	}
	if after.DedupRatio() <= 1.0 {
		t.Fatalf("DedupRatio = %v, want > 1 after publishing two versions", after.DedupRatio())
	}
}

func TestFirstVersionHasNoCarryOver(t *testing.T) {
	repo := famRepo(t)
	s := NewStore(repo)
	s.Publish(0)
	st := s.Stats()
	if st.UniqueBytes != st.LogicalBytes {
		t.Fatalf("first version should be all-unique: %+v", st)
	}
}

func TestUnrelatedPackagesDoNotShare(t *testing.T) {
	repo := famRepo(t)
	s := NewStore(repo)
	s.Publish(0)
	s.Publish(3)
	st := s.Stats()
	if st.UniqueBytes != 1500 {
		t.Fatalf("UniqueBytes = %d, want 1500", st.UniqueBytes)
	}
}

func TestCatalogLookup(t *testing.T) {
	repo := famRepo(t)
	s := NewStore(repo)
	if _, ok := s.Catalog(0); ok {
		t.Fatal("catalog present before publish")
	}
	s.Publish(0)
	if _, ok := s.Catalog(0); !ok {
		t.Fatal("catalog missing after publish")
	}
}

func TestDigestDeterministic(t *testing.T) {
	a := fileDigest("tool", 1, 3, 100)
	b := fileDigest("tool", 1, 3, 100)
	if a != b {
		t.Fatal("same inputs, different digests")
	}
	if a == fileDigest("tool", 2, 3, 100) {
		t.Fatal("different origin version, same digest")
	}
	if a == fileDigest("tool", 1, 4, 100) {
		t.Fatal("different index, same digest")
	}
	if a == fileDigest("other", 1, 3, 100) {
		t.Fatal("different family, same digest")
	}
	if a.String() == "" {
		t.Fatal("empty digest string")
	}
}

func TestConcurrentPublish(t *testing.T) {
	repo := pkggraph.MustGenerate(scaledCfg(), 3)
	s := NewStore(repo)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < repo.Len(); i++ {
				s.Publish(pkggraph.PkgID((i + w*13) % repo.Len()))
			}
		}(w)
	}
	wg.Wait()
	st := s.Stats()
	if st.Packages != repo.Len() {
		t.Fatalf("Packages = %d, want %d", st.Packages, repo.Len())
	}
	if st.LogicalBytes != repo.TotalSize() {
		t.Fatalf("LogicalBytes = %d, want %d", st.LogicalBytes, repo.TotalSize())
	}
}

func scaledCfg() pkggraph.GenConfig {
	cfg := pkggraph.DefaultGenConfig()
	cfg.CoreFamilies = 2
	cfg.FrameworkFamilies = 5
	cfg.LibraryFamilies = 20
	cfg.ApplicationFamilies = 33
	return cfg
}

// Property: for any published package, catalog logical size equals the
// package's installed size and file count matches.
func TestCatalogConservationProperty(t *testing.T) {
	repo := pkggraph.MustGenerate(scaledCfg(), 5)
	s := NewStore(repo)
	f := func(raw uint16) bool {
		id := pkggraph.PkgID(int(raw) % repo.Len())
		cat := s.Publish(id)
		p := repo.Package(id)
		return cat.LogicalSize() == p.Size && len(cat.Files) == max(1, p.FileCount)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDedupRatioEmptyStore(t *testing.T) {
	repo := famRepo(t)
	s := NewStore(repo)
	if r := s.Stats().DedupRatio(); r != 1 {
		t.Fatalf("empty store DedupRatio = %v, want 1", r)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
