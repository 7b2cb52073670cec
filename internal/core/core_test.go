package core

import (
	"math/rand"
	"testing"

	"repro/internal/pkggraph"
	"repro/internal/spec"
)

// flatRepo builds n independent packages of the given size each, so
// set sizes are exactly count*size and Jaccard arithmetic is easy to
// verify by hand.
func flatRepo(t testing.TB, n int, size int64) *pkggraph.Repo {
	t.Helper()
	pkgs := make([]pkggraph.Package, n)
	for i := range pkgs {
		pkgs[i] = pkggraph.Package{
			ID: pkggraph.PkgID(i), Name: "pkg", Version: versionOf(i), Platform: "p",
			Tier: pkggraph.TierLibrary, Size: size, FileCount: 1,
		}
	}
	r, err := pkggraph.New(pkgs)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return r
}

func versionOf(i int) string {
	return string(rune('a'+i/26)) + string(rune('a'+i%26))
}

func sp(vs ...pkggraph.PkgID) spec.Spec { return spec.New(vs) }

func mgr(t *testing.T, repo *pkggraph.Repo, cfg Config) *Manager {
	t.Helper()
	m, err := NewManager(repo, cfg)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	return m
}

func request(t *testing.T, m *Manager, s spec.Spec) Result {
	t.Helper()
	r, err := m.Request(s)
	if err != nil {
		t.Fatalf("Request: %v", err)
	}
	return r
}

func TestNewManagerValidation(t *testing.T) {
	repo := flatRepo(t, 4, 1)
	if _, err := NewManager(repo, Config{Alpha: -0.1}); err == nil {
		t.Error("alpha < 0 accepted")
	}
	if _, err := NewManager(repo, Config{Alpha: 1.1}); err == nil {
		t.Error("alpha > 1 accepted")
	}
	if _, err := NewManager(repo, Config{Alpha: 0.5, MinHash: &MinHashConfig{K: 0}}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := NewManager(repo, Config{Alpha: 0.5, MinHash: &MinHashConfig{K: 4, Margin: -1}}); err == nil {
		t.Error("negative margin accepted")
	}
}

func TestMustNewManagerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNewManager(flatRepo(t, 1, 1), Config{Alpha: 2})
}

func TestEmptyRequestRejected(t *testing.T) {
	m := mgr(t, flatRepo(t, 4, 1), Config{Alpha: 0.5})
	if _, err := m.Request(spec.Spec{}); err == nil {
		t.Fatal("empty spec accepted")
	}
}

func TestInsertThenExactHit(t *testing.T) {
	repo := flatRepo(t, 10, 100)
	m := mgr(t, repo, Config{Alpha: 0})
	s := sp(1, 2, 3)
	r1 := request(t, m, s)
	if r1.Op != OpInsert {
		t.Fatalf("first request op = %v, want insert", r1.Op)
	}
	if r1.BytesWritten != 300 || r1.ImageSize != 300 {
		t.Fatalf("insert accounting: %+v", r1)
	}
	r2 := request(t, m, s)
	if r2.Op != OpHit {
		t.Fatalf("second request op = %v, want hit", r2.Op)
	}
	if r2.BytesWritten != 0 {
		t.Fatalf("hit wrote %d bytes", r2.BytesWritten)
	}
	if r2.ImageID != r1.ImageID {
		t.Fatal("hit returned a different image")
	}
}

func TestSubsetHit(t *testing.T) {
	repo := flatRepo(t, 10, 100)
	m := mgr(t, repo, Config{Alpha: 0})
	request(t, m, sp(1, 2, 3, 4))
	r := request(t, m, sp(2, 3))
	if r.Op != OpHit {
		t.Fatalf("subset request op = %v, want hit", r.Op)
	}
	if eff := r.ContainerEfficiency(); eff != 0.5 {
		t.Fatalf("container efficiency = %v, want 0.5", eff)
	}
}

func TestSupersetPrefersSmallestImage(t *testing.T) {
	repo := flatRepo(t, 20, 10)
	m := mgr(t, repo, Config{Alpha: 0})
	request(t, m, sp(1, 2, 3))                // small image first (else it would hit the large one)
	request(t, m, sp(1, 2, 3, 4, 5, 6, 7, 8)) // large image
	r := request(t, m, sp(1, 2))
	if r.Op != OpHit {
		t.Fatalf("op = %v, want hit", r.Op)
	}
	if r.ImageSize != 30 {
		t.Fatalf("hit image size = %d, want the smaller image (30)", r.ImageSize)
	}
}

func TestAlphaZeroNeverMerges(t *testing.T) {
	repo := flatRepo(t, 10, 1)
	m := mgr(t, repo, Config{Alpha: 0})
	request(t, m, sp(1, 2, 3))
	r := request(t, m, sp(1, 2, 4)) // d = 0.5
	if r.Op != OpInsert {
		t.Fatalf("op = %v, want insert at alpha 0", r.Op)
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
}

func TestMergeWithinAlpha(t *testing.T) {
	repo := flatRepo(t, 10, 100)
	m := mgr(t, repo, Config{Alpha: 0.6})
	request(t, m, sp(1, 2, 3))
	r := request(t, m, sp(1, 2, 4)) // d = 2/4 = 0.5 < 0.6
	if r.Op != OpMerge {
		t.Fatalf("op = %v, want merge", r.Op)
	}
	if r.ImageSize != 400 {
		t.Fatalf("merged size = %d, want 400", r.ImageSize)
	}
	if r.BytesWritten != 400 {
		t.Fatalf("merge should rewrite the whole image: wrote %d", r.BytesWritten)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1 after merge", m.Len())
	}
	// The merged image now satisfies both originals.
	if r := request(t, m, sp(1, 2, 3)); r.Op != OpHit {
		t.Fatalf("original spec not satisfied after merge: %v", r.Op)
	}
}

func TestMergeBeyondAlphaInserts(t *testing.T) {
	repo := flatRepo(t, 10, 1)
	m := mgr(t, repo, Config{Alpha: 0.4})
	request(t, m, sp(1, 2, 3))
	r := request(t, m, sp(1, 2, 4)) // d = 0.5 >= 0.4
	if r.Op != OpInsert {
		t.Fatalf("op = %v, want insert", r.Op)
	}
}

// mergeOrderSetup inserts two disjoint images (so the second cannot
// merge into the first) and issues a request overlapping both:
// d vs image1 = 1-4/11 ≈ 0.636, d vs image2 = 1-4/10 = 0.600, both
// below alpha 0.7. The closest candidate is image2.
func mergeOrderSetup(t *testing.T, noSort bool) Result {
	t.Helper()
	repo := flatRepo(t, 30, 1)
	m := mgr(t, repo, Config{Alpha: 0.7, NoCandidateSort: noSort})
	request(t, m, sp(1, 2, 3, 4, 5, 6))   // image1
	request(t, m, sp(10, 11, 12, 13, 20)) // image2 (disjoint: d=1 vs image1)
	return request(t, m, sp(1, 2, 3, 4, 10, 11, 12, 13, 21))
}

func TestMergePicksClosest(t *testing.T) {
	r := mergeOrderSetup(t, false)
	if r.Op != OpMerge {
		t.Fatalf("op = %v, want merge", r.Op)
	}
	if r.ImageSize != 10 { // image2 ∪ request = {1,2,3,4,10,11,12,13,20,21}
		t.Fatalf("merged into wrong image: size %d, want 10", r.ImageSize)
	}
}

func TestNoCandidateSortUsesInsertionOrder(t *testing.T) {
	r := mergeOrderSetup(t, true)
	if r.Op != OpMerge {
		t.Fatalf("op = %v, want merge", r.Op)
	}
	if r.ImageSize != 11 { // image1 ∪ request = {1..6,10..13,21}
		t.Fatalf("unsorted merge should take first candidate: size %d, want 11", r.ImageSize)
	}
}

func TestConflictPreventsMerge(t *testing.T) {
	// Two versions of the same family conflict under
	// SingleVersionPolicy.
	pkgs := []pkggraph.Package{
		{ID: 0, Name: "py", Version: "2", Platform: "p", Tier: pkggraph.TierCore, Size: 10, FileCount: 1},
		{ID: 1, Name: "py", Version: "3", Platform: "p", Tier: pkggraph.TierCore, Size: 10, FileCount: 1},
		{ID: 2, Name: "a", Version: "1", Platform: "p", Tier: pkggraph.TierLibrary, Size: 10, FileCount: 1},
		{ID: 3, Name: "b", Version: "1", Platform: "p", Tier: pkggraph.TierLibrary, Size: 10, FileCount: 1},
	}
	repo, err := pkggraph.New(pkgs)
	if err != nil {
		t.Fatal(err)
	}
	m := mgr(t, repo, Config{Alpha: 0.9, Conflicts: spec.NewSingleVersionPolicy(repo, "py")})
	request(t, m, sp(0, 2, 3))
	r := request(t, m, sp(1, 2, 3)) // close (d=0.5) but py2 vs py3 conflict
	if r.Op != OpInsert {
		t.Fatalf("op = %v, want insert due to conflict", r.Op)
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
}

func TestLRUEviction(t *testing.T) {
	repo := flatRepo(t, 10, 100)
	m := mgr(t, repo, Config{Alpha: 0, Capacity: 250})
	request(t, m, sp(1))      // image A, 100
	request(t, m, sp(2))      // image B, 100
	request(t, m, sp(1))      // touch A: B is now LRU
	r := request(t, m, sp(3)) // image C: 300 > 250, evict B
	if r.Evicted != 1 || r.EvictedBytes != 100 {
		t.Fatalf("evicted %d/%d, want 1/100", r.Evicted, r.EvictedBytes)
	}
	if m.TotalData() != 200 {
		t.Fatalf("TotalData = %d, want 200", m.TotalData())
	}
	// A must still be cached, B gone.
	if r := request(t, m, sp(1)); r.Op != OpHit {
		t.Fatal("recently used image was evicted")
	}
	if r := request(t, m, sp(2)); r.Op != OpInsert {
		t.Fatal("LRU image should have been evicted")
	}
}

func TestEvictionNeverRemovesInUseImage(t *testing.T) {
	repo := flatRepo(t, 10, 100)
	m := mgr(t, repo, Config{Alpha: 0, Capacity: 150})
	r := request(t, m, sp(1, 2)) // 200 bytes > capacity
	if r.Op != OpInsert {
		t.Fatal("expected insert")
	}
	if m.Len() != 1 {
		t.Fatal("oversized image must be kept while in use")
	}
	if m.TotalData() != 200 {
		t.Fatalf("TotalData = %d", m.TotalData())
	}
}

func TestStatsAccounting(t *testing.T) {
	repo := flatRepo(t, 10, 10)
	m := mgr(t, repo, Config{Alpha: 0.6})
	request(t, m, sp(1, 2, 3)) // insert, 30 written
	request(t, m, sp(1, 2, 3)) // hit, 0
	request(t, m, sp(1, 2, 4)) // merge -> {1,2,3,4}, 40 written
	st := m.Stats()
	if st.Requests != 3 || st.Inserts != 1 || st.Hits != 1 || st.Merges != 1 {
		t.Fatalf("counters: %+v", st)
	}
	if st.BytesWritten != 70 {
		t.Fatalf("BytesWritten = %d, want 70", st.BytesWritten)
	}
	if st.RequestedBytes != 90 {
		t.Fatalf("RequestedBytes = %d, want 90", st.RequestedBytes)
	}
	// Efficiencies: 1 (insert) + 1 (hit) + 30/40 (merge) = 2.75/3.
	if got := st.MeanContainerEfficiency(); got < 0.916 || got > 0.917 {
		t.Fatalf("MeanContainerEfficiency = %v", got)
	}
}

func TestUniqueVsTotalData(t *testing.T) {
	repo := flatRepo(t, 10, 10)
	m := mgr(t, repo, Config{Alpha: 0})
	request(t, m, sp(1, 2, 3))
	request(t, m, sp(2, 3, 4))
	if m.TotalData() != 60 {
		t.Fatalf("TotalData = %d, want 60", m.TotalData())
	}
	if m.UniqueData() != 40 {
		t.Fatalf("UniqueData = %d, want 40 ({1,2,3,4})", m.UniqueData())
	}
	if eff := m.CacheEfficiency(); eff < 0.66 || eff > 0.67 {
		t.Fatalf("CacheEfficiency = %v, want 2/3", eff)
	}
}

func TestCacheEfficiencyEmpty(t *testing.T) {
	m := mgr(t, flatRepo(t, 4, 1), Config{Alpha: 0})
	if m.CacheEfficiency() != 1 {
		t.Fatal("empty cache efficiency should be 1")
	}
}

func TestImagesSnapshot(t *testing.T) {
	repo := flatRepo(t, 10, 10)
	m := mgr(t, repo, Config{Alpha: 0})
	request(t, m, sp(1))
	request(t, m, sp(2))
	imgs := m.Images()
	if len(imgs) != 2 {
		t.Fatalf("Images len = %d", len(imgs))
	}
	if imgs[0].ID >= imgs[1].ID {
		t.Fatal("Images not in insertion order")
	}
}

func TestOpString(t *testing.T) {
	if OpHit.String() != "hit" || OpMerge.String() != "merge" || OpInsert.String() != "insert" {
		t.Fatal("op names wrong")
	}
	if Op(99).String() == "" {
		t.Fatal("unknown op should render")
	}
}

func TestMergeCounterOnImage(t *testing.T) {
	repo := flatRepo(t, 10, 1)
	m := mgr(t, repo, Config{Alpha: 0.9})
	request(t, m, sp(1, 2, 3))
	request(t, m, sp(1, 2, 4))
	request(t, m, sp(1, 2, 5))
	imgs := m.Images()
	if len(imgs) != 1 || imgs[0].Merges != 2 {
		t.Fatalf("images = %d, merges = %d", len(imgs), imgs[0].Merges)
	}
}

// TestMinHashAgreesWithExact replays the same request stream through an
// exact manager and a MinHash-prefiltered manager and requires
// identical operation sequences: the prefilter is a superset-safe
// candidate cut, and with a generous margin the merge decisions should
// coincide on realistic workloads.
func TestMinHashAgreesWithExact(t *testing.T) {
	cfg := pkggraph.DefaultGenConfig()
	cfg.CoreFamilies = 3
	cfg.FrameworkFamilies = 10
	cfg.LibraryFamilies = 40
	cfg.ApplicationFamilies = 70
	repo := pkggraph.MustGenerate(cfg, 17)
	rng := rand.New(rand.NewSource(3))

	exact := mgr(t, repo, Config{Alpha: 0.75})
	approx := mgr(t, repo, Config{Alpha: 0.75, MinHash: &MinHashConfig{K: 128, Seed: 1, Margin: 0.3}})

	for i := 0; i < 200; i++ {
		n := 1 + rng.Intn(5)
		ids := make([]pkggraph.PkgID, n)
		for j := range ids {
			ids[j] = pkggraph.PkgID(rng.Intn(repo.Len()))
		}
		s := spec.WithClosure(repo, ids)
		re, err := exact.Request(s)
		if err != nil {
			t.Fatal(err)
		}
		ra, err := approx.Request(s)
		if err != nil {
			t.Fatal(err)
		}
		if re.Op != ra.Op {
			t.Fatalf("request %d: exact %v vs minhash %v", i, re.Op, ra.Op)
		}
	}
}

func TestAlphaOneGlobsEverythingWithSharedCore(t *testing.T) {
	cfg := pkggraph.DefaultGenConfig()
	cfg.CoreFamilies = 2
	cfg.FrameworkFamilies = 6
	cfg.LibraryFamilies = 24
	cfg.ApplicationFamilies = 40
	repo := pkggraph.MustGenerate(cfg, 23)
	m := mgr(t, repo, Config{Alpha: 1})
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 50; i++ {
		id := pkggraph.PkgID(rng.Intn(repo.Len()))
		request(t, m, spec.WithClosure(repo, []pkggraph.PkgID{id}))
	}
	// Closures share core packages, so d < 1 for every pair: a single
	// ever-growing image.
	if m.Len() != 1 {
		t.Fatalf("alpha=1 kept %d images, want 1", m.Len())
	}
	if m.CacheEfficiency() != 1 {
		t.Fatalf("single image cache efficiency = %v, want 1", m.CacheEfficiency())
	}
}

func TestImageByID(t *testing.T) {
	repo := flatRepo(t, 10, 10)
	m := mgr(t, repo, Config{Alpha: 0, Capacity: 15})
	r1 := request(t, m, sp(1))
	if img, ok := m.ImageByID(r1.ImageID); !ok || img.Size != 10 {
		t.Fatalf("ImageByID: %v %v", img, ok)
	}
	request(t, m, sp(2)) // evicts image 1 (capacity 15)
	if _, ok := m.ImageByID(r1.ImageID); ok {
		t.Fatal("evicted image still resolvable")
	}
	if _, ok := m.ImageByID(999); ok {
		t.Fatal("bogus id resolvable")
	}
}
