// End-to-end integration: one scenario exercising the whole stack the
// way a site would — repository on disk, a job spec named by package
// keys, the HTTP service fronting the cache, Shrinkwrap materialization,
// and a trace replay reproducing the same cache decisions.
package repro

import (
	"net/http/httptest"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/cvmfs"
	"repro/internal/pkggraph"
	"repro/internal/server"
	"repro/internal/shrinkwrap"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/trace"
	"repro/internal/workload"
)

func integrationRepo(t *testing.T) *pkggraph.Repo {
	t.Helper()
	cfg := pkggraph.DefaultGenConfig()
	cfg.CoreFamilies = 3
	cfg.FrameworkFamilies = 8
	cfg.LibraryFamilies = 37
	cfg.ApplicationFamilies = 72
	// Small packages keep the bundle materialization step (which
	// hashes every synthetic content byte) fast.
	cfg.MedianPkgBytes = 64 << 10
	return pkggraph.MustGenerate(cfg, 2026)
}

// TestEndToEndSiteLifecycle drives the full pipeline:
//
//	repo file -> job spec -> HTTP service -> shrinkwrap bundle ->
//	trace replay.
func TestEndToEndSiteLifecycle(t *testing.T) {
	dir := t.TempDir()

	// 1. Persist and reload the repository, as a site deployment would.
	repoPath := filepath.Join(dir, "repo.jsonl")
	if err := integrationRepo(t).SaveFile(repoPath); err != nil {
		t.Fatal(err)
	}
	repo, err := pkggraph.LoadFile(repoPath)
	if err != nil {
		t.Fatal(err)
	}

	// 2. A job spec names two library packages by key; like the
	// wrapper, close it over their dependencies.
	named, err := spec.ParseString(repo.Package(repo.FamilyVersions("library-0004")[3]).Key()+"\n"+
		repo.Package(repo.FamilyVersions("library-0007")[3]).Key()+"\n", repo)
	if err != nil {
		t.Fatal(err)
	}
	jobSpec := spec.WithClosure(repo, named.IDs())
	if jobSpec.Len() <= named.Len() {
		t.Fatalf("closure of %d packages added nothing", named.Len())
	}

	// 3. Run the site service over HTTP and submit through the client.
	srv, err := server.New(repo, core.Config{Alpha: 0.8, MinHash: core.DefaultMinHash()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := server.NewClient(ts.URL, ts.Client())
	var keys []string
	for _, id := range jobSpec.IDs() {
		keys = append(keys, repo.Package(id).Key())
	}
	res1, err := client.Request(keys, false)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Op != "insert" {
		t.Fatalf("first submission op = %s", res1.Op)
	}
	res2, err := client.Request(keys, false)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Op != "hit" || res2.ImageID != res1.ImageID {
		t.Fatalf("repeat submission: %+v", res2)
	}

	// 4. Materialize the image to a verified on-disk bundle.
	builder := shrinkwrap.NewBuilder(cvmfs.NewStore(repo), shrinkwrap.DefaultCostModel())
	bundlePath := filepath.Join(dir, "image.llimg")
	man, err := builder.PackFile(bundlePath, jobSpec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := shrinkwrap.UnpackFile(bundlePath)
	if err != nil {
		t.Fatal(err)
	}
	if got.Bytes != man.Bytes {
		t.Fatalf("bundle round trip: %d vs %d bytes", got.Bytes, man.Bytes)
	}

	// 5. Record a trace of a workload stream and replay it twice:
	// identical decisions both times.
	stream, err := workload.Stream(workload.NewDepClosure(repo, 9), 15, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	stream = append([]spec.Spec{jobSpec}, stream...)
	tracePath := filepath.Join(dir, "jobs.trace")
	if err := trace.SaveFile(tracePath, repo, stream); err != nil {
		t.Fatal(err)
	}
	loaded, err := trace.LoadFile(tracePath, repo)
	if err != nil {
		t.Fatal(err)
	}
	run := func() sim.Result {
		m, err := core.NewSharded(repo, core.Config{Alpha: 0.8, MinHash: core.DefaultMinHash()})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Replay(m, loaded, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Stats != b.Stats || a.TotalData != b.TotalData {
		t.Fatal("trace replay not deterministic")
	}
	if a.Stats.Hits == 0 {
		t.Fatal("replay with repeats produced no hits")
	}
}
