package server_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/pkggraph"
	"repro/internal/server"
)

// TestOpenAppliesSiteSettings: a site's max_inflight, shed_rate /
// shed_burst and state dir reach the node through ServerConfig and
// Open — the assembly the daemon boots — and Close seals the state, so
// the next Open recovers from the checkpoint alone.
func TestOpenAppliesSiteSettings(t *testing.T) {
	repo, err := pkggraph.New([]pkggraph.Package{
		{ID: 0, Name: "base", Version: "1.0", Platform: "p", Tier: pkggraph.TierCore, Size: 100, FileCount: 1},
		{ID: 1, Name: "libA", Version: "1.0", Platform: "p", Tier: pkggraph.TierLibrary, Size: 20, FileCount: 1, Deps: []pkggraph.PkgID{0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	site, err := config.Parse([]byte(`{"max_inflight": 2, "shed_rate": 0.001, "shed_burst": 2}`))
	if err != nil {
		t.Fatal(err)
	}
	site.StateDir = t.TempDir()

	srv, rep, err := server.Open(repo, site.ServerConfig(repo))
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil {
		t.Fatal("a node with a state dir returned no recovery report")
	}
	var metrics bytes.Buffer
	if err := srv.Registry().WriteText(&metrics); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics.String(), "landlord_inflight_requests") {
		t.Error("max_inflight set, but landlord_inflight_requests is not registered")
	}

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	post := func() int {
		resp, err := http.Post(ts.URL+"/v1/request", "application/json",
			strings.NewReader(`{"packages":["libA/1.0/p"],"close":true}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	// The bucket holds shed_burst tokens and refills one per 1,000 s.
	for i := 0; i < 2; i++ {
		if code := post(); code != http.StatusOK {
			t.Fatalf("request %d within the burst: status %d", i, code)
		}
	}
	if code := post(); code != http.StatusTooManyRequests {
		t.Fatalf("request past the burst: status %d, want 429", code)
	}
	if got := srv.StatsNow().Requests; got != 2 {
		t.Errorf("requests = %d after a shed, want 2 (a shed must not reach the cache)", got)
	}

	info, err := srv.Close()
	if err != nil {
		t.Fatal(err)
	}
	if info.Images != 1 {
		t.Errorf("final checkpoint holds %d images, want 1", info.Images)
	}
	again, rep, err := server.Open(repo, site.ServerConfig(repo))
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if rep.RecordsReplayed != 0 || rep.CheckpointImages != 1 {
		t.Errorf("reopen after Close: %s, want the checkpoint alone (0 replayed records, 1 image)", rep)
	}
	if got := again.StatsNow().Requests; got != 2 {
		t.Errorf("reopened node counts %d requests, want 2", got)
	}
}
