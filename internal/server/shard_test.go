package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/pkggraph"
)

// closureSpecs are the five distinct dependency closures the test repo
// offers; with alpha 0 nothing merges, so each inserts its own image.
var closureSpecs = [][]string{
	{"base/1.0/p"},
	{"fw/1.0/p"},
	{"libA/1.0/p"},
	{"libB/1.0/p"},
	{"libA/1.0/p", "libB/1.0/p"},
}

// TestShardedServerEndToEnd drives the HTTP API of the concurrent
// cache: inserts and repeat hits, /v1/stats, /v1/images in stable ID
// order, and /metrics exposing the cache's residency as the one pair
// of gauges, with no per-shard series.
func TestShardedServerEndToEnd(t *testing.T) {
	ts, client := testService(t, core.Config{Alpha: 0})

	for _, pkgs := range closureSpecs {
		res, err := client.Request(pkgs, true)
		if err != nil {
			t.Fatal(err)
		}
		if res.Op != "insert" {
			t.Fatalf("first request of %v: op %q, want insert", pkgs, res.Op)
		}
	}
	for _, pkgs := range closureSpecs {
		res, err := client.Request(pkgs, true)
		if err != nil {
			t.Fatal(err)
		}
		if res.Op != "hit" {
			t.Fatalf("repeat of %v: op %q, want hit", pkgs, res.Op)
		}
	}

	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != 10 || st.Inserts != 5 || st.Hits != 5 || st.Images != 5 {
		t.Fatalf("stats wrong: %+v", st)
	}

	imgs, err := client.Images()
	if err != nil {
		t.Fatal(err)
	}
	if len(imgs) != 5 {
		t.Fatalf("%d images listed, want 5", len(imgs))
	}
	for i := 1; i < len(imgs); i++ {
		if imgs[i-1].ID >= imgs[i].ID {
			t.Fatalf("image listing not ID-ordered: %d before %d", imgs[i-1].ID, imgs[i].ID)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{"landlord_images 5", "landlord_cached_bytes "} {
		if !strings.Contains(string(body), series) {
			t.Errorf("/metrics missing %s", series)
		}
	}
	if strings.Contains(string(body), "landlord_cache_shard_") {
		t.Error("/metrics still serves per-shard gauges")
	}
}

// TestShardedServerPersistence restarts a persistent server and
// requires the recovered cache to serve every pre-restart spec as a hit
// with identical aggregate state — the checkpoint/WAL round-trip
// through the server's own checkpoint path.
func TestShardedServerPersistence(t *testing.T) {
	dir := t.TempDir()
	cfg := core.Config{Alpha: 0}
	open := func() (*Server, *persist.Store) {
		store, err := persist.Open(dir, persist.Options{SyncPolicy: persist.FsyncNever})
		if err != nil {
			t.Fatal(err)
		}
		srv, _, err := NewPersistent(testRepo(t), cfg, store, 0)
		if err != nil {
			t.Fatal(err)
		}
		return srv, store
	}

	keys := []string{"base/1.0/p", "fw/1.0/p", "libA/1.0/p", "libB/1.0/p"}
	srv, store := open()
	repo := testRepo(t)
	for _, key := range keys {
		if _, err := srv.cmgr.Request(mustSpec(t, repo, key)); err != nil {
			t.Fatal(err)
		}
	}
	before := srv.StatsNow()
	if _, err := srv.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, store2 := open()
	defer store2.Close()
	after := srv2.StatsNow()
	if after.Images != before.Images || after.TotalData != before.TotalData {
		t.Fatalf("recovered state %+v, want images=%d total=%d", after, before.Images, before.TotalData)
	}
	for _, key := range keys {
		res, err := srv2.cmgr.Request(mustSpec(t, repo, key))
		if err != nil {
			t.Fatal(err)
		}
		if res.Op != core.OpHit {
			t.Fatalf("recovered cache missed %q: %v", key, res.Op)
		}
	}
}

// TestSnapshotIsExportStateImages pins /v1/snapshot to the state's
// image list: on a server whose cache has merged and evicted, the decoded body equals ExportState().Images and runs in
// ascending last-use order.
func TestSnapshotIsExportStateImages(t *testing.T) {
	repo := decodeRepo(t)
	srv, err := New(repo, core.Config{Alpha: 0.5, Capacity: 3 * repo.TotalSize()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	client := NewClient(ts.URL, ts.Client())
	// Forty closed applications, then a few of them again: the repeats
	// hit and restamp older images, so last-use order is not ID order.
	for id := repo.Len() - 1; id >= repo.Len()-120; id -= 3 {
		if _, err := client.Request([]string{repo.Key(pkggraph.PkgID(id))}, true); err != nil {
			t.Fatal(err)
		}
	}
	for id := repo.Len() - 100; id < repo.Len(); id += 12 {
		if _, err := client.Request([]string{repo.Key(pkggraph.PkgID(id))}, true); err != nil {
			t.Fatal(err)
		}
	}
	if st := srv.StatsNow(); st.Merges == 0 || st.Deletes == 0 || st.Hits == 0 || st.Images < 4 {
		t.Fatalf("want merges, evictions, hits and several images before the snapshot: %+v", st)
	}

	got, err := client.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if want := srv.ExportState().Images; !reflect.DeepEqual(got, want) {
		t.Fatalf("/v1/snapshot is not ExportState().Images:\n got %+v\nwant %+v", got, want)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].LastUse >= got[i].LastUse {
			t.Fatalf("snapshot image %d (lastUse %d) follows lastUse %d", got[i].ID, got[i].LastUse, got[i-1].LastUse)
		}
	}
}
