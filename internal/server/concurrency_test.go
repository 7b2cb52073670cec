package server

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/persist"
)

// concurrentService is testService with the Server handle exposed, for
// tests that assert on lock accounting.
func concurrentService(t *testing.T, cfg core.Config) (*Server, *Client) {
	t.Helper()
	srv, err := New(testRepo(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, NewClient(ts.URL, ts.Client())
}

// TestReadOnlyEndpointsTakeNoWriteLock is the regression test for the
// read path: /v1/stats, /v1/images, /v1/snapshot, /v1/events, /metrics
// and repeat-hit requests must all be served without acquiring the
// exclusive cache lock, so monitoring and hit traffic never stall
// behind each other.
func TestReadOnlyEndpointsTakeNoWriteLock(t *testing.T) {
	srv, client := concurrentService(t, core.Config{Alpha: 0.6})
	for _, key := range []string{"libA/1.0/p", "libB/1.0/p"} {
		if _, err := client.Request([]string{key}, true); err != nil {
			t.Fatal(err)
		}
	}
	before := srv.cmgr.WriteLockAcquisitions()
	if before == 0 {
		t.Fatal("inserts did not take the write lock")
	}

	if _, err := client.Stats(); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Images(); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Events(0); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(client.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// A repeat of a cached spec is a hit: read path only.
	if res, err := client.Request([]string{"libA/1.0/p"}, true); err != nil || res.Op != "hit" {
		t.Fatalf("repeat request: op=%v err=%v", res.Op, err)
	}

	if got := srv.cmgr.WriteLockAcquisitions(); got != before {
		t.Errorf("read-only traffic acquired the write lock %d time(s)", got-before)
	}
	if srv.cmgr.ReadHits() == 0 {
		t.Error("hit did not ride the read path")
	}

	// The contention series are scrapeable.
	var buf bytes.Buffer
	if err := srv.Registry().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		"landlord_lock_wait_seconds",
		"landlord_read_path_hits_total",
		"landlord_write_lock_acquisitions_total",
	} {
		if !strings.Contains(buf.String(), series) {
			t.Errorf("metrics output missing %q", series)
		}
	}
}

// TestMaxInflightBoundsRequests pins the semaphore behaviour: with the
// limit saturated, a request whose client has given up is rejected
// with 503 instead of queueing forever, and releasing the slot lets
// traffic flow again.
func TestMaxInflightBoundsRequests(t *testing.T) {
	srv, client := concurrentService(t, core.Config{Alpha: 0.6})
	srv.setMaxInflight(1)

	// Occupy the only slot, as an in-flight request would.
	srv.sem <- struct{}{}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the queued client has already given up
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, client.base+"/v1/request",
		strings.NewReader(`{"packages":["libA/1.0/p"],"close":true}`))
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated server returned %d, want 503", rec.Code)
	}

	<-srv.sem // release the slot
	if res, err := client.Request([]string{"libA/1.0/p"}, true); err != nil || res.Op != "insert" {
		t.Fatalf("post-release request: op=%v err=%v", res.Op, err)
	}

	var buf bytes.Buffer
	if err := srv.Registry().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "landlord_inflight_requests") {
		t.Error("metrics output missing landlord_inflight_requests")
	}
}

// TestConcurrentHTTPPipeline hammers a persistent (fsync=always)
// server with parallel clients mixing writes and read-only endpoints —
// the whole pipeline under the race detector: handler concurrency,
// the cache's shard locks, group commit, single-flight checkpoints.
func TestConcurrentHTTPPipeline(t *testing.T) {
	dir := t.TempDir()
	srv, _, err := Open(testRepo(t), Config{
		Core:            core.Config{Alpha: 0.6},
		StateDir:        dir,
		Persist:         persist.Options{SyncPolicy: persist.FsyncAlways},
		CheckpointEvery: 25,
		MaxInflight:     4,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const workers = 8
	const perWorker = 40
	keys := []string{"libA/1.0/p", "libB/1.0/p", "fw/1.0/p", "base/1.0/p"}
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := NewClient(ts.URL, ts.Client())
			for i := 0; i < perWorker; i++ {
				if _, err := c.Request([]string{keys[(g+i)%len(keys)]}, true); err != nil {
					t.Errorf("worker %d: %v", g, err)
					return
				}
				switch i % 10 {
				case 3:
					if _, err := c.Stats(); err != nil {
						t.Errorf("worker %d stats: %v", g, err)
					}
				case 7:
					if _, err := c.Images(); err != nil {
						t.Errorf("worker %d images: %v", g, err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	st := srv.StatsNow()
	if want := int64(workers * perWorker); st.Requests != want {
		t.Errorf("served %d requests, want %d", st.Requests, want)
	}
	if err := srv.store.Err(); err != nil {
		t.Errorf("store degraded: %v", err)
	}
	ts.Close()

	// Everything acknowledged must be visible after a restart.
	if err := srv.store.Close(); err != nil {
		t.Fatal(err)
	}
	store2, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	srv2, _, err := NewPersistent(testRepo(t), core.Config{Alpha: 0.6}, store2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := srv2.StatsNow(); got.Requests != st.Requests || got.Images != st.Images {
		t.Errorf("recovered stats %+v, want requests=%d images=%d", got, st.Requests, st.Images)
	}
}
