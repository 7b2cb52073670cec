package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/persist"
)

func persistentService(t *testing.T, dir string, ckptEvery int) (*Server, *Client, *persist.RecoveryReport) {
	t.Helper()
	return segmentedService(t, dir, ckptEvery, 0)
}

// segmentedService is persistentService with WAL segments of the given
// size (0 for the store's default).
func segmentedService(t *testing.T, dir string, ckptEvery int, segment int64) (*Server, *Client, *persist.RecoveryReport) {
	t.Helper()
	store, err := persist.Open(dir, persist.Options{SyncPolicy: persist.FsyncNever, SegmentBytes: segment})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	srv, rep, err := NewPersistent(testRepo(t), core.Config{Alpha: 0.6}, store, ckptEvery)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, NewClient(ts.URL, ts.Client()), rep
}

// TestPersistentServerSurvivesRestart drives the full durability loop
// over HTTP: requests, an explicit /v1/checkpoint, more requests (WAL
// tail), then a "restart" into the same state directory.
func TestPersistentServerSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	srv, client, rep := persistentService(t, dir, 0)
	if rep.RecordsReplayed != 0 || rep.CheckpointSeq != 0 {
		t.Fatalf("fresh directory produced a non-empty recovery: %+v", rep)
	}

	if _, err := client.Request([]string{"libA/1.0/p"}, true); err != nil {
		t.Fatal(err)
	}
	info, err := client.Checkpoint()
	if err != nil {
		t.Fatalf("POST /v1/checkpoint: %v", err)
	}
	if info.Images != 1 {
		t.Fatalf("checkpoint covered %d images, want 1", info.Images)
	}
	// Post-checkpoint mutations live only in the WAL tail.
	if _, err := client.Request([]string{"libB/1.0/p"}, true); err != nil {
		t.Fatal(err)
	}
	before := srv.StatsNow()
	wantSnaps, err := client.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Restart: a fresh store and server over the same directory.
	srv2, client2, rep2 := persistentService(t, dir, 0)
	if rep2.CheckpointSeq != info.Seq {
		t.Errorf("recovered from checkpoint %d, want %d", rep2.CheckpointSeq, info.Seq)
	}
	if rep2.RecordsReplayed == 0 {
		t.Error("post-checkpoint WAL tail was not replayed")
	}
	if got := srv2.StatsNow(); got != before {
		t.Errorf("stats after restart = %+v, want %+v", got, before)
	}
	gotSnaps, err := client2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotSnaps, wantSnaps) {
		t.Errorf("snapshot after restart:\n got %+v\nwant %+v", gotSnaps, wantSnaps)
	}
}

// TestCheckpointEveryRequests: the server compacts automatically once
// the configured number of requests lands.
func TestCheckpointEveryRequests(t *testing.T) {
	dir := t.TempDir()
	srv, client, _ := persistentService(t, dir, 3)
	for i := 0; i < 3; i++ {
		if _, err := client.Request([]string{"libA/1.0/p"}, true); err != nil {
			t.Fatal(err)
		}
	}
	if since := srv.sinceCkpt.Load(); since != 0 {
		t.Fatalf("sinceCkpt = %d after threshold, want 0 (checkpoint ran)", since)
	}

	// The restart must need no WAL replay: everything is in the checkpoint.
	_, _, rep := persistentService(t, dir, 0)
	if rep.RecordsReplayed != 0 || rep.CheckpointImages != 1 {
		t.Errorf("recovery after auto-checkpoint replayed %d records (images %d), want a pure checkpoint load",
			rep.RecordsReplayed, rep.CheckpointImages)
	}
}

// walAppended is the store's count of bytes appended to the WAL.
func walAppended(s *Server) int64 {
	return s.reg.Counter("landlord_persist_wal_bytes_total", "Bytes appended to the WAL").Value()
}

// checkpointsTaken is the store's count of checkpoints written.
func checkpointsTaken(s *Server) int64 {
	return s.reg.Counter("landlord_persist_checkpoints_total", "Checkpoints written").Value()
}

// stateFiles sizes a state directory: the WAL segments' total bytes and
// their count, and the size of each checkpoint file by name.
func stateFiles(t *testing.T, dir string) (walBytes int64, segments int, ckpts map[string]int64) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	ckpts = make(map[string]int64)
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		switch name := e.Name(); {
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log"):
			walBytes += fi.Size()
			segments++
		case strings.HasPrefix(name, "checkpoint-") && strings.HasSuffix(name, ".ckpt"):
			ckpts[name] = fi.Size()
		}
	}
	return walBytes, segments, ckpts
}

// TestCheckpointBySize: at the default cadence the server compacts on
// the request whose records bring the WAL tail to max(one segment, the
// last checkpoint's size), not one request sooner or later, and the
// checkpoint deletes the segments and the checkpoint it covers.
func TestCheckpointBySize(t *testing.T) {
	const segment = 256
	dir := t.TempDir()
	srv, client, _ := segmentedService(t, dir, 0, segment)
	keys := [][]string{{"libA/1.0/p"}, {"libB/1.0/p"}}
	var tail int64
	ran, byCheckpoint := 0, false
	for i := 0; ran < 4; i++ {
		if i == 2000 {
			t.Fatalf("only %d size-triggered checkpoint(s) in %d requests", ran, i)
		}
		_, last, _ := srv.store.LogBytes()
		appended, taken := walAppended(srv), checkpointsTaken(srv)
		if _, err := client.Request(keys[i%2], true); err != nil {
			t.Fatal(err)
		}
		tail += walAppended(srv) - appended
		due := tail >= max(segment, last)
		if got := checkpointsTaken(srv) > taken; got != due {
			t.Fatalf("request %d: tail %d bytes against max(segment %d, checkpoint %d): checkpoint ran = %v, want %v",
				i, tail, segment, last, got, due)
		}
		if due {
			ran++
			tail = 0
			byCheckpoint = byCheckpoint || last > segment
			walBytes, segments, ckpts := stateFiles(t, dir)
			if walBytes != 0 || segments != 1 || len(ckpts) != 1 {
				t.Fatalf("after checkpoint %d the directory holds %d WAL byte(s) in %d segment(s) and %d checkpoint(s); want the covered files deleted: one empty segment, one checkpoint",
					ran, walBytes, segments, len(ckpts))
			}
			_, last, _ := srv.store.LogBytes()
			for name, size := range ckpts {
				if size != last {
					t.Fatalf("store reports a last checkpoint of %d bytes, %s holds %d", last, name, size)
				}
			}
		}
		if got, _, _ := srv.store.LogBytes(); got != tail {
			t.Fatalf("request %d: store reports a tail of %d bytes, want %d", i, got, tail)
		}
	}
	if !byCheckpoint {
		t.Fatalf("no checkpoint outgrew the %d-byte segment, so no threshold was set by a checkpoint's size", segment)
	}
}

// TestRestartCountsRecoveredTail: a restart at the default cadence
// leaves the WAL tail it replayed in place and counts it toward the
// threshold. Over the threshold, the first request compacts; below it,
// the first request only adds to the tail.
func TestRestartCountsRecoveredTail(t *testing.T) {
	// crashed leaves a directory holding only a WAL tail: requests under
	// the default 4 MB segments, which they never fill, and no final
	// checkpoint.
	crashed := func() (string, int64) {
		dir := t.TempDir()
		srv, client, _ := segmentedService(t, dir, 0, 0)
		for i := 0; i < 20; i++ {
			if _, err := client.Request([]string{"libA/1.0/p"}, true); err != nil {
				t.Fatal(err)
			}
		}
		if err := srv.store.Close(); err != nil {
			t.Fatal(err)
		}
		tail, _, _ := srv.store.LogBytes()
		return dir, tail
	}
	for _, over := range []bool{true, false} {
		dir, tail := crashed()
		segment := 4 * tail // the tail is below the threshold...
		if over {
			segment = tail / 2 // ...or past it
		}
		srv, client, rep := segmentedService(t, dir, 0, segment)
		if rep.TailBytes != tail || rep.RecordsReplayed != 20 {
			t.Fatalf("recovery read %d bytes in %d records, want the %d-byte tail of 20 records", rep.TailBytes, rep.RecordsReplayed, tail)
		}
		if !strings.Contains(rep.String(), fmt.Sprintf("(%d bytes)", tail)) {
			t.Errorf("recovery line %q does not name the %d bytes replayed", rep, tail)
		}
		if got, _, _ := srv.store.LogBytes(); got != tail {
			t.Fatalf("restart reports a tail of %d bytes, want the %d it replayed", got, tail)
		}
		if _, _, ckpts := stateFiles(t, dir); len(ckpts) != 0 || checkpointsTaken(srv) != 0 {
			t.Fatalf("the restart checkpointed before any request (%d file(s)); the size rule decides on the first request", len(ckpts))
		}
		appended := walAppended(srv)
		if _, err := client.Request([]string{"libA/1.0/p"}, true); err != nil {
			t.Fatal(err)
		}
		got, _, _ := srv.store.LogBytes()
		switch {
		case over && (checkpointsTaken(srv) != 1 || got != 0):
			t.Errorf("tail %d over segment %d: the first request left %d checkpoint(s) and a %d-byte tail, want 1 and 0",
				tail, segment, checkpointsTaken(srv), got)
		case !over && (checkpointsTaken(srv) != 0 || got != tail+walAppended(srv)-appended):
			t.Errorf("tail %d below segment %d: the first request left %d checkpoint(s) and a %d-byte tail, want 0 and %d",
				tail, segment, checkpointsTaken(srv), got, tail+walAppended(srv)-appended)
		}
	}
}

// TestRestartCompactsDamagedTail: a tail recovery could not read whole
// is checkpointed at startup whatever its size, so the next restart
// does not meet the torn record again, now mid-log, as corruption.
func TestRestartCompactsDamagedTail(t *testing.T) {
	dir := t.TempDir()
	srv, client, _ := persistentService(t, dir, 0)
	for _, key := range []string{"libA/1.0/p", "libB/1.0/p"} {
		if _, err := client.Request([]string{key}, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.store.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want one segment, got %v (%v)", segs, err)
	}
	fi, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segs[0], fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	srv2, _, rep := persistentService(t, dir, 0)
	if !rep.TornTail || rep.RecordsReplayed == 0 {
		t.Fatalf("recovery did not see a torn tail after whole records: %s", rep)
	}
	if _, _, ckpts := stateFiles(t, dir); len(ckpts) != 1 || checkpointsTaken(srv2) != 1 {
		t.Fatalf("restart over a torn tail left %d checkpoint file(s), took %d; want the tail compacted at once", len(ckpts), checkpointsTaken(srv2))
	}
	if err := srv2.store.Close(); err != nil {
		t.Fatal(err)
	}
	_, _, rep = persistentService(t, dir, 0)
	if rep.TornTail || rep.CorruptSegments != 0 || len(rep.Warnings) != 0 {
		t.Errorf("the next restart met the damage again: %s %q", rep, rep.Warnings)
	}
}

// TestWALStaysBounded is the disk bound the size rule buys. A long
// hit-only stream at the default cadence, crashed and restarted every
// 1,000 requests, must never leave more WAL in the state directory
// after a request than the rule allows: under max(one segment, the one
// checkpoint the directory holds). A hit appends one touch record, so
// without compaction the WAL would grow by that much per request.
func TestWALStaysBounded(t *testing.T) {
	const segment = 4 << 10
	dir := t.TempDir()
	var srv *Server
	var client *Client
	for i := 0; i < 3000; i++ {
		if i%1000 == 0 {
			if srv != nil {
				srv.store.Close() // a crash: the WAL synced, no final checkpoint
			}
			srv, client, _ = segmentedService(t, dir, 0, segment)
		}
		res, err := client.Request([]string{"libA/1.0/p"}, true)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && res.Op != "hit" {
			t.Fatalf("request %d: %s, want a hit", i, res.Op)
		}
		walBytes, _, ckpts := stateFiles(t, dir)
		if i > 100 && len(ckpts) != 1 {
			t.Fatalf("after request %d the directory holds %d checkpoints, want 1", i, len(ckpts))
		}
		var ckptBytes int64
		for _, size := range ckpts {
			ckptBytes = size
		}
		if bound := max(segment, ckptBytes); walBytes >= bound {
			t.Fatalf("after request %d the directory holds %d WAL bytes, want under max(segment %d, checkpoint %d) = %d",
				i, walBytes, segment, ckptBytes, bound)
		}
	}
}

// TestRestoreTriggersCheckpoint: /v1/restore bypasses the WAL, so the
// server closes the durability hole with an immediate checkpoint.
func TestRestoreTriggersCheckpoint(t *testing.T) {
	dirA := t.TempDir()
	_, clientA, _ := persistentService(t, dirA, 0)
	if _, err := clientA.Request([]string{"libA/1.0/p"}, true); err != nil {
		t.Fatal(err)
	}
	snaps, err := clientA.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	dirB := t.TempDir()
	_, clientB, _ := persistentService(t, dirB, 0)
	if err := clientB.Restore(snaps); err != nil {
		t.Fatal(err)
	}

	// A restart of B recovers the restored images from its checkpoint.
	_, _, rep := persistentService(t, dirB, 0)
	if rep.CheckpointImages != len(snaps) {
		t.Errorf("restart after restore found %d checkpointed images, want %d", rep.CheckpointImages, len(snaps))
	}
}

// TestCheckpointWithoutStore: the endpoint reports 412 when the server
// has no durability configured.
func TestCheckpointWithoutStore(t *testing.T) {
	ts, _ := testService(t, core.Config{Alpha: 0.6})
	resp, err := http.Post(ts.URL+"/v1/checkpoint", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusPreconditionFailed {
		t.Fatalf("status = %d, want 412", resp.StatusCode)
	}
}

// TestRecoveringHandler: the startup placeholder serves 503 with a
// Retry-After hint on every serving route, but liveness stays 200 —
// a daemon replaying its WAL is alive and must not be restarted.
func TestRecoveringHandler(t *testing.T) {
	ts := httptest.NewServer(RecoveringHandler())
	defer ts.Close()
	for _, path := range []string{"/v1/readyz", "/v1/request", "/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s: status = %d, want 503", path, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Errorf("%s: no Retry-After header", path)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/v1/healthz: status = %d, want 200 (liveness holds through recovery)", resp.StatusCode)
	}
}

// TestClientRetriesDuringRecovery: a GET that first hits the
// recovering placeholder succeeds once the real handler takes over,
// with backoff sleeps instead of user-visible failures. Readiness is
// the route that 503s through recovery (liveness stays 200).
func TestClientRetriesDuringRecovery(t *testing.T) {
	recovering := RecoveringHandler()
	var fails int
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/readyz", func(w http.ResponseWriter, r *http.Request) {
		if fails < 2 {
			fails++
			recovering.ServeHTTP(w, r)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	client := NewClient(ts.URL, ts.Client())
	var slept []time.Duration
	client.sleep = func(d time.Duration) { slept = append(slept, d) }
	client.SetJitter(func() float64 { return 1 }) // pin to the ceiling for the assertion
	if err := client.Ready(); err != nil {
		t.Fatalf("Ready with retries: %v", err)
	}
	// The placeholder's Retry-After: 1 floors the 100ms/200ms jittered
	// ceilings — the server named its recovery window, so the client
	// waits it out instead of probing inside it.
	want := []time.Duration{time.Second, time.Second}
	if !reflect.DeepEqual(slept, want) {
		t.Errorf("backoff sleeps = %v, want %v", slept, want)
	}
}

// TestClientDoesNotRetryPosts: mutating requests must reach the
// service at most once per call.
func TestClientDoesNotRetryPosts(t *testing.T) {
	var posts int
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/prune", func(w http.ResponseWriter, r *http.Request) {
		posts++
		writeError(w, http.StatusServiceUnavailable, "recovering")
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	client := NewClient(ts.URL, ts.Client())
	client.sleep = func(time.Duration) { t.Error("POST slept for a retry") }
	if _, err := client.Prune(0.5, 1); err == nil {
		t.Fatal("expected error from 503")
	}
	if posts != 1 {
		t.Fatalf("POST attempted %d times, want 1", posts)
	}
}

// TestClientBackoffCap: the exponential backoff saturates at RetryCap.
func TestClientBackoffCap(t *testing.T) {
	c := NewClient("http://example.invalid", nil)
	c.RetryBase = 100 * time.Millisecond
	c.RetryCap = 300 * time.Millisecond
	want := []time.Duration{100, 200, 300, 300}
	for i, w := range want {
		if got := c.backoff(i + 1); got != w*time.Millisecond {
			t.Errorf("backoff(%d) = %v, want %v", i+1, got, w*time.Millisecond)
		}
	}
}

// TestClientRetriesExhaust: a persistently-503 server exhausts
// MaxRetries and surfaces the final error.
func TestClientRetriesExhaust(t *testing.T) {
	var gets int
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		gets++
		writeError(w, http.StatusServiceUnavailable, "still recovering")
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	client := NewClient(ts.URL, ts.Client())
	client.MaxRetries = 2
	client.sleep = func(time.Duration) {}
	if _, err := client.Stats(); err == nil {
		t.Fatal("expected error after retries exhausted")
	}
	if gets != 3 {
		t.Fatalf("GET attempted %d times, want 3 (1 + 2 retries)", gets)
	}
}
