package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/resilience"
)

// fakeClock is a manually advanced time source for shedder/breaker
// tests: no real sleeps, fully deterministic refill and cool-down.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// resilientService builds a server the test can reach into (shedder,
// serve state) alongside its HTTP face.
func resilientService(t testing.TB, cfg core.Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(testRepo(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postRequest(t testing.TB, url string, body RequestBody) *http.Response {
	t.Helper()
	data, _ := json.Marshal(body)
	resp, err := http.Post(url+"/v1/request", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestAdmissionControlShedsByRate: once the token bucket drains, the
// server answers 429 + Retry-After before doing any cache work — shed
// requests never partially mutate state.
func TestAdmissionControlShedsByRate(t *testing.T) {
	clk := newFakeClock()
	srv, ts := resilientService(t, core.Config{Alpha: 0.6})
	srv.setAdmission(resilience.ShedderConfig{Rate: 1, Burst: 2, Now: clk.Now})

	body := RequestBody{Packages: []string{"libA/1.0/p"}, Close: true}
	for i := 0; i < 2; i++ {
		if resp := postRequest(t, ts.URL, body); resp.StatusCode != http.StatusOK {
			t.Fatalf("admitted request %d: status %d", i, resp.StatusCode)
		}
	}
	for i := 0; i < 3; i++ {
		resp := postRequest(t, ts.URL, body)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("post-burst request %d: status %d, want 429", i, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Error("shed response has no Retry-After")
		}
	}
	if st := srv.StatsNow(); st.Requests != 2 {
		t.Errorf("stats.Requests = %d after sheds, want 2 (shed requests must not touch the cache)", st.Requests)
	}
	if got := srv.ServeStateNow(); got != StateShedding {
		t.Errorf("serve state = %v while shedding, want shedding", got)
	}

	// Refill one token: the next request is admitted and the state
	// relaxes back to healthy.
	clk.Advance(time.Second)
	if resp := postRequest(t, ts.URL, body); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-refill request: status %d", resp.StatusCode)
	}
	if got := srv.ServeStateNow(); got != StateHealthy {
		t.Errorf("serve state = %v after re-admission, want healthy", got)
	}
	if _, rate, _ := srv.shedder.Counters(); rate != 3 {
		t.Errorf("rate-shed counter = %d, want 3", rate)
	}
}

// gatedReader blocks the request body until the gate closes, pinning
// the request inside the handler (it holds its admission slot while
// the server waits on decode).
type gatedReader struct {
	gate <-chan struct{}
	data io.Reader
}

func (g *gatedReader) Read(p []byte) (int, error) {
	<-g.gate
	return g.data.Read(p)
}

// TestAdmissionControlShedsByQueueDepth: with one admitted request
// parked in the handler, queue-depth 1 refuses the second before it
// can pile onto the inflight semaphore.
func TestAdmissionControlShedsByQueueDepth(t *testing.T) {
	srv, ts := resilientService(t, core.Config{Alpha: 0.6})
	srv.setAdmission(resilience.ShedderConfig{QueueDepth: 1})

	gate := make(chan struct{})
	firstDone := make(chan error, 1)
	go func() {
		data, _ := json.Marshal(RequestBody{Packages: []string{"libA/1.0/p"}, Close: true})
		resp, err := http.Post(ts.URL+"/v1/request", "application/json",
			&gatedReader{gate: gate, data: bytes.NewReader(data)})
		if err == nil {
			if resp.StatusCode != http.StatusOK {
				err = errors.New(resp.Status)
			}
			resp.Body.Close()
		}
		firstDone <- err
	}()

	// Wait for the first request to be admitted (it is now blocked
	// reading its own body, holding the only queue slot).
	deadline := time.Now().Add(5 * time.Second)
	for srv.shedder.Inflight() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("first request never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	resp := postRequest(t, ts.URL, RequestBody{Packages: []string{"libB/1.0/p"}, Close: true})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request: status %d, want 429 (queue full)", resp.StatusCode)
	}
	var eb errorBody
	json.NewDecoder(resp.Body).Decode(&eb)
	if !strings.Contains(eb.Error, "queue") {
		t.Errorf("shed reason = %q, want queue", eb.Error)
	}

	close(gate)
	if err := <-firstDone; err != nil {
		t.Fatalf("parked request failed after release: %v", err)
	}
	if n := srv.shedder.Inflight(); n != 0 {
		t.Errorf("inflight = %d after completion, want 0", n)
	}
}

// TestDeadlinePropagationExpired: a request whose propagated deadline
// has already passed is answered 504 without touching the cache.
func TestDeadlinePropagationExpired(t *testing.T) {
	srv, ts := resilientService(t, core.Config{Alpha: 0.6})

	data, _ := json.Marshal(RequestBody{Packages: []string{"libA/1.0/p"}, Close: true})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/request", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(DeadlineHeader, "1") // 1ns past the epoch: long expired
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired-deadline request: status %d, want 504", resp.StatusCode)
	}
	if st := srv.StatsNow(); st.Requests != 0 {
		t.Errorf("stats.Requests = %d, want 0 (expired request must not mutate)", st.Requests)
	}

	// A malformed deadline is ignored, not fatal.
	req2, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/request", bytes.NewReader(data))
	req2.Header.Set("Content-Type", "application/json")
	req2.Header.Set(DeadlineHeader, "not-a-number")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("malformed-deadline request: status %d, want 200", resp2.StatusCode)
	}
}

// TestClientPropagatesDeadline: RequestCtx forwards the context
// deadline in the X-Landlord-Deadline header.
func TestClientPropagatesDeadline(t *testing.T) {
	var got atomic.Value
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/request", func(w http.ResponseWriter, r *http.Request) {
		got.Store(r.Header.Get(DeadlineHeader))
		writeJSON(w, http.StatusOK, RequestResponse{Op: "hit"})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	client := NewClient(ts.URL, ts.Client())
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(time.Minute))
	defer cancel()
	if _, err := client.RequestCtx(ctx, []string{"x"}, true); err != nil {
		t.Fatal(err)
	}
	hdr, _ := got.Load().(string)
	if hdr == "" {
		t.Fatal("no deadline header propagated")
	}
}

// TestReadyzHealthy: a fresh server is ready and reports its state.
func TestReadyzHealthy(t *testing.T) {
	_, ts := resilientService(t, core.Config{Alpha: 0.6})
	resp, err := http.Get(ts.URL + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz on healthy server: status %d", resp.StatusCode)
	}
	var body map[string]string
	json.NewDecoder(resp.Body).Decode(&body)
	if body["state"] != "healthy" {
		t.Errorf("readyz state = %q, want healthy", body["state"])
	}
}

// errToggled is the failure injected by toggleFS.
var errToggled = errors.New("injected: disk unplugged")

// toggleFS wraps a persist.FS; while tripped, every file write and
// fsync fails. Unlike check.FaultFS's one-shot op counts, the toggle
// models a sustained outage that later clears — the degraded-mode
// lifecycle.
type toggleFS struct {
	inner persist.FS
	fail  atomic.Bool
}

func (t *toggleFS) wrap(f persist.File, err error) (persist.File, error) {
	if err != nil {
		return nil, err
	}
	return &toggleFile{File: f, fs: t}, nil
}

func (t *toggleFS) MkdirAll(path string, perm os.FileMode) error { return t.inner.MkdirAll(path, perm) }
func (t *toggleFS) OpenFile(name string, flag int, perm os.FileMode) (persist.File, error) {
	return t.wrap(t.inner.OpenFile(name, flag, perm))
}
func (t *toggleFS) Open(name string) (persist.File, error) { return t.inner.Open(name) }
func (t *toggleFS) ReadDir(name string) ([]fs.DirEntry, error) {
	return t.inner.ReadDir(name)
}
func (t *toggleFS) Remove(name string) error              { return t.inner.Remove(name) }
func (t *toggleFS) Rename(oldpath, newpath string) error  { return t.inner.Rename(oldpath, newpath) }
func (t *toggleFS) Stat(name string) (fs.FileInfo, error) { return t.inner.Stat(name) }
func (t *toggleFS) CreateTemp(dir, pattern string) (persist.File, error) {
	return t.wrap(t.inner.CreateTemp(dir, pattern))
}

type toggleFile struct {
	persist.File
	fs *toggleFS
}

func (f *toggleFile) Write(p []byte) (int, error) {
	if f.fs.fail.Load() {
		return 0, errToggled
	}
	return f.File.Write(p)
}

func (f *toggleFile) Sync() error {
	if f.fs.fail.Load() {
		return errToggled
	}
	return f.File.Sync()
}

// TestDegradedModeLifecycle drives the whole overload/failure arc over
// HTTP: healthy service, sustained WAL failure, read-only degraded
// serving (untainted hits OK, mutations and tainted hits 503), a
// failed heal probe, a successful heal, and full recovery — with the
// serve-state transitions visible in /v1/events.
func TestDegradedModeLifecycle(t *testing.T) {
	tfs := &toggleFS{inner: persist.OSFS{}}
	store, err := persist.Open(t.TempDir(), persist.Options{SyncPolicy: persist.FsyncAlways, FS: tfs})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	// Alpha 0: distinct specs insert rather than merge, so the
	// pre-failure image stays untainted by failed mutations.
	srv, _, err := NewPersistent(testRepo(t), core.Config{Alpha: 0}, store, 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	libA := RequestBody{Packages: []string{"libA/1.0/p"}, Close: true}
	libB := RequestBody{Packages: []string{"libB/1.0/p"}, Close: true}

	// Healthy: libA inserts durably.
	if resp := postRequest(t, ts.URL, libA); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy insert: status %d", resp.StatusCode)
	}

	// Disk dies. The libB insert reaches memory but its WAL record is
	// lost: the server must refuse to ack it.
	tfs.fail.Store(true)
	resp := postRequest(t, ts.URL, libB)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("insert during outage: status %d, want 503", resp.StatusCode)
	}
	var eb errorBody
	json.NewDecoder(resp.Body).Decode(&eb)
	if !strings.Contains(eb.Error, "durability lost") {
		t.Errorf("outage error = %q, want durability-lost", eb.Error)
	}
	if got := srv.ServeStateNow(); got != StateDegraded {
		t.Fatalf("serve state = %v after WAL failure, want degraded", got)
	}

	// Readiness fails, liveness holds.
	readyz, err := http.Get(ts.URL + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	readyz.Body.Close()
	if readyz.StatusCode != http.StatusServiceUnavailable || readyz.Header.Get("Retry-After") == "" {
		t.Errorf("degraded readyz: status %d (Retry-After %q), want 503 with hint",
			readyz.StatusCode, readyz.Header.Get("Retry-After"))
	}
	healthz, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	healthz.Body.Close()
	if healthz.StatusCode != http.StatusOK {
		t.Errorf("degraded healthz: status %d, want 200 (liveness)", healthz.StatusCode)
	}

	// Degraded read-only serving: the durable libA image still answers,
	// marked as degraded; the tainted libB image is refused.
	hit := postRequest(t, ts.URL, libA)
	if hit.StatusCode != http.StatusOK || hit.Header.Get(DegradedHeader) != "1" {
		t.Fatalf("degraded hit: status %d, degraded header %q; want 200 + header",
			hit.StatusCode, hit.Header.Get(DegradedHeader))
	}
	var hitRes RequestResponse
	json.NewDecoder(hit.Body).Decode(&hitRes)
	if hitRes.Op != "hit" {
		t.Errorf("degraded op = %q, want hit", hitRes.Op)
	}
	tainted := postRequest(t, ts.URL, libB)
	if tainted.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("tainted-image request: status %d, want 503 (its WAL record is gone)", tainted.StatusCode)
	}
	// Stats (read-only) keep serving through the outage.
	stats, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	stats.Body.Close()
	if stats.StatusCode != http.StatusOK {
		t.Errorf("degraded stats: status %d, want 200", stats.StatusCode)
	}

	// A probe while the disk is still dead fails and re-enters degraded.
	if _, err := srv.ProbeDegradedNow(); err == nil {
		t.Fatal("heal probe succeeded against a dead disk")
	}
	if got := srv.ServeStateNow(); got != StateDegraded {
		t.Errorf("serve state after failed probe = %v, want degraded", got)
	}

	// Disk returns: the probe heals, taint clears, service resumes.
	tfs.fail.Store(false)
	if healed, err := srv.ProbeDegradedNow(); err != nil || !healed {
		t.Fatalf("heal probe after recovery: healed=%v err=%v", healed, err)
	}
	if got := srv.ServeStateNow(); got != StateHealthy {
		t.Fatalf("serve state after heal = %v, want healthy", got)
	}
	readyz2, err := http.Get(ts.URL + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	readyz2.Body.Close()
	if readyz2.StatusCode != http.StatusOK {
		t.Errorf("post-heal readyz: status %d, want 200", readyz2.StatusCode)
	}
	healed := postRequest(t, ts.URL, libB)
	if healed.StatusCode != http.StatusOK || healed.Header.Get(DegradedHeader) != "" {
		t.Fatalf("post-heal request: status %d (degraded header %q), want clean 200",
			healed.StatusCode, healed.Header.Get(DegradedHeader))
	}
	var healedRes RequestResponse
	json.NewDecoder(healed.Body).Decode(&healedRes)
	if healedRes.Op != "hit" {
		t.Errorf("post-heal op = %q, want hit (memory preserved and re-persisted by the heal)", healedRes.Op)
	}

	// The transitions are on the event stream, in order.
	client := NewClient(ts.URL, ts.Client())
	events, err := client.Events(0)
	if err != nil {
		t.Fatal(err)
	}
	var states []string
	for _, ev := range events {
		if strings.HasPrefix(ev.Op, "state:") {
			states = append(states, strings.TrimPrefix(ev.Op, "state:"))
		}
	}
	want := []string{"degraded", "recovering", "degraded", "recovering", "healthy"}
	if len(states) != len(want) {
		t.Fatalf("state events = %v, want %v", states, want)
	}
	for i := range want {
		if states[i] != want[i] {
			t.Fatalf("state events = %v, want %v", states, want)
		}
	}
}

// TestPruneRefusedWhileDegraded: a degraded node's store drops every
// record, so a prune pass would split images in memory that recovery
// never sees. /v1/prune answers 503 with Retry-After instead, changing
// nothing: /v1/snapshot stays byte-identical, though the image is one
// the pass would split. Once healed, the same prune splits it.
func TestPruneRefusedWhileDegraded(t *testing.T) {
	tfs := &toggleFS{inner: persist.OSFS{}}
	store, err := persist.Open(t.TempDir(), persist.Options{SyncPolicy: persist.FsyncAlways, FS: tfs})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv, _, err := NewPersistent(testRepo(t), core.Config{Alpha: 0}, store, 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	prune := func() *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/prune", "application/json",
			strings.NewReader(`{"max_utilization":0.9,"min_served":1}`))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	// One image of all four packages (200 bytes); a first pass resets
	// its hot window, then two hits leave libA's closure (170 bytes)
	// the only part in use.
	postRequest(t, ts.URL, RequestBody{Packages: []string{"libA/1.0/p", "libB/1.0/p"}, Close: true})
	if resp := prune(); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy prune: status %d", resp.StatusCode)
	}
	for i := 0; i < 2; i++ {
		postRequest(t, ts.URL, RequestBody{Packages: []string{"libA/1.0/p"}, Close: true})
	}

	// The disk dies under a hit, which degrades the node.
	tfs.fail.Store(true)
	postRequest(t, ts.URL, RequestBody{Packages: []string{"base/1.0/p"}})
	if got := srv.ServeStateNow(); got != StateDegraded {
		t.Fatalf("serve state = %v after the WAL failed, want degraded", got)
	}
	before := httpGet(t, ts.URL+"/v1/snapshot")
	resp := prune()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("degraded prune: status %d, Retry-After %q; want 503 with Retry-After", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if got := httpGet(t, ts.URL+"/v1/snapshot"); got != before {
		t.Fatalf("a refused prune changed the cache:\n before %s\n after  %s", before, got)
	}
	if n := srv.PruneNow(0.9, 1); n != 0 {
		t.Fatalf("the maintenance pass split %d image(s) while degraded", n)
	}

	tfs.fail.Store(false)
	if healed, err := srv.ProbeDegradedNow(); !healed || err != nil {
		t.Fatalf("heal: %v, %v", healed, err)
	}
	var splits []SplitInfo
	if resp := prune(); resp.StatusCode != http.StatusOK {
		t.Fatalf("healed prune: status %d", resp.StatusCode)
	} else if err := json.NewDecoder(resp.Body).Decode(&splits); err != nil || len(splits) != 1 || splits[0].NewSize != 170 {
		t.Fatalf("healed prune split %+v (%v), want the one image cut to 170 bytes", splits, err)
	}
}

// TestFailedProbesLeaveOneEmptySegment: each heal probe of a failing
// store is a checkpoint that cannot be written. Five of them may leave
// one empty WAL segment more than the outage began with, not five, and
// the probe that heals compacts the directory back to one segment.
func TestFailedProbesLeaveOneEmptySegment(t *testing.T) {
	dir := t.TempDir()
	tfs := &toggleFS{inner: persist.OSFS{}}
	store, err := persist.Open(dir, persist.Options{SyncPolicy: persist.FsyncAlways, FS: tfs})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv, _, err := NewPersistent(testRepo(t), core.Config{Alpha: 0}, store, 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	segments := func() int {
		t.Helper()
		names, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
		if err != nil {
			t.Fatal(err)
		}
		return len(names)
	}

	postRequest(t, ts.URL, RequestBody{Packages: []string{"libA/1.0/p"}, Close: true})
	tfs.fail.Store(true)
	postRequest(t, ts.URL, RequestBody{Packages: []string{"libB/1.0/p"}, Close: true})
	if srv.ServeStateNow() != StateDegraded {
		t.Fatal("server did not degrade")
	}
	before := segments()
	for i := 0; i < 5; i++ {
		if healed, err := srv.ProbeDegradedNow(); healed || err == nil {
			t.Fatalf("probe %d healed a failing disk: %v, %v", i, healed, err)
		}
	}
	if after := segments(); after > before+1 {
		t.Fatalf("five failed probes grew the WAL from %d to %d segments", before, after)
	}

	tfs.fail.Store(false)
	if healed, err := srv.ProbeDegradedNow(); !healed || err != nil {
		t.Fatalf("heal: %v, %v", healed, err)
	}
	if n := segments(); n != 1 {
		t.Fatalf("the healing checkpoint left %d segments, want 1", n)
	}
}

// TestStartDegradedProbeHeals: the background probe loop heals a
// degraded store without operator action.
func TestStartDegradedProbeHeals(t *testing.T) {
	tfs := &toggleFS{inner: persist.OSFS{}}
	store, err := persist.Open(t.TempDir(), persist.Options{SyncPolicy: persist.FsyncAlways, FS: tfs})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv, _, err := NewPersistent(testRepo(t), core.Config{Alpha: 0}, store, 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	tfs.fail.Store(true)
	postRequest(t, ts.URL, RequestBody{Packages: []string{"libA/1.0/p"}, Close: true})
	if srv.ServeStateNow() != StateDegraded {
		t.Fatal("server did not degrade")
	}
	tfs.fail.Store(false)

	stop := srv.StartDegradedProbe(time.Millisecond)
	defer stop()
	deadline := time.Now().Add(5 * time.Second)
	for srv.ServeStateNow() != StateHealthy {
		if time.Now().After(deadline) {
			t.Fatalf("probe loop never healed; state = %v", srv.ServeStateNow())
		}
		time.Sleep(time.Millisecond)
	}
	stop()
	stop() // idempotent
	if err := store.Err(); err != nil {
		t.Fatalf("store still failing after heal: %v", err)
	}
}

// TestCheckpointHealsDegradedServer: a checkpoint is a heal wherever
// it comes from. One an operator asks for through /v1/checkpoint
// covers the failed store's lost records, so the store is whole and the
// server ready again without waiting for the probe.
func TestCheckpointHealsDegradedServer(t *testing.T) {
	tfs := &toggleFS{inner: persist.OSFS{}}
	store, err := persist.Open(t.TempDir(), persist.Options{SyncPolicy: persist.FsyncAlways, FS: tfs})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv, _, err := NewPersistent(testRepo(t), core.Config{Alpha: 0}, store, 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	libA := RequestBody{Packages: []string{"libA/1.0/p"}, Close: true}
	tfs.fail.Store(true)
	postRequest(t, ts.URL, libA)
	if srv.ServeStateNow() != StateDegraded {
		t.Fatal("server did not degrade")
	}
	tfs.fail.Store(false)
	if _, err := NewClient(ts.URL, ts.Client()).Checkpoint(); err != nil {
		t.Fatalf("checkpoint after the disk returned: %v", err)
	}
	if err := store.Err(); err != nil {
		t.Fatalf("store still failing after the checkpoint: %v", err)
	}
	if got := srv.ServeStateNow(); got != StateHealthy {
		t.Fatalf("serve state after a healing checkpoint = %v, want healthy", got)
	}
	if resp := postRequest(t, ts.URL, libA); resp.StatusCode != http.StatusOK || resp.Header.Get(DegradedHeader) != "" {
		t.Fatalf("request after the healing checkpoint: status %d, degraded header %q", resp.StatusCode, resp.Header.Get(DegradedHeader))
	}
}

// scriptedHandler serves a fixed sequence of behaviours, then a
// terminal one, counting how many requests actually reached it.
type scriptedHandler struct {
	mu     sync.Mutex
	script []int // status codes; -1 = reset the connection
	seen   int
}

func (h *scriptedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mu.Lock()
	step := http.StatusOK
	if h.seen < len(h.script) {
		step = h.script[h.seen]
	}
	h.seen++
	h.mu.Unlock()
	switch {
	case step == -1:
		hj, ok := w.(http.Hijacker)
		if !ok {
			panic("test server cannot hijack")
		}
		conn, _, err := hj.Hijack()
		if err != nil {
			panic(err)
		}
		conn.Close() // mid-exchange connection reset
	case step != http.StatusOK:
		writeError(w, step, "scripted failure")
	default:
		writeJSON(w, http.StatusOK, StatsResponse{Requests: 7})
	}
}

func (h *scriptedHandler) requests() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.seen
}

// quietClient stubs out real sleeping and pins jitter for
// deterministic schedules.
func quietClient(t testing.TB, ts *httptest.Server) *Client {
	t.Helper()
	client := NewClient(ts.URL, ts.Client())
	client.sleep = func(time.Duration) {}
	client.SetJitter(func() float64 { return 1 })
	return client
}

// TestClientRecoversFromConnectionReset: a GET whose first exchange
// dies mid-connection retries and succeeds.
func TestClientRecoversFromConnectionReset(t *testing.T) {
	h := &scriptedHandler{script: []int{-1}}
	ts := httptest.NewServer(h)
	defer ts.Close()

	client := quietClient(t, ts)
	out, err := client.Stats()
	if err != nil {
		t.Fatalf("GET through a reset: %v", err)
	}
	if out.Requests != 7 {
		t.Errorf("decoded %+v, want the scripted payload", out)
	}
	if h.requests() != 2 {
		t.Errorf("server saw %d requests, want 2 (reset + retry)", h.requests())
	}
}

// TestClientRetryBudgetExhausted: a brown-out stops burning retries
// once the budget drains, surfacing the underlying error.
func TestClientRetryBudgetExhausted(t *testing.T) {
	h := &scriptedHandler{script: []int{503, 503, 503, 503, 503, 503}}
	ts := httptest.NewServer(h)
	defer ts.Close()

	client := quietClient(t, ts)
	client.SetRetryBudget(resilience.NewRetryBudget(0.1, 1))
	_, err := client.Stats()
	if err == nil {
		t.Fatal("expected budget exhaustion")
	}
	if !strings.Contains(err.Error(), "retry budget exhausted") {
		t.Errorf("error = %v, want budget exhaustion", err)
	}
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusServiceUnavailable {
		t.Errorf("exhaustion error does not wrap the last 503: %v", err)
	}
	// Budget 1 allows exactly one retry: initial + 1.
	if h.requests() != 2 {
		t.Errorf("server saw %d requests, want 2", h.requests())
	}
}

// TestClientBreakerLifecycle: consecutive failures open the circuit
// (fail fast, zero server contact), the cool-down admits a single
// probe, a failed probe re-opens, a successful probe closes.
func TestClientBreakerLifecycle(t *testing.T) {
	h := &scriptedHandler{script: []int{503, 503, 503}} // 2 to trip, 1 failed probe, then 200s
	ts := httptest.NewServer(h)
	defer ts.Close()

	clk := newFakeClock()
	client := quietClient(t, ts)
	client.MaxRetries = 0 // isolate the breaker from retry behaviour
	client.SetRetryBudget(nil)
	client.SetBreaker(resilience.NewBreaker(resilience.BreakerConfig{
		Failures: 2, OpenFor: time.Second, Now: clk.Now,
	}))

	// Two failures trip the circuit.
	for i := 0; i < 2; i++ {
		if _, err := client.Stats(); err == nil {
			t.Fatalf("scripted failure %d did not surface", i)
		}
	}
	if st := client.Breaker().State(); st != resilience.BreakerOpen {
		t.Fatalf("breaker state = %v after trip, want open", st)
	}

	// Inside the cool-down: fail fast, the server is not contacted.
	before := h.requests()
	_, err := client.Stats()
	if !IsCircuitOpen(err) {
		t.Fatalf("in-cool-down error = %v, want circuit open", err)
	}
	if h.requests() != before {
		t.Errorf("open circuit leaked a request to the server")
	}

	// Past the cool-down the next call is the probe; it is scripted to
	// fail, so the circuit re-opens and fails fast again.
	clk.Advance(time.Second + time.Millisecond)
	if _, err := client.Stats(); err == nil {
		t.Fatal("failed probe did not surface")
	}
	if h.requests() != before+1 {
		t.Fatalf("probe did not reach the server exactly once: %d -> %d", before, h.requests())
	}
	if _, err := client.Stats(); !IsCircuitOpen(err) {
		t.Fatalf("post-failed-probe error = %v, want circuit open", err)
	}

	// The server recovers; the next probe closes the circuit for good.
	clk.Advance(time.Second + time.Millisecond)
	if _, err := client.Stats(); err != nil {
		t.Fatalf("successful probe: %v", err)
	}
	if st := client.Breaker().State(); st != resilience.BreakerClosed {
		t.Fatalf("breaker state = %v after successful probe, want closed", st)
	}
	if opens := client.Breaker().Opens(); opens != 2 {
		t.Errorf("breaker opened %d times, want 2", opens)
	}
}

// TestClientJitterSpreadsBackoff: the sleep is jitter × ceiling, so
// two clients with different draws land on different schedules (no
// thundering herd), and a zero draw sleeps zero.
func TestClientJitterSpreadsBackoff(t *testing.T) {
	h := &scriptedHandler{script: []int{503, 503}}
	ts := httptest.NewServer(h)
	defer ts.Close()

	client := NewClient(ts.URL, ts.Client())
	var slept []time.Duration
	client.sleep = func(d time.Duration) { slept = append(slept, d) }
	client.SetJitter(func() float64 { return 0.5 })
	if _, err := client.Stats(); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{50 * time.Millisecond, 100 * time.Millisecond}
	if len(slept) != len(want) {
		t.Fatalf("sleeps = %v, want %v", slept, want)
	}
	for i := range want {
		if slept[i] != want[i] {
			t.Fatalf("sleeps = %v, want %v (half of each ceiling)", slept, want)
		}
	}
}

// TestClientFirstRetryHonorsCap: RetryBase above RetryCap clamps from
// the first retry on.
func TestClientFirstRetryHonorsCap(t *testing.T) {
	c := NewClient("http://example.invalid", nil)
	c.RetryBase = 5 * time.Second
	c.RetryCap = time.Second
	if got := c.backoff(1); got != time.Second {
		t.Errorf("backoff(1) = %v, want the 1s cap", got)
	}
}
