package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/pkggraph"
	"repro/internal/spec"
	"repro/internal/telemetry"
)

// mustSpec resolves a package key to its dependency-closed spec.
func mustSpec(t *testing.T, repo *pkggraph.Repo, key string) spec.Spec {
	t.Helper()
	id, ok := repo.Lookup(key)
	if !ok {
		t.Fatalf("unknown package %q", key)
	}
	return spec.WithClosure(repo, []pkggraph.PkgID{id})
}

// scrape fetches /metrics and parses it as a Prometheus scraper would,
// so every assertion doubles as exposition-format validation.
func scrape(t *testing.T, ts string) *telemetry.Scrape {
	t.Helper()
	resp, err := http.Get(ts + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4" {
		t.Fatalf("content type %q", ct)
	}
	sc, err := telemetry.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("/metrics output did not parse: %v", err)
	}
	return sc
}

func TestMetricsExpositionRoundTrip(t *testing.T) {
	ts, client := testService(t, core.Config{Alpha: 0.6})
	if _, err := client.Request([]string{"libA/1.0/p"}, true); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Request([]string{"libA/1.0/p"}, true); err != nil {
		t.Fatal(err)
	}

	sc := scrape(t, ts.URL)
	for name, want := range map[string]float64{
		"landlord_requests_total": 2,
		"landlord_hits_total":     1,
		"landlord_inserts_total":  1,
		"landlord_images":         1,
		"landlord_cached_bytes":   170,
		"landlord_unique_bytes":   170,
	} {
		if v, ok := sc.Value(name); !ok || v != want {
			t.Errorf("%s = %v (present=%v), want %v", name, v, ok, want)
		}
	}
	if v, ok := sc.Value("landlord_cache_efficiency"); !ok || v != 1 {
		t.Errorf("cache efficiency = %v (present=%v)", v, ok)
	}

	// Request-latency histograms, labelled by operation.
	if v, ok := sc.Value("landlord_request_duration_seconds_count",
		telemetry.Label{Key: "op", Value: "insert"}); !ok || v != 1 {
		t.Errorf("insert latency count = %v (present=%v)", v, ok)
	}
	if v, ok := sc.Value("landlord_request_duration_seconds_count",
		telemetry.Label{Key: "op", Value: "hit"}); !ok || v != 1 {
		t.Errorf("hit latency count = %v (present=%v)", v, ok)
	}
	if sc.Types["landlord_request_duration_seconds"] != "histogram" {
		t.Errorf("latency metric type = %q", sc.Types["landlord_request_duration_seconds"])
	}

	// Per-route HTTP middleware counters: two POSTs to /v1/request.
	if v, ok := sc.Value("landlord_http_requests_total",
		telemetry.Label{Key: "route", Value: "/v1/request"},
		telemetry.Label{Key: "code", Value: "2xx"}); !ok || v != 2 {
		t.Errorf("http 2xx on /v1/request = %v (present=%v)", v, ok)
	}
	if v, ok := sc.Value("landlord_http_request_duration_seconds_count",
		telemetry.Label{Key: "route", Value: "/v1/request"}); !ok || v != 2 {
		t.Errorf("http latency count on /v1/request = %v (present=%v)", v, ok)
	}
}

func TestMetricsCountsErrorStatusClasses(t *testing.T) {
	ts, client := testService(t, core.Config{Alpha: 0.6})
	// A bad request: unknown package.
	if _, err := client.Request([]string{"no-such-pkg/0/p"}, true); err == nil {
		t.Fatal("unknown package accepted")
	}
	sc := scrape(t, ts.URL)
	if v, ok := sc.Value("landlord_http_requests_total",
		telemetry.Label{Key: "route", Value: "/v1/request"},
		telemetry.Label{Key: "code", Value: "4xx"}); !ok || v != 1 {
		t.Errorf("http 4xx on /v1/request = %v (present=%v)", v, ok)
	}
}

func TestEventsEndpoint(t *testing.T) {
	ts, client := testService(t, core.Config{Alpha: 0.6})
	specs := [][]string{{"libA/1.0/p"}, {"libA/1.0/p"}, {"libB/1.0/p"}}
	for _, s := range specs {
		if _, err := client.Request(s, true); err != nil {
			t.Fatal(err)
		}
	}

	events, err := client.Events(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3", len(events))
	}
	wantOps := []string{"insert", "hit", "merge"}
	for i, ev := range events {
		if ev.Op != wantOps[i] {
			t.Errorf("event %d op = %q, want %q", i, ev.Op, wantOps[i])
		}
		if ev.Seq != uint64(i+1) {
			t.Errorf("event %d seq = %d", i, ev.Seq)
		}
	}
	if len(events[2].Candidates) == 0 {
		t.Errorf("merge event carries no candidates: %+v", events[2])
	}

	// ?limit= keeps only the most recent events.
	events, err = client.Events(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[0].Op != "hit" || events[1].Op != "merge" {
		t.Fatalf("limit=2 returned %+v", events)
	}

	// limit=0 explicitly returns an empty (but valid JSON) list.
	resp, err := http.Get(ts.URL + "/v1/events?limit=0")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var empty []telemetry.Event
	if err := json.Unmarshal(body, &empty); err != nil || len(empty) != 0 {
		t.Fatalf("limit=0 body %q (err %v)", body, err)
	}

	// Bad limits are rejected.
	for _, q := range []string{"-1", "x"} {
		resp, err := http.Get(ts.URL + "/v1/events?limit=" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("limit=%s -> status %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestEventsMergeSchema reads /v1/events the strict way: every field
// the server sends is one telemetry.Event knows, and a merge carries its
// scan detail — candidates with their exact distances — and the cache's
// occupancy after it, all read back from the request's spans.
func TestEventsMergeSchema(t *testing.T) {
	ts, client := testService(t, core.Config{Alpha: 0.6})
	for _, keys := range [][]string{{"libA/1.0/p"}, {"libB/1.0/p"}} {
		if _, err := client.Request(keys, true); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/events?outcome=merge")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	dec.DisallowUnknownFields()
	var events []telemetry.Event
	if err := dec.Decode(&events); err != nil {
		t.Fatalf("/v1/events does not decode strictly: %v", err)
	}
	if len(events) != 1 {
		t.Fatalf("got %d merge events, want 1", len(events))
	}
	ev := events[0]
	if len(ev.Candidates) != 1 || ev.Candidates[0].ImageID != ev.ImageID {
		t.Fatalf("merge candidates %+v, want the merged image %d", ev.Candidates, ev.ImageID)
	}
	if d := ev.Candidates[0].Distance; d <= 0 || d >= 0.6 {
		t.Fatalf("candidate distance %v, want within (0, alpha)", d)
	}
	if ev.SupersetScanned != 1 || ev.Images != 1 || ev.CachedBytes != ev.ImageSize || ev.TraceID == 0 {
		t.Fatalf("merge event lost its scan count, occupancy or trace: %+v", ev)
	}
}

// TestRequestLatencyCoversLockWait pins the interval the request
// histogram observes: the whole cache call. A merge that queued behind a
// held lock reports at least its trace's lock_wait_write span, in
// /v1/events and in landlord_request_duration_seconds alike.
func TestRequestLatencyCoversLockWait(t *testing.T) {
	srv, client, base := testServiceWithServer(t, core.Config{Alpha: 0.6})
	if _, err := client.Request([]string{"libA/1.0/p"}, true); err != nil {
		t.Fatal(err)
	}

	// Hold the cache's read lock: the merge scans beside it, then
	// queues for the write lock until the hold ends.
	release := make(chan struct{})
	held := make(chan struct{})
	go srv.cmgr.WithShared(func(*core.Manager) {
		close(held)
		<-release
	})
	<-held
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(release)
	}()
	resp, err := http.Post(base+"/v1/request", "application/json",
		strings.NewReader(`{"packages":["libB/1.0/p"],"close":true}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	id, _, ok := telemetry.ParseTraceHeader(resp.Header.Get(telemetry.TraceHeaderName))
	if !ok {
		t.Fatalf("no trace header on the merge")
	}
	tr, ok := srv.TraceRing().Get(id)
	if !ok || tr.Outcome != "merge" {
		t.Fatalf("merge trace %s not retained (outcome %q)", id, tr.Outcome)
	}
	var wait int64
	for _, sp := range tr.Spans {
		if sp.Stage == telemetry.StageLockWaitWrite {
			wait = sp.Duration()
		}
	}
	if wait < int64(time.Millisecond) {
		t.Fatalf("lock_wait_write %v: the merge did not queue behind the held lock", time.Duration(wait))
	}

	events, err := client.Events(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].TraceID != id || events[0].DurationNanos < wait {
		t.Fatalf("merge event %+v, want trace %s lasting at least the %v lock wait", events, id, time.Duration(wait))
	}
	sc := scrape(t, base)
	sum, ok := sc.Value("landlord_request_duration_seconds_sum", telemetry.Label{Key: "op", Value: "merge"})
	if !ok || sum < time.Duration(wait).Seconds() {
		t.Fatalf("merge latency sum %vs (present=%v), want at least the %v lock wait", sum, ok, time.Duration(wait))
	}
}
