package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/pkggraph"
)

func testRepo(t testing.TB) *pkggraph.Repo {
	t.Helper()
	pkgs := []pkggraph.Package{
		{ID: 0, Name: "base", Version: "1.0", Platform: "p", Tier: pkggraph.TierCore, Size: 100, FileCount: 1},
		{ID: 1, Name: "fw", Version: "1.0", Platform: "p", Tier: pkggraph.TierFramework, Size: 50, FileCount: 1, Deps: []pkggraph.PkgID{0}},
		{ID: 2, Name: "libA", Version: "1.0", Platform: "p", Tier: pkggraph.TierLibrary, Size: 20, FileCount: 1, Deps: []pkggraph.PkgID{1}},
		{ID: 3, Name: "libB", Version: "1.0", Platform: "p", Tier: pkggraph.TierLibrary, Size: 30, FileCount: 1, Deps: []pkggraph.PkgID{1}},
	}
	r, err := pkggraph.New(pkgs)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func testService(t testing.TB, cfg core.Config) (*httptest.Server, *Client) {
	t.Helper()
	repo := testRepo(t)
	srv, err := New(repo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, NewClient(ts.URL, ts.Client())
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(testRepo(t), core.Config{Alpha: 3}); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestHealthz(t *testing.T) {
	_, client := testService(t, core.Config{Alpha: 0.6})
	if err := client.Healthz(); err != nil {
		t.Fatal(err)
	}
}

func TestRequestLifecycle(t *testing.T) {
	_, client := testService(t, core.Config{Alpha: 0.6})

	// Insert with closure: libA -> fw -> base.
	res, err := client.Request([]string{"libA/1.0/p"}, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Op != "insert" || res.Packages != 3 || res.ImageSize != 170 {
		t.Fatalf("insert: %+v", res)
	}

	// Exact repeat hits.
	res, err = client.Request([]string{"libA/1.0/p"}, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Op != "hit" || res.BytesWritten != 0 {
		t.Fatalf("hit: %+v", res)
	}

	// Close sibling request merges (d = 2/4 = 0.5 < 0.6).
	res, err = client.Request([]string{"libB/1.0/p"}, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Op != "merge" || res.ImageSize != 200 {
		t.Fatalf("merge: %+v", res)
	}
	if res.ImageVersion == 0 {
		t.Fatal("merge should bump the image version")
	}
}

func TestRequestWithoutClosure(t *testing.T) {
	_, client := testService(t, core.Config{Alpha: 0})
	res, err := client.Request([]string{"base/1.0/p"}, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Packages != 1 || res.ImageSize != 100 {
		t.Fatalf("unclosed request: %+v", res)
	}
}

func TestRequestErrors(t *testing.T) {
	ts, client := testService(t, core.Config{Alpha: 0.5})

	if _, err := client.Request(nil, true); err == nil {
		t.Error("empty package list accepted")
	}
	if _, err := client.Request([]string{"ghost/1/p"}, true); err == nil {
		t.Error("unknown package accepted")
	}
	// Wrong method.
	resp, err := http.Get(ts.URL + "/v1/request")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/request status = %d", resp.StatusCode)
	}
	// Malformed JSON.
	resp, err = http.Post(ts.URL+"/v1/request", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body status = %d", resp.StatusCode)
	}
}

func TestStatsAndImages(t *testing.T) {
	_, client := testService(t, core.Config{Alpha: 0})
	client.Request([]string{"libA/1.0/p"}, true)
	client.Request([]string{"libB/1.0/p"}, true)

	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != 2 || st.Inserts != 2 || st.Images != 2 {
		t.Fatalf("stats: %+v", st)
	}
	// libA image: base+fw+libA = 170; libB image: base+fw+libB = 180.
	if st.TotalData != 350 || st.UniqueData != 200 {
		t.Fatalf("data accounting: %+v", st)
	}
	if st.CacheEfficiency <= 0 || st.CacheEfficiency > 1 {
		t.Fatalf("cache efficiency: %v", st.CacheEfficiency)
	}

	imgs, err := client.Images()
	if err != nil {
		t.Fatal(err)
	}
	if len(imgs) != 2 {
		t.Fatalf("images: %d", len(imgs))
	}
	for _, img := range imgs {
		if img.Packages != 3 {
			t.Fatalf("image packages = %d", img.Packages)
		}
	}
}

func TestPruneEndpoint(t *testing.T) {
	_, client := testService(t, core.Config{Alpha: 0.9})
	// Build a merged image, then serve a narrow corner of it.
	client.Request([]string{"libA/1.0/p"}, true)
	client.Request([]string{"libB/1.0/p"}, true)      // merged: base+fw+libA+libB = 200
	if _, err := client.Prune(0.9, 100); err != nil { // reset window
		t.Fatal(err)
	}
	client.Request([]string{"base/1.0/p"}, false)
	client.Request([]string{"base/1.0/p"}, false)
	splits, err := client.Prune(0.75, 2) // hot {base}=100 of 200 = 0.5 <= 0.75
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 1 || splits[0].NewSize != 100 {
		t.Fatalf("splits: %+v", splits)
	}
	// Invalid parameters surface as errors.
	if _, err := client.Prune(2.0, 1); err == nil {
		t.Error("bad prune params accepted")
	}
}

// TestPruneBodyBound: a prune body past SmallBodyLimit is refused 413
// and splits nothing, even when it names thresholds that would split.
func TestPruneBodyBound(t *testing.T) {
	ts, client := testService(t, core.Config{Alpha: 0.9})
	client.Request([]string{"libA/1.0/p"}, true)
	client.Request([]string{"libB/1.0/p"}, true)
	if _, err := client.Prune(0.9, 100); err != nil {
		t.Fatal(err)
	}
	client.Request([]string{"base/1.0/p"}, false)
	client.Request([]string{"base/1.0/p"}, false)
	images := func() string {
		t.Helper()
		res, err := http.Get(ts.URL + "/v1/images")
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		b, err := io.ReadAll(res.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	before := images()
	body := `{"max_utilization":0.75,"min_served":2,"pad":"` + strings.Repeat("x", SmallBodyLimit) + `"}`
	res, err := http.Post(ts.URL+"/v1/prune", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("%d-byte prune body: %d, want 413", len(body), res.StatusCode)
	}
	if after := images(); after != before {
		t.Fatalf("oversized prune body changed the images:\n%s\n%s", before, after)
	}
	// The same thresholds under the bound split the merged image.
	if splits, err := client.Prune(0.75, 2); err != nil || len(splits) != 1 {
		t.Fatalf("prune under the bound: %+v, %v", splits, err)
	}
}

func TestConcurrentClients(t *testing.T) {
	_, client := testService(t, core.Config{Alpha: 0.8, MinHash: core.DefaultMinHash()})
	keys := [][]string{
		{"libA/1.0/p"}, {"libB/1.0/p"}, {"fw/1.0/p"}, {"base/1.0/p"},
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if _, err := client.Request(keys[(w+i)%len(keys)], true); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != 64 {
		t.Fatalf("requests = %d, want 64", st.Requests)
	}
}

func TestClientAgainstDeadServer(t *testing.T) {
	client := NewClient("http://127.0.0.1:1", nil)
	client.MaxRetries = 0 // keep the test fast; retry behaviour is covered in client_test.go
	if err := client.Healthz(); err == nil {
		t.Fatal("expected connection error")
	}
}

// TestSnapshotRestoreOverHTTP: /v1/restore takes back what
// /v1/snapshot served, byte for byte — image IDs and versions
// included — and refuses a body it cannot take whole with a 409 that
// leaves /v1/snapshot and /v1/stats as they were. The donor is a live
// cache, or (shards=2) the body a cache split into two shards served
// for the same requests, whose strided IDs one cache takes as they are.
func TestSnapshotRestoreOverHTTP(t *testing.T) {
	const twoShards = `[{"id":0,"packages":["base/1.0/p","fw/1.0/p","libA/1.0/p","libB/1.0/p"],"last_use":2,"merges":1,"version":1},` +
		`{"id":1,"packages":["base/1.0/p","fw/1.0/p","libA/1.0/p"],"last_use":3,"merges":0}]` + "\n"
	cfg := core.Config{Alpha: 0.6}
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			snap := twoShards
			if shards == 1 {
				// libB, then a merge of libA into its image (version 1),
				// which the last request hits; at two shards libA alone
				// landed on shard 1 (ID 1).
				donor, client := testService(t, cfg)
				for _, keys := range [][]string{{"libB/1.0/p"}, {"libA/1.0/p", "libB/1.0/p"}, {"libA/1.0/p"}} {
					if _, err := client.Request(keys, true); err != nil {
						t.Fatal(err)
					}
				}
				snap = httpGet(t, donor.URL+"/v1/snapshot")
			}
			var snaps []core.ImageSnapshot
			if err := json.Unmarshal([]byte(snap), &snaps); err != nil {
				t.Fatal(err)
			}
			if len(snaps) != shards || snaps[0].ID != 0 || snaps[0].Version != 1 {
				t.Fatalf("donor snapshot %s: want %d image(s), the first ID 0 at version 1", snap, shards)
			}

			fresh, freshClient := testService(t, cfg)
			if code := httpPost(t, fresh.URL+"/v1/restore", snap); code != http.StatusOK {
				t.Fatalf("restore status %d", code)
			}
			if got := httpGet(t, fresh.URL+"/v1/snapshot"); got != snap {
				t.Errorf("snapshot after restore:\n got %s\nwant %s", got, snap)
			}
			res, err := freshClient.Request([]string{"libA/1.0/p", "libB/1.0/p"}, true)
			if err != nil {
				t.Fatal(err)
			}
			if res.Op != "hit" || res.ImageID != 0 || res.ImageVersion != 1 {
				t.Errorf("restored service answered %+v, want a hit on image 0 at version 1", res)
			}

			good, err := json.Marshal(snaps[0])
			if err != nil {
				t.Fatal(err)
			}
			refused := []struct {
				name string
				keys []string // requested on the target first
				body string
			}{
				{"over a live cache", []string{"libB/1.0/p"}, snap},
				{"unknown key in the second image", nil,
					`[` + string(good) + `,{"id":1,"packages":["ghost/1.0/p"],"last_use":9}]`},
				{"empty second image", nil, `[` + string(good) + `,{"id":1,"last_use":9}]`},
				{"ID-less images", nil,
					`[{"packages":["base/1.0/p"],"last_use":1},{"packages":["fw/1.0/p"],"last_use":2}]`},
			}
			for _, tc := range refused {
				target, targetClient := testService(t, cfg)
				if tc.keys != nil {
					if _, err := targetClient.Request(tc.keys, true); err != nil {
						t.Fatal(err)
					}
				}
				before := httpGet(t, target.URL+"/v1/snapshot") + httpGet(t, target.URL+"/v1/stats")
				if code := httpPost(t, target.URL+"/v1/restore", tc.body); code != http.StatusConflict {
					t.Errorf("%s: status %d, want 409", tc.name, code)
				}
				if after := httpGet(t, target.URL+"/v1/snapshot") + httpGet(t, target.URL+"/v1/stats"); after != before {
					t.Errorf("%s: refused restore changed the cache:\n before %s\n after  %s", tc.name, before, after)
				}
			}
		})
	}
}

// httpGet returns the body of a 200 GET.
func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, %v", url, resp.StatusCode, err)
	}
	return string(body)
}

// httpPost posts body and returns the status code.
func httpPost(t *testing.T, url, body string) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func TestMetricsEndpoint(t *testing.T) {
	ts, client := testService(t, core.Config{Alpha: 0.6})
	client.Request([]string{"libA/1.0/p"}, true)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf strings.Builder
	if _, err := io.Copy(&buf, resp.Body); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"landlord_requests_total 1",
		"landlord_inserts_total 1",
		"landlord_images 1",
		"# TYPE landlord_cached_bytes gauge",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q in:\n%s", want, out)
		}
	}
}

func TestPruneNow(t *testing.T) {
	repo := testRepo(t)
	srv, err := New(repo, core.Config{Alpha: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := NewClient(ts.URL, ts.Client())
	client.Request([]string{"libA/1.0/p"}, true)
	client.Request([]string{"libB/1.0/p"}, true)
	srv.PruneNow(0.9, 100) // reset window
	client.Request([]string{"base/1.0/p"}, false)
	client.Request([]string{"base/1.0/p"}, false)
	if got := srv.PruneNow(0.75, 2); got != 1 {
		t.Fatalf("PruneNow = %d, want 1", got)
	}
	// Invalid params are a no-op, not a panic.
	if got := srv.PruneNow(5, 1); got != 0 {
		t.Fatalf("invalid PruneNow = %d", got)
	}
}
