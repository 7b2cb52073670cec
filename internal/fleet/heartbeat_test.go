package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/pkggraph"
	"repro/internal/server"
)

// referenceHeartbeat is what the master ran before the codec: a
// json.Decoder over the body stream.
func referenceHeartbeat(body []byte) (HeartbeatRequest, error) {
	var req HeartbeatRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	return req, err
}

// decodeHeartbeatBoth decodes body with the codec and the reference and
// requires the same verdict: the same error text, or values equal under
// reflect.DeepEqual (nil and empty lists are different values).
func decodeHeartbeatBoth(t testing.TB, body []byte) (HeartbeatRequest, error) {
	t.Helper()
	want, wantErr := referenceHeartbeat(body)
	got, gotErr := decodeHeartbeat(body, nil)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("body %q:\ndecoder error %v\n json error   %v", body, gotErr, wantErr)
	}
	if gotErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("body %q:\ndecoder %#v\n   json %#v", body, got, want)
	}
	return got, gotErr
}

// encodeHeartbeatBoth requires the body the agent sends for req to be
// json.Marshal's bytes, and returns them.
func encodeHeartbeatBoth(t testing.TB, req HeartbeatRequest) []byte {
	t.Helper()
	want, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("json.Marshal(%#v): %v", req, err)
	}
	got, ok := heartbeatBody(&req).([]byte)
	if !ok {
		// Left to the client's json.Marshal: some string needs an escape.
		return want
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("heartbeat %#v:\nencoder %q\n   json %q", req, got, want)
	}
	return got
}

// omitted is what req reads back as once re-encoded: empty lists are
// omitted like nil ones.
func omitted(req HeartbeatRequest) HeartbeatRequest {
	d := &req.Delta
	if len(d.Upserts) == 0 {
		d.Upserts = nil
	}
	if len(d.Removes) == 0 {
		d.Removes = nil
	}
	for i := range d.Upserts {
		if len(d.Upserts[i].Packages) == 0 {
			d.Upserts[i].Packages = nil
		}
	}
	return req
}

// checkHeartbeatBody is the codec's whole contract on one body, shared
// by the differential test and the fuzzer: (a) the decoder agrees with
// the reference; (b) what it accepts re-encodes to json.Marshal's bytes,
// which read back as the same request.
func checkHeartbeatBody(t testing.TB, body []byte) {
	t.Helper()
	req, err := decodeHeartbeatBoth(t, body)
	if err != nil {
		return
	}
	again, err := decodeHeartbeatBoth(t, encodeHeartbeatBoth(t, req))
	if err != nil {
		t.Fatalf("body %q: accepted as %#v, but its re-encoding is refused: %v", body, req, err)
	}
	if want := omitted(req); !reflect.DeepEqual(again, want) {
		t.Fatalf("body %q: re-encoding reads back as %#v, want %#v", body, again, want)
	}
}

// beatGen draws heartbeats and body damage for the differential test.
type beatGen struct{ rng *rand.Rand }

func (g beatGen) pick(n int) int { return g.rng.Intn(n) }

func (g beatGen) counter() uint64 {
	switch g.pick(5) {
	case 0:
		return 0
	case 1:
		return math.MaxUint64
	default:
		return uint64(g.rng.Int63n(1 << uint(1+g.pick(62))))
	}
}

func (g beatGen) key() string {
	if g.pick(4) > 0 {
		return fmt.Sprintf("pkg-%03d/%d.%d.0/x86_64-centos7-gcc8-opt", g.pick(1000), g.pick(9), g.pick(20))
	}
	pieces := []string{"a", "/", " ", "<", "&", `"`, `\`, "\x00", "\x1f", "\x7f", "é", "\u2028", "\xff", "{", "]", ","}
	var b strings.Builder
	for n := g.pick(4); n > 0; n-- {
		b.WriteString(pieces[g.pick(len(pieces))])
	}
	return b.String()
}

func (g beatGen) heartbeat() HeartbeatRequest {
	req := HeartbeatRequest{ID: fmt.Sprintf("agent-%d", g.pick(4)), Gen: g.counter()}
	if g.pick(8) == 0 {
		req.ID = g.key()
	}
	d := &req.Delta
	d.From, d.To, d.Full = g.counter(), g.counter(), g.pick(2) == 0
	switch n := g.pick(6); n {
	case 0:
	case 1:
		d.Upserts = []DirEntry{}
	default:
		for i := 0; i < n-1; i++ {
			e := DirEntry{ID: g.counter(), Version: g.counter(), Size: int64(g.counter())}
			switch g.pick(5) {
			case 0:
			case 1:
				e.Packages = []string{}
			default:
				for j := g.pick(6); j >= 0; j-- {
					e.Packages = append(e.Packages, g.key())
				}
			}
			d.Upserts = append(d.Upserts, e)
		}
	}
	switch g.pick(4) {
	case 0:
		d.Removes = []uint64{}
	case 1:
		d.Removes = []uint64{g.counter(), g.counter()}
	}
	return req
}

// damage substitutes one to three bytes of body with bytes likely to
// land on another branch of either decoder.
func (g beatGen) damage(body []byte) []byte {
	const alphabet = `0123456789-+.eE"\,:[]{} ` + "\n\x00\x7f\xff" + `fultrenIDd/<&`
	out := append([]byte(nil), body...)
	for n := 1 + g.pick(3); n > 0; n-- {
		b := byte(g.rng.Intn(256))
		if g.pick(8) > 0 {
			b = alphabet[g.pick(len(alphabet))]
		}
		out[g.pick(len(out))] = b
	}
	return out
}

// TestHeartbeatCodecDifferential holds the codec to encoding/json over
// seeded heartbeats and damaged copies of their bodies.
func TestHeartbeatCodecDifferential(t *testing.T) {
	n := 50_000
	if testing.Short() {
		n = 10_000
	}
	g := beatGen{rand.New(rand.NewSource(34))}
	fast := 0
	for i := 0; i < n; i++ {
		body := encodeHeartbeatBoth(t, g.heartbeat())
		if _, ok := scanHeartbeat(body); ok {
			fast++
		}
		checkHeartbeatBody(t, body)
		checkHeartbeatBody(t, g.damage(body))
	}
	if fast < n/4 {
		t.Fatalf("only %d of %d generated heartbeats took the scanner", fast, n)
	}
}

// rejoinFrame is the body an agent sends on rejoining: a Full frame of
// images images of keysPer distinct keys each, drawn from repo.
func rejoinFrame(repo *pkggraph.Repo, images, keysPer int) []byte {
	rng := rand.New(rand.NewSource(1))
	dir := NewDirectory(0)
	for id := 0; id < images; id++ {
		var keys []string
		for _, p := range rng.Perm(repo.Len())[:keysPer] {
			keys = append(keys, repo.Package(pkggraph.PkgID(p)).Key())
		}
		slices.Sort(keys)
		dir.Put(DirEntry{ID: uint64(id), Version: uint64(id % 3), Size: int64(keysPer) << 20, Packages: keys})
	}
	body, _ := heartbeatBody(&HeartbeatRequest{ID: "agent-0", Gen: 2, Delta: dir.Full()}).([]byte)
	return body
}

// FuzzHeartbeat holds the master's heartbeat decoder to the json.Decoder
// it replaced on any body: the same value or the same error, and what it
// accepts re-encodes to json.Marshal's bytes. The corpus under
// testdata/fuzz/FuzzHeartbeat holds a real rejoin frame and the
// canonical shape's edges.
func FuzzHeartbeat(f *testing.F) {
	g := beatGen{rand.New(rand.NewSource(1))}
	for i := 0; i < 8; i++ {
		body, err := json.Marshal(g.heartbeat())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add(rejoinFrame(testRepo(f), 3, 12))
	f.Fuzz(func(t *testing.T, body []byte) {
		checkHeartbeatBody(t, body)
	})
}

// TestHeartbeatReadError: a body that breaks off mid-read is decoded as
// the master's json.Decoder decoded the stream — a first value complete
// before the break is taken, anything else refused with the same text.
func TestHeartbeatReadError(t *testing.T) {
	body := rejoinFrame(testRepo(t), 2, 5)
	broken := errors.New("connection reset")
	for _, n := range []int{0, 1, len(body) / 2, len(body) - 1, len(body)} {
		want, wantErr := func() (HeartbeatRequest, error) {
			var req HeartbeatRequest
			err := json.NewDecoder(io.MultiReader(bytes.NewReader(body[:n]), failingReader{broken})).Decode(&req)
			return req, err
		}()
		got, err := decodeHeartbeat(body[:n], broken)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
			t.Errorf("cut at %d: %v, %v; the stream decoder gave %v", n, err, got.Delta.To, wantErr)
		}
	}
}

// TestMirrorInternsFrameKeys: the mirror keeps the dictionary's string
// for every key, not the frame's view, so mirrors of two agents share
// one string per key and none pins a body.
func TestMirrorInternsFrameKeys(t *testing.T) {
	repo := testRepo(t)
	dict := NewKeyDict()
	var views []string
	var mirrors []*Follower
	for range 2 {
		req, err := decodeHeartbeat(rejoinFrame(repo, 3, 10), nil)
		if err != nil {
			t.Fatal(err)
		}
		f := NewFollower(dict)
		if f.Apply(req.Delta) != DeltaApplied {
			t.Fatal("full frame not applied")
		}
		for _, e := range req.Delta.Upserts {
			views = append(views, e.Packages...)
		}
		mirrors = append(mirrors, f)
	}
	frameKeys := map[*byte]bool{}
	for _, v := range views {
		frameKeys[unsafe.StringData(v)] = true
	}
	for i, f := range mirrors {
		for _, e := range f.Entries() {
			for _, k := range e.Packages {
				p := unsafe.StringData(k)
				if p != unsafe.StringData(dict.keys[dict.ids[k]]) {
					t.Fatalf("mirror %d image %d keeps its own copy of %q", i, e.ID, k)
				}
				if frameKeys[p] {
					t.Fatalf("mirror %d image %d keeps %q as a view into a frame", i, e.ID, k)
				}
			}
		}
	}
}

// TestHeartbeatWireCompatible: a master takes a heartbeat in any shape
// an agent's json.Marshal or a hand-written client sends — the
// canonical frame, the same indented, and one with an escaped key —
// into the same mirror.
func TestHeartbeatWireCompatible(t *testing.T) {
	repo := testRepo(t)
	srv, err := server.New(repo, core.Config{Alpha: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := srv.WarmSpec(context.Background(), specKeys(repo, i, 3), true); err != nil {
			t.Fatal(err)
		}
	}
	ag := NewAgent(AgentConfig{ID: "agent-0"}, srv)
	ag.refreshDirLocked()
	req := HeartbeatRequest{ID: "agent-0", Gen: 1, Delta: ag.dir.Full()}
	if len(req.Delta.Upserts) == 0 {
		t.Fatal("the agent's directory is empty")
	}
	canonical := encodeHeartbeatBoth(t, req)
	indented, err := json.MarshalIndent(req, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	escaped := bytes.Replace(canonical, []byte(`/`), []byte(`\/`), 1)
	var want []DirEntry
	for i, body := range [][]byte{canonical, indented, escaped} {
		m := NewMaster(MasterConfig{})
		h := m.Handler()
		post := func(path string, body []byte) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("body %d: %s: %d %s", i, path, rec.Code, rec.Body)
			}
		}
		post("/fleet/v1/register", []byte(`{"id":"agent-0","url":"http://agent-0","gen":1}`))
		post("/fleet/v1/heartbeat", body)
		mirror, ok := m.Mirror("agent-0")
		if !ok || mirror.To != req.Delta.To || len(mirror.Upserts) != len(req.Delta.Upserts) {
			t.Fatalf("body %d: mirror %v at rev %d, want %d images at rev %d", i, ok, mirror.To, len(req.Delta.Upserts), req.Delta.To)
		}
		if i == 0 {
			want = mirror.Upserts
		} else if !reflect.DeepEqual(mirror.Upserts, want) {
			t.Errorf("body %d mirrors %v, the canonical frame %v", i, mirror.Upserts, want)
		}
	}
}

// BenchmarkHeartbeatDecode is the master's share of a fleet_mixed
// rejoin: a Full frame of 17 images of 1,000 keys each from the default
// repository (~1 MB), read from the body and scanned. make bench-guard
// bounds its allocations.
func BenchmarkHeartbeatDecode(b *testing.B) {
	repo, err := pkggraph.Generate(pkggraph.DefaultGenConfig(), 1)
	if err != nil {
		b.Fatal(err)
	}
	body := rejoinFrame(repo, 17, 1000)
	src := bytes.NewReader(body)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Reset(body)
		req, err := readHeartbeat(src, int64(len(body)))
		if err != nil || len(req.Delta.Upserts) != 17 {
			b.Fatalf("%d upserts, %v", len(req.Delta.Upserts), err)
		}
	}
}
