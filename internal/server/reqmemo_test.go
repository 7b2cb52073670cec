package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/pkggraph"
	"repro/internal/telemetry"
)

// memoRepo is a small repository whose keys make the memo's verification
// work: "a/1/x" is a prefix of "a/1/xy" and of "a/1/x,y", a key holds a
// quote and one a backslash (so a body can name them only escaped), and
// the dependencies make a closed spec differ from its list.
func memoRepo(tb testing.TB) *pkggraph.Repo {
	tb.Helper()
	pkgs := []pkggraph.Package{
		{Name: "a", Version: "1", Platform: "x", Size: 10},
		{Name: "a", Version: "1", Platform: "xy", Size: 20, Deps: []pkggraph.PkgID{0}},
		{Name: "a", Version: "1", Platform: "x,y", Size: 30},
		{Name: "b", Version: "2", Platform: "p", Size: 40, Deps: []pkggraph.PkgID{1}},
		{Name: "c", Version: "3", Platform: "p", Size: 50, Deps: []pkggraph.PkgID{0, 3}},
		{Name: "q", Version: "1", Platform: `x"y`, Size: 60, Deps: []pkggraph.PkgID{2}},
		{Name: "s", Version: "1", Platform: `x\y`, Size: 70},
		{Name: "d", Version: "4", Platform: "p", Size: 80},
	}
	for i := range pkgs {
		pkgs[i].ID = pkggraph.PkgID(i)
	}
	repo, err := pkggraph.New(pkgs)
	if err != nil {
		tb.Fatal(err)
	}
	return repo
}

// memoOutcome is what a decoder makes of a body, in requestSpec's
// order: the refusal's text, or the spec, and the path the body took.
type memoOutcome struct {
	refusal string
	ids     []pkggraph.PkgID
	path    string
}

func (o memoOutcome) String() string {
	if o.refusal != "" {
		return "refused: " + o.refusal
	}
	return fmt.Sprintf("spec %v", o.ids)
}

// decodeSpec puts body to rd as requestSpec does. remember, when set,
// memoises a body that came to a spec as the handler does after a hit.
func decodeSpec(rd *RequestDecoder, repo *pkggraph.Repo, body []byte, remember bool) memoOutcome {
	before := rd.fast.Value()
	dec, err := rd.DecodeBody(bytes.NewReader(body), int64(len(body)), nil, telemetry.SpanNone)
	if err != nil {
		_, msg := DecodeFailure(err)
		return memoOutcome{refusal: msg}
	}
	defer dec.Release()
	path := "reference"
	switch {
	case dec.memo != nil:
		path = "memo"
	case rd.fast.Value() > before:
		path = "fast"
	}
	sp, msg := dec.specFor(repo)
	if msg != "" {
		return memoOutcome{refusal: msg, path: path}
	}
	if remember {
		rd.memo.remember(dec, sp)
	}
	return memoOutcome{ids: slices.Clone(sp.IDs()), path: path}
}

// checkMemoAgrees decodes body through the memo decoder and through a
// decoder without one and fails on any difference in spec or refusal.
// It then remembers the body, as a hit would, and asks again.
func checkMemoAgrees(t testing.TB, memo, plain *RequestDecoder, repo *pkggraph.Repo, body []byte) memoOutcome {
	t.Helper()
	want := decodeSpec(plain, repo, body, false)
	for pass := 0; pass < 2; pass++ {
		got := decodeSpec(memo, repo, body, true)
		if got.refusal != want.refusal || !slices.Equal(got.ids, want.ids) {
			t.Fatalf("pass %d, %s path: memo decoder says %v, decode path says %v\nbody: %q", pass, got.path, got, want, body)
		}
		if pass == 1 {
			return got
		}
	}
	panic("unreachable")
}

// TestRequestMemoDifferential: with the memo warmed on a body, every
// body — one-byte edits, prefixes and extensions of it, whitespace, the
// three close forms, duplicate keys, a key that is a prefix of another,
// unknown and escaped keys — comes to exactly the spec or refusal the
// decode path gives, and a canonical body the memo knows is a memo hit.
func TestRequestMemoDifferential(t *testing.T) {
	for _, repo := range []*pkggraph.Repo{memoRepo(t), decodeRepo(t)} {
		q := func(i int) string { return `"` + repo.Key(pkggraph.PkgID(i)) + `"` }
		list := func(ids ...int) string {
			keys := make([]string, len(ids))
			for i, id := range ids {
				keys[i] = q(id)
			}
			return strings.Join(keys, ",")
		}
		warm := []string{
			`{"packages":[` + list(3, 0) + `],"close":true}`,
			`{"packages":[` + list(3, 0) + `],"close":false}`,
			`{"packages":[` + list(3, 0) + `]}`,
			`{"packages":[` + list(1) + `],"close":true}`,
			`{"packages":[` + list(0, 1, 2) + `]}`,
			`{"packages":[` + list(4, 4, 1) + `],"close":true}`,
		}
		bodies := []string{
			"{ \"packages\":[" + list(3, 0) + "],\"close\":true}",
			`{"packages":[` + list(3, 0) + `],"close":true} `,
			"\n" + `{"packages":[` + list(3, 0) + `]}`,
			`{"packages":[` + list(3, 0) + ` ],"close":false}`,
			`{"packages":[` + list(3, 0) + `], "close":true}`,
			`{"close":true,"packages":[` + list(3, 0) + `]}`,
			`{"packages":[` + list(3, 0, 3) + `],"close":true}`,
			`{"packages":[` + list(0, 3) + `],"close":true}`,
			`{"packages":[` + list(3) + `],"close":true}`,
			`{"packages":[` + list(3, 0, 1) + `],"close":true}`,
			`{"packages":["a/1/x"]}`, `{"packages":["a/1/xy"]}`, `{"packages":["a/1/x,y"]}`,
			`{"packages":["a/1/x","y"]}`, `{"packages":["a/1/x","a/1/xy"]}`,
			`{"packages":["a/1/x\"y"]}`, `{"packages":["q/1/x\"y"],"close":true}`,
			`{"packages":["s/1/x\\y"]}`, `{"packages":["a\/1\/x"],"close":true}`,
			`{"packages":["ghost/1/p"]}`, `{"packages":[` + list(0) + `,"ghost/1/p"],"close":true}`,
			`{"packages":[]}`, `{"packages":[` + list(0) + `],"close":null}`,
		}
		memo := newMemoDecoder(telemetry.NewRegistry(), repo)
		plain := NewRequestDecoder(telemetry.NewRegistry(), RequestBodyLimit(repo))
		for _, w := range warm {
			checkMemoAgrees(t, memo, plain, repo, []byte(w))
			if got := decodeSpec(memo, repo, []byte(w), false); got.path != "memo" {
				t.Fatalf("warm canonical body took the %s path: %q", got.path, w)
			}
		}
		for _, w := range warm {
			bodies = append(bodies, w[:len(w)-1], w+"}", w+" ", w+"x", w+`]}`, strings.Replace(w, `"]`, `" ]`, 1))
			for cut := 0; cut < len(w); cut++ {
				bodies = append(bodies, w[:cut])
			}
			for i := 0; i < len(w); i++ {
				for _, b := range []byte{' ', '"', ',', ']', '}', '\\', 'x', 'y', '0', '1', 0x80, w[i] ^ 1} {
					edit := []byte(w)
					edit[i] = b
					bodies = append(bodies, string(edit))
				}
				bodies = append(bodies, w[:i]+w[i+1:], w[:i]+" "+w[i:], w[:i]+w[i:i+1]+w[i:])
			}
		}
		memoHits := 0
		for _, b := range bodies {
			if checkMemoAgrees(t, memo, plain, repo, []byte(b)).path == "memo" {
				memoHits++
			}
		}
		// Only canonical bodies reach the memo: the warm ones, and edits
		// that are canonical bodies of another spec.
		if memoHits == 0 {
			t.Fatal("no body was answered from the memo on its second pass")
		}
		t.Logf("%d bodies, %d answered from the memo on their second pass", len(bodies), memoHits)
	}
}

// FuzzRequestMemo: warm the memo on one body, then any body must come
// to the decode path's spec or refusal, before and after it is
// remembered too; and a warm body, asked again, must too.
func FuzzRequestMemo(f *testing.F) {
	f.Add([]byte(`{"packages":["b/2/p","a/1/x"],"close":true}`), []byte(`{"packages":["b/2/p","a/1/x"],"close":false}`))
	f.Add([]byte(`{"packages":["b/2/p","a/1/x"]}`), []byte(`{"packages":["b/2/p","a/1/x"],"close":true}`))
	f.Add([]byte(`{"packages":["a/1/x"],"close":true}`), []byte(`{"packages":["a/1/xy"],"close":true}`))
	f.Add([]byte(`{"packages":["a/1/x","a/1/x"]}`), []byte(`{"packages":["a/1/x"]}`))
	f.Add([]byte(`{"packages":["c/3/p"]}`), []byte(`{"packages":["c/3/p"] }`))
	f.Add([]byte(`{"packages":["a/1/x,y"]}`), []byte(`{"packages":["a/1/x","y"]}`))
	f.Add([]byte(`{"packages":["d/4/p"],"close":false}`), []byte(`{"packages":["d\/4\/p"],"close":false}`))
	repo := memoRepo(f)
	plain := NewRequestDecoder(telemetry.NewRegistry(), RequestBodyLimit(repo))
	f.Fuzz(func(t *testing.T, warm, body []byte) {
		memo := newMemoDecoder(telemetry.NewRegistry(), repo)
		checkMemoAgrees(t, memo, plain, repo, warm)
		checkMemoAgrees(t, memo, plain, repo, body)
		checkMemoAgrees(t, memo, plain, repo, warm)
	})
}

// TestRequestMemoConcurrent: handlers look bodies up and remember them
// from many goroutines at once, bodies sharing slots included; every
// answer is still the decode path's. Run it under -race.
func TestRequestMemoConcurrent(t *testing.T) {
	repo := decodeRepo(t)
	plain := NewRequestDecoder(telemetry.NewRegistry(), RequestBodyLimit(repo))
	var bodies [][]byte
	var want []memoOutcome
	for n := 1; n <= 24; n++ {
		for _, closeSpec := range []bool{true, false} {
			body := canonicalBody(repo, n, closeSpec)
			bodies = append(bodies, body)
			want = append(want, decodeSpec(plain, repo, body, false))
		}
	}
	memo := newMemoDecoder(telemetry.NewRegistry(), repo)
	// Fill every slot, so the bodies below replace entries as they go.
	for i := 0; i < memoSlots; i++ {
		decodeSpec(memo, repo, canonicalBody(repo, 25+i%200, i%2 == 0), true)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				k := (i*7 + g) % len(bodies)
				got := decodeSpec(memo, repo, bodies[k], true)
				if got.refusal != want[k].refusal || !slices.Equal(got.ids, want[k].ids) {
					t.Errorf("%s path: %v, want %v\nbody: %q", got.path, got, want[k], bodies[k])
					return
				}
			}
		}()
	}
	wg.Wait()
	if memo.memoHits.Value() == 0 {
		t.Fatal("no body was answered from the memo")
	}
}

// TestRequestMemoServesRepeatedHits: through the handler, a fresh spec
// is not remembered; a hit is, and the same body then takes the memo
// path, counted as path="memo" and named on its decode span; a body that
// differs only in its close flag is not answered from that entry.
func TestRequestMemoServesRepeatedHits(t *testing.T) {
	repo := memoRepo(t)
	srv, err := New(repo, core.Config{Alpha: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	handler := srv.Handler()
	post := func(body string) RequestResponse {
		t.Helper()
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/request", strings.NewReader(body)))
		var res RequestResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil || rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d %s", body, rec.Code, rec.Body)
		}
		return res
	}
	closed := `{"packages":["c/3/p"],"close":true}`
	unclosed := `{"packages":["c/3/p"],"close":false}`
	if res := post(closed); res.Op != "insert" || res.Packages != 4 {
		t.Fatalf("first closed body: %+v, want an insert of 4 packages", res)
	}
	for i := range srv.decoder.memo.slots {
		if srv.decoder.memo.slots[i].Load() != nil {
			t.Fatal("an insert was remembered")
		}
	}
	for i, want := range []string{"fast", "memo", "memo"} {
		before := srv.decoder.memoHits.Value()
		if res := post(closed); res.Op != "hit" || res.Packages != 4 {
			t.Fatalf("repeat %d: %+v, want a hit of 4 packages", i, res)
		}
		if got := srv.decoder.memoHits.Value() - before; (got == 1) != (want == "memo") {
			t.Fatalf("repeat %d: memo hits rose by %d, want the %s path", i, got, want)
		}
	}
	if res := post(unclosed); res.Op != "hit" || res.Packages != 1 {
		t.Fatalf("unclosed body after the closed one was remembered: %+v, want a hit of 1 package", res)
	}
	var text strings.Builder
	srv.Registry().WriteText(&text)
	if line := `landlord_request_decode_total{path="memo"} 2`; !strings.Contains(text.String(), line) {
		t.Fatalf("/metrics lacks %q", line)
	}
	spans := 0
	for _, tr := range srv.TraceRing().Dump(0) {
		for _, sp := range tr.Spans {
			if sp.Stage != telemetry.StageDecode {
				continue
			}
			attrs := map[string]telemetry.Attr{}
			for _, a := range sp.Attrs {
				attrs[a.Key] = a
			}
			if attrs["path"].Str == "memo" {
				if attrs["bytes"].Num != int64(len(closed)) || attrs["keys"].Num != 1 {
					t.Fatalf("memo decode span %+v, want bytes %d keys 1", sp, len(closed))
				}
				spans++
			}
		}
	}
	if spans == 0 {
		t.Fatal("no decode span with path=memo")
	}
}

// BenchmarkRequestMemoHit is a hit's decode once its body is
// remembered: the 325-key ~14 KB body read, hashed and verified against
// the entry, no scan, no key lookup, no spec built. `make bench-guard`
// holds it to 0 allocs/op.
func BenchmarkRequestMemoHit(b *testing.B) {
	repo := decodeRepo(b)
	rd := newMemoDecoder(telemetry.NewRegistry(), repo)
	body := canonicalBody(repo, 325, true)
	if got := decodeSpec(rd, repo, body, true); got.refusal != "" {
		b.Fatal(got.refusal)
	}
	src := bytes.NewReader(body)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Reset(body)
		dec, err := rd.DecodeBody(src, int64(len(body)), nil, telemetry.SpanNone)
		if err != nil {
			b.Fatal(err)
		}
		sp, msg := dec.specFor(repo)
		if msg != "" || dec.memo == nil {
			b.Fatalf("not a memo hit: %q", msg)
		}
		decodeSink += sp.Len()
		dec.Release()
	}
}
