package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/pkggraph"
	"repro/internal/telemetry"
)

// decodeRepo is a few hundred packages with keys shaped like the
// paper's (name/version/platform, ~40 bytes), enough for the 325-key
// body the benchmark and the bound test send.
func decodeRepo(tb testing.TB) *pkggraph.Repo {
	tb.Helper()
	cfg := pkggraph.DefaultGenConfig()
	cfg.CoreFamilies = 4
	cfg.FrameworkFamilies = 16
	cfg.LibraryFamilies = 40
	cfg.ApplicationFamilies = 60
	cfg.VersionsPerFamily = 3
	repo, err := pkggraph.Generate(cfg, 15)
	if err != nil {
		tb.Fatal(err)
	}
	return repo
}

// canonicalBody is the body the benchmark's generator and Client send
// for the first n packages of repo.
func canonicalBody(repo *pkggraph.Repo, n int, closeSpec bool) []byte {
	body := []byte(`{"packages":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			body = append(body, ',')
		}
		body = strconv.AppendQuote(body, repo.Package(pkggraph.PkgID(i)).Key())
	}
	return append(body, `],"close":`+strconv.FormatBool(closeSpec)+`}`...)
}

// decodeOutcome is what a body comes to: the refusal's text, or the
// resolved ids in body order and the close flag.
type decodeOutcome struct {
	refusal string
	ids     []pkggraph.PkgID
	close   bool
}

func (o decodeOutcome) String() string {
	if o.refusal != "" {
		return "refused: " + o.refusal
	}
	return fmt.Sprintf("ids=%v close=%v", o.ids, o.close)
}

func (o decodeOutcome) equal(p decodeOutcome) bool {
	return o.refusal == p.refusal && o.close == p.close && slices.Equal(o.ids, p.ids)
}

// referenceOutcome is the handler's decode before the scanner existed:
// encoding/json straight off the stream, then Lookup key by key.
func referenceOutcome(repo *pkggraph.Repo, data []byte) decodeOutcome {
	var body RequestBody
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&body); err != nil {
		return decodeOutcome{refusal: "decoding request: " + err.Error()}
	}
	if len(body.Packages) == 0 {
		return decodeOutcome{refusal: "no packages in specification"}
	}
	out := decodeOutcome{close: body.Close}
	for _, key := range body.Packages {
		id, ok := repo.Lookup(key)
		if !ok {
			return decodeOutcome{refusal: fmt.Sprintf("unknown package %q", key)}
		}
		out.ids = append(out.ids, id)
	}
	return out
}

// decoderOutcome is the same question put to the decoder, in the order
// requestSpec asks it.
func decoderOutcome(rd *RequestDecoder, repo *pkggraph.Repo, data []byte) (decodeOutcome, bool) {
	before := rd.fast.Value()
	dec, err := rd.DecodeBody(bytes.NewReader(data), int64(len(data)), nil, telemetry.SpanNone)
	fast := rd.fast.Value() > before
	if err != nil {
		_, msg := DecodeFailure(err)
		return decodeOutcome{refusal: msg}, fast
	}
	defer dec.Release()
	if len(dec.Keys) == 0 {
		return decodeOutcome{refusal: "no packages in specification"}, fast
	}
	ids, unknown := dec.Resolve(repo)
	if unknown != nil {
		return decodeOutcome{refusal: fmt.Sprintf("unknown package %q", unknown)}, fast
	}
	return decodeOutcome{ids: slices.Clone(ids), close: dec.Close}, fast
}

// TestRequestDecodeDifferential holds scanner + fallback to plain
// encoding/json + Lookup on every body shape the wire can carry:
// accept or reject, ids in order, close, and the exact refusal text —
// at the decoder and again through the handler.
func TestRequestDecodeDifferential(t *testing.T) {
	repo := decodeRepo(t)
	k := func(i int) string { return repo.Package(pkggraph.PkgID(i)).Key() }
	q := func(i int) string { return strconv.Quote(k(i)) }
	esc := func(i int) string { return strings.ReplaceAll(q(i), "/", `\/`) }
	canonical := string(canonicalBody(repo, 6, true))

	type body struct {
		name string
		data string
		// fast is whether the scanner must take this body; every other
		// body must reach the reference.
		fast bool
	}
	bodies := []body{
		{"canonical", canonical, true},
		{"canonical close false", string(canonicalBody(repo, 3, false)), true},
		{"close omitted", `{"packages":[` + q(0) + `,` + q(1) + `]}`, true},
		{"one key", `{"packages":[` + q(7) + `],"close":true}`, true},
		{"whitespace everywhere", " \n{\t\"packages\" :\r\n [ " + q(0) + " ,\n\t" + q(1) + " ] , \"close\" : true }\n", true},
		{"duplicate keys", `{"packages":[` + q(2) + `,` + q(2) + `,` + q(1) + `],"close":false}`, true},
		{"unknown key first", `{"packages":["ghost/1/p",` + q(1) + `]}`, true},
		{"unknown key last", `{"packages":[` + q(1) + `,"ghost/1/p"]}`, true},
		{"two unknown keys", `{"packages":["ghost/1/p",` + q(1) + `,"ghoul/2/p"]}`, true},
		{"empty key", `{"packages":[""]}`, true},
		{"DEL in key", "{\"packages\":[\"a\x7fb\"]}", true},

		{"close first", `{"close":true,"packages":[` + q(0) + `]}`, false},
		{"extra field", `{"packages":[` + q(0) + `],"close":true,"priority":3}`, false},
		{"extra field first", `{"user":"x","packages":[` + q(0) + `]}`, false},
		{"duplicate packages field", `{"packages":[` + q(0) + `],"packages":[` + q(1) + `,` + q(2) + `]}`, false},
		{"duplicate close field", `{"packages":[` + q(0) + `],"close":true,"close":false}`, false},
		{"Packages case", `{"Packages":[` + q(0) + `],"CLOSE":true}`, false},
		{"escaped slash", `{"packages":[` + esc(0) + `,` + esc(1) + `],"close":true}`, false},
		{"unicode escape", `{"packages":["` + strings.Replace(k(0), "-", `\u002d`, 1) + `"]}`, false},
		{"surrogate pair", `{"packages":["\ud83d\ude00"]}`, false},
		{"lone surrogate", `{"packages":["\ud83d"]}`, false},
		{"escaped quote", `{"packages":["a\"b"]}`, false},
		{"raw UTF-8", `{"packages":["naïve/1/p"]}`, false},
		{"invalid UTF-8", "{\"packages\":[\"a\xffb\"]}", false},
		{"control byte in key", "{\"packages\":[\"a\x01b\"]}", false},
		{"tab in key", "{\"packages\":[\"a\tb\"]}", false},
		{"close null", `{"packages":[` + q(0) + `],"close":null}`, false},
		{"close number", `{"packages":[` + q(0) + `],"close":1}`, false},
		{"close string", `{"packages":[` + q(0) + `],"close":"true"}`, false},
		{"packages null", `{"packages":null}`, false},
		{"empty array", `{"packages":[]}`, false},
		{"empty array close", `{"packages":[],"close":true}`, false},
		{"null element", `{"packages":[` + q(0) + `,null]}`, false},
		{"number element", `{"packages":[` + q(0) + `,7]}`, false},
		{"nested array", `{"packages":[[` + q(0) + `]]}`, false},
		{"packages string", `{"packages":` + q(0) + `}`, false},
		{"trailing comma", `{"packages":[` + q(0) + `,]}`, false},
		{"missing comma", `{"packages":[` + q(0) + ` ` + q(1) + `]}`, false},
		{"trailing bytes", canonical + `xyz`, false},
		{"trailing value", canonical + ` {"packages":["ghost/1/p"]}`, false},
		{"truex", `{"packages":[` + q(0) + `],"close":truex}`, false},
		{"top-level array", `[` + q(0) + `]`, false},
		{"top-level null", `null`, false},
		{"empty object", `{}`, false},
		{"empty body", ``, false},
		{"whitespace only", " \n", false},
		{"BOM", "\xef\xbb\xbf" + canonical, false},
		{"form feed between tokens", "{\f\"packages\":[" + q(0) + "]}", false},
	}
	for off := 0; off < len(canonical); off++ {
		bodies = append(bodies, body{fmt.Sprintf("truncated at %d", off), canonical[:off], false})
	}

	srv, err := New(repo, core.Config{Alpha: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	handler := srv.Handler()
	for _, b := range bodies {
		want := referenceOutcome(repo, []byte(b.data))
		got, fast := decoderOutcome(srv.decoder, repo, []byte(b.data))
		if !got.equal(want) {
			t.Errorf("%s: decoder says %v, encoding/json + Lookup says %v\nbody: %q", b.name, got, want, b.data)
		}
		if fast != b.fast {
			t.Errorf("%s: scanner took the body = %v, want %v\nbody: %q", b.name, fast, b.fast, b.data)
		}

		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/request", strings.NewReader(b.data)))
		if want.refusal == "" {
			var res RequestResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil || rec.Code != http.StatusOK {
				t.Errorf("%s: handler answered %d %s, want 200", b.name, rec.Code, rec.Body)
			}
			continue
		}
		var eb errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
			t.Errorf("%s: handler's refusal is not the uniform error body: %s", b.name, rec.Body)
		}
		if rec.Code != http.StatusBadRequest || eb.Error != want.refusal {
			t.Errorf("%s: handler refused with %d %q, want 400 %q", b.name, rec.Code, eb.Error, want.refusal)
		}
	}
	if st := srv.StatsNow(); st.Requests == 0 {
		t.Error("no table body was served")
	}
}

// byteLoopScan is scan as it was before skipPlain: the same grammar
// with the key bytes classified one at a time. It is the word scanner's
// reference.
func byteLoopScan(buf []byte) (keys [][]byte, closeSpec, ok bool) {
	c := cursor{buf: buf}
	if !(c.token(`{`) && c.token(`"packages"`) && c.token(`:`) && c.token(`[`)) {
		return nil, false, false
	}
	for more := true; more; more = c.token(`,`) {
		if !c.token(`"`) {
			return nil, false, false
		}
		i := c.i
		for i < len(buf) && buf[i] != '"' {
			if b := buf[i]; b < 0x20 || b >= 0x80 || b == '\\' {
				return nil, false, false
			}
			i++
		}
		if i == len(buf) {
			return nil, false, false
		}
		keys = append(keys, buf[c.i:i])
		c.i = i + 1
	}
	if !c.token(`]`) {
		return nil, false, false
	}
	if c.token(`,`) {
		if !(c.token(`"close"`) && c.token(`:`)) {
			return nil, false, false
		}
		if closeSpec = c.token(`true`); !closeSpec && !c.token(`false`) {
			return nil, false, false
		}
	}
	if !c.token(`}`) || c.skipSpace() != len(buf) {
		return nil, false, false
	}
	return keys, closeSpec, true
}

// byteLoopSkip is skipPlain one byte at a time.
func byteLoopSkip(buf []byte, i int) int {
	for i < len(buf) && buf[i] != '"' && buf[i] != '\\' && buf[i] >= 0x20 && buf[i] < 0x80 {
		i++
	}
	return i
}

// TestScanMatchesByteLoop holds the word-at-a-time scanner to the byte
// loop it replaced: every special-byte class (and the plain bytes that
// border them) at every offset 0–15 of keys 0–24 bytes long, behind
// prefixes that move the key across load boundaries, in bodies cut at
// every length — so a special byte also sits in the final < 8 bytes.
// skipPlain itself is compared from every offset of seeded random bytes.
func TestScanMatchesByteLoop(t *testing.T) {
	classes := []byte{'"', '\\', 0x00, 0x01, 0x1f, 0x80, 0x9f, 0xa0, 0xdc, 0xe2, 0xff, 0x20, 0x21, 0x23, 0x5b, 0x5d, 0x7f}
	compared := 0
	check := func(body []byte) {
		t.Helper()
		d := DecodedRequest{buf: body}
		ok := d.scan()
		wantKeys, wantClose, wantOK := byteLoopScan(body)
		if ok != wantOK || (ok && (d.Close != wantClose || !slices.EqualFunc(d.Keys, wantKeys, bytes.Equal))) {
			t.Fatalf("scan(%q) = %v %q close=%v; byte loop = %v %q close=%v",
				body, ok, d.Keys, d.Close, wantOK, wantKeys, wantClose)
		}
		compared++
	}
	for _, special := range classes {
		for n := 0; n <= 24; n++ {
			for off := 0; off < 16; off++ {
				if off >= n && off > 0 {
					break // offset 0 of the empty key is the closing quote
				}
				key := []byte(strings.Repeat("abcdefgh/1.0-x", 2)[:n])
				if off < n {
					key[off] = special
				}
				for pad := 0; pad < 8; pad++ {
					body := []byte(`{"packages":["` + strings.Repeat("p", pad) + `","`)
					body = append(append(body, key...), `"],"close":true}`...)
					for cut := len(body) - 24; cut <= len(body); cut++ {
						check(body[:max(cut, 0)])
					}
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 2000; n++ {
		buf := make([]byte, rng.Intn(40))
		for i := range buf {
			if rng.Intn(6) == 0 {
				buf[i] = classes[rng.Intn(len(classes))]
			} else {
				buf[i] = byte(0x20 + rng.Intn(0x60))
			}
		}
		for i := 0; i <= len(buf); i++ {
			if got, want := skipPlain(buf, i), byteLoopSkip(buf, i); got != want {
				t.Fatalf("skipPlain(%q, %d) = %d, byte loop %d", buf, i, got, want)
			}
		}
	}
	t.Logf("%d bodies compared", compared)
}

// TestRequestDecodeReadError: a body that breaks off mid-read reaches
// the reference decoder as the bytes read so far followed by the read
// error, which is what decoding straight off the connection saw.
func TestRequestDecodeReadError(t *testing.T) {
	repo := decodeRepo(t)
	rd := NewRequestDecoder(telemetry.NewRegistry(), RequestBodyLimit(repo))
	body := canonicalBody(repo, 4, true)
	broken := fmt.Errorf("connection reset by test")
	for _, cut := range []int{0, 20, len(body) - 1, len(body)} {
		src := func() *bytes.Reader { return bytes.NewReader(body[:cut]) }
		var want RequestBody
		wantErr := json.NewDecoder(failAfter(src(), broken)).Decode(&want)
		dec, err := rd.DecodeBody(failAfter(src(), broken), int64(len(body)), nil, telemetry.SpanNone)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("cut at %d: decoder error %v, encoding/json off the stream %v", cut, err, wantErr)
		}
		if err == nil {
			if len(dec.Keys) != len(want.Packages) || dec.Close != want.Close {
				t.Fatalf("cut at %d: decoded %d keys close=%v, want %d close=%v",
					cut, len(dec.Keys), dec.Close, len(want.Packages), want.Close)
			}
			dec.Release()
		}
	}
}

func failAfter(r *bytes.Reader, err error) *failingBody { return &failingBody{r: r, err: err} }

// failingBody yields r's bytes, then err in place of io.EOF.
type failingBody struct {
	r   *bytes.Reader
	err error
}

func (f *failingBody) Read(p []byte) (int, error) {
	if f.r.Len() == 0 {
		return 0, f.err
	}
	return f.r.Read(p)
}

// TestRequestBodyBound: a body of limit-1 bytes is served, one of
// limit+1 bytes is refused with 413 and the uniform error body, and the
// refusal touches neither the cache nor the decode counter.
func TestRequestBodyBound(t *testing.T) {
	repo := decodeRepo(t)
	srv, err := New(repo, core.Config{Alpha: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	limit := int(RequestBodyLimit(repo))
	if whole := len(canonicalBody(repo, repo.Len(), true)); limit < whole || limit > 2*whole+64 {
		t.Fatalf("limit %d for a repository whose whole-repo body is %d bytes", limit, whole)
	}
	padded := func(n int) []byte {
		body := canonicalBody(repo, 5, false)
		return append(body, bytes.Repeat([]byte{' '}, n-len(body))...)
	}
	post := func(body []byte) (int, string) {
		resp, err := http.Post(ts.URL+"/v1/request", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var eb errorBody
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
			t.Fatalf("status %d with an undecodable body: %v", resp.StatusCode, err)
		}
		return resp.StatusCode, eb.Error
	}

	if code, msg := post(padded(limit - 1)); code != http.StatusOK {
		t.Fatalf("body of limit-1 = %d bytes: status %d %q, want 200", limit-1, code, msg)
	}
	before, decoded := srv.StatsNow(), srv.decoder.fast.Value()+srv.decoder.reference.Value()
	code, msg := post(padded(limit + 1))
	if want := fmt.Sprintf("request body exceeds %d bytes", limit); code != http.StatusRequestEntityTooLarge || msg != want {
		t.Fatalf("body of limit+1 = %d bytes: status %d %q, want 413 %q", limit+1, code, msg, want)
	}
	if after := srv.StatsNow(); after != before {
		t.Fatalf("refused body changed the cache: %+v -> %+v", before, after)
	}
	if got := srv.decoder.fast.Value() + srv.decoder.reference.Value(); got != decoded {
		t.Fatalf("refused body was decoded: counter %d -> %d", decoded, got)
	}
}

// TestRequestDecodeObservable: the decode span carries bytes, keys and
// the path taken, and landlord_request_decode_total counts each path.
func TestRequestDecodeObservable(t *testing.T) {
	repo := decodeRepo(t)
	srv, err := New(repo, core.Config{Alpha: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	canonical := canonicalBody(repo, 3, true)
	reordered := []byte(`{"close":true,"packages":[` + strconv.Quote(repo.Package(0).Key()) + `]}`)
	for _, body := range [][]byte{canonical, reordered} {
		resp, err := http.Post(ts.URL+"/v1/request", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d for %s", resp.StatusCode, body)
		}
	}
	want := map[string][2]int64{"fast": {int64(len(canonical)), 3}, "reference": {int64(len(reordered)), 1}}
	for _, tr := range srv.TraceRing().Dump(0) {
		for _, sp := range tr.Spans {
			if sp.Stage != telemetry.StageDecode {
				continue
			}
			attrs := map[string]telemetry.Attr{}
			for _, a := range sp.Attrs {
				attrs[a.Key] = a
			}
			path := attrs["path"].Str
			if w, ok := want[path]; !ok || attrs["bytes"].Num != w[0] || attrs["keys"].Num != w[1] || sp.Parent != 0 {
				t.Fatalf("decode span %+v, want one of %v under the root", sp, want)
			}
			delete(want, path)
		}
	}
	if len(want) != 0 {
		t.Fatalf("no decode span for path(s) %v", want)
	}
	var text strings.Builder
	srv.Registry().WriteText(&text)
	for _, line := range []string{
		`landlord_request_decode_total{path="fast"} 1`,
		`landlord_request_decode_total{path="reference"} 1`,
	} {
		if !strings.Contains(text.String(), line) {
			t.Fatalf("/metrics lacks %q", line)
		}
	}
}

var decodeSink int

// BenchmarkRequestDecode is the agent's share of a hit: a 325-key
// ~14 KB canonical body read, scanned and resolved to package ids —
// ~11 µs on a quiet 2-core sandbox, where the byte-at-a-time scan took
// 23–31 µs (results/bench_25/micro.txt). `make bench-guard` holds it to
// 0 allocs/op.
func BenchmarkRequestDecode(b *testing.B) {
	repo := decodeRepo(b)
	rd := NewRequestDecoder(telemetry.NewRegistry(), RequestBodyLimit(repo))
	body := canonicalBody(repo, 325, false)
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
		ids, unknown := dec.Resolve(repo)
		if unknown != nil {
			b.Fatalf("unknown package %q", unknown)
		}
		decodeSink += len(ids)
		dec.Release()
	}
}
