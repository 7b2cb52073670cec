package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/pkggraph"
	"repro/internal/server"
	"repro/internal/telemetry"
)

func context5s(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// FuzzRequestDecode holds the shared /v1/request decoder to what both
// handlers did before it existed — encoding/json straight off the
// stream — on any byte string: same verdict, same error text, same
// keys in order, same close; every key resolves the same through
// Lookup and LookupBytes; and the master's route key over the key views
// is RouteKey over the strings, so the ring places the request where it
// always did. subset picks which of the test repository's keys the
// master's dictionary has seen (bit i%64 for package i), so the route
// key meets every mix of stored and streamed terms.
func FuzzRequestDecode(f *testing.F) {
	repo := testRepo(f)
	k0 := strconv.Quote(repo.Package(0).Key())
	k1 := strconv.Quote(repo.Package(1).Key())
	for i, body := range []string{
		`{"packages":[` + k0 + `,` + k1 + `],"close":true}`,
		`{"packages":[` + k1 + `,` + k0 + `,` + k1 + `]}`,
		" {\n\t\"packages\" : [ " + k0 + " , \"ghost/1/p\" ] , \"close\" : false }\r\n",
		`{"close":true,"packages":[` + k0 + `]}`,
		`{"packages":[` + strings.ReplaceAll(k0, "/", `\/`) + `],"close":true}`,
		`{"Packages":["a😀","\ud83d"],"close":null}`,
		"{\"packages\":[\"a\xffb\",\"c\x01d\",\"e\x7ff\"]}",
		`{"packages":[],"close":true}`,
		`{"packages":[` + k0 + `,null,7]} trailing`,
		`{"packages":[` + k0,
		``,
	} {
		f.Add([]byte(body), []uint64{0, ^uint64(0), 0x5555555555555555}[i%3])
	}
	rd := server.NewRequestDecoder(telemetry.NewRegistry(), server.DefaultRequestBodyLimit)
	f.Fuzz(func(t *testing.T, data []byte, subset uint64) {
		var want server.RequestBody
		wantErr := json.NewDecoder(bytes.NewReader(data)).Decode(&want)
		dec, err := rd.DecodeBody(bytes.NewReader(data), int64(len(data)), nil, telemetry.SpanNone)
		if wantErr != nil {
			if err == nil {
				dec.Release()
				t.Fatalf("decoder accepted %q, encoding/json refuses it: %v", data, wantErr)
			}
			if _, msg := server.DecodeFailure(err); msg != "decoding request: "+wantErr.Error() {
				t.Fatalf("refusal text %q, want %q", msg, "decoding request: "+wantErr.Error())
			}
			return
		}
		if err != nil {
			t.Fatalf("decoder refused %q (%v), encoding/json accepts it", data, err)
		}
		defer dec.Release()
		if dec.Close != want.Close || len(dec.Keys) != len(want.Packages) {
			t.Fatalf("decoded %d keys close=%v from %q, want %d close=%v",
				len(dec.Keys), dec.Close, data, len(want.Packages), want.Close)
		}
		if !bytes.Equal(dec.Body(), data) {
			t.Fatalf("Body() = %q, the client sent %q", dec.Body(), data)
		}
		for i, key := range dec.Keys {
			if string(key) != want.Packages[i] {
				t.Fatalf("key %d = %q, want %q", i, key, want.Packages[i])
			}
			id, ok := repo.LookupBytes(key)
			if wantID, wantOK := repo.Lookup(want.Packages[i]); id != wantID || ok != wantOK {
				t.Fatalf("LookupBytes(%q) = %d,%v; Lookup = %d,%v", key, id, ok, wantID, wantOK)
			}
		}
		dict := NewKeyDict()
		var seen []string
		for i := 0; i < repo.Len(); i++ {
			if subset>>(i%64)&1 != 0 {
				seen = append(seen, repo.Package(pkggraph.PkgID(i)).Key())
			}
		}
		for len(seen) > 0 { // a few gossiped images' worth
			n := min(len(seen), 7)
			dict.bitsOf(seen[:n], nil)
			seen = seen[n:]
		}
		if got, want := routeKeyOf(dict, dec.Keys), RouteKey(want.Packages); got != want {
			t.Fatalf("dictionary route key = %x, RouteKey = %x for %q (subset %x)", got, want, data, subset)
		}
	})
}

// TestFleetForwardsBodyAsReceived: the master relays the client's bytes
// untouched, so a body only the reference decoder takes — escaped keys,
// close first, a field nobody knows — is served exactly as the agent
// would have served it directly, and a canonical one likewise.
func TestFleetForwardsBodyAsReceived(t *testing.T) {
	f := newTestFleet(t, 2, MasterConfig{SuspectAfter: -1})
	f.beatAll()
	keys := specKeys(f.repo, 3, 4)
	quoted := make([]string, len(keys))
	for i, k := range keys {
		quoted[i] = strconv.Quote(k)
	}
	list := strings.Join(quoted, ",")
	cl := server.NewClient(f.mts.URL, nil)
	for _, body := range []string{
		`{"packages":[` + list + `],"close":false}`,
		" {\"packages\" : [ " + strings.Join(quoted, " ,\n") + " ] }",
		`{"close":false,"packages":[` + strings.ReplaceAll(list, "/", `\/`) + `],"tenant":"cms"}`,
	} {
		var out RouteResponse
		if err := cl.DoCtx(context5s(t), http.MethodPost, "/v1/request", []byte(body), &out); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if out.Packages != len(keys) || out.Agent == "" {
			t.Fatalf("%s: served as %+v, want %d packages", body, out, len(keys))
		}
	}
	// An unknown package is the agent's refusal, relayed verbatim.
	err := cl.DoCtx(context5s(t), http.MethodPost, "/v1/request", []byte(`{"packages":["ghost\/1\/p"]}`), nil)
	var se *server.StatusError
	if !errors.As(err, &se) || se.Status != http.StatusBadRequest || se.Msg != `unknown package "ghost/1/p"` {
		t.Fatalf("unknown package through the master: %v", err)
	}
}

// TestMasterRequestBodyBound: one byte over the master's bound is a 413
// that reaches no agent; one byte under is the master's to forward (the
// agent, whose repository-derived bound is tighter, is the one that
// refuses it).
func TestMasterRequestBodyBound(t *testing.T) {
	f := newTestFleet(t, 1, MasterConfig{SuspectAfter: -1})
	f.beatAll()
	padded := func(n int) []byte {
		body := []byte(`{"packages":[` + strconv.Quote(specKeys(f.repo, 0, 1)[0]) + `]}`)
		return append(body, bytes.Repeat([]byte{' '}, n-len(body))...)
	}
	cl := server.NewClient(f.mts.URL, nil)
	post := func(n int) *server.StatusError {
		err := cl.DoCtx(context5s(t), http.MethodPost, "/v1/request", padded(n), nil)
		var se *server.StatusError
		if !errors.As(err, &se) || se.Status != http.StatusRequestEntityTooLarge {
			t.Fatalf("%d-byte body: %v, want 413", n, err)
		}
		return se
	}
	agentLimit := server.RequestBodyLimit(f.repo)
	if se := post(server.DefaultRequestBodyLimit - 1); se.Msg != fmt.Sprintf("request body exceeds %d bytes", agentLimit) {
		t.Fatalf("limit-1: refusal %q did not come from the agent (bound %d)", se.Msg, agentLimit)
	}
	forwarded := f.master.reg.Counter(metricRouteTotal, helpRouteTotal,
		telemetry.Label{Key: "agent", Value: f.agents[0].id},
		telemetry.Label{Key: "outcome", Value: "rejected"})
	if forwarded.Value() != 1 {
		t.Fatalf("limit-1: %d forwards recorded as rejected, want 1", forwarded.Value())
	}
	if se := post(server.DefaultRequestBodyLimit + 1); se.Msg != fmt.Sprintf("request body exceeds %d bytes", server.DefaultRequestBodyLimit) {
		t.Fatalf("limit+1: refusal %q did not come from the master", se.Msg)
	}
	if forwarded.Value() != 1 || f.agents[0].srv.StatsNow().Requests != 0 {
		t.Fatalf("limit+1: forwarded (%d rejected) or served (%d requests)",
			forwarded.Value(), f.agents[0].srv.StatsNow().Requests)
	}
}

// TestMasterDecodeSpanUnderRoute: on the master the decode span is a
// child of fleet_route.
func TestMasterDecodeSpanUnderRoute(t *testing.T) {
	f := newTestFleet(t, 1, MasterConfig{SuspectAfter: -1})
	f.beatAll()
	if _, err := f.request(specKeys(f.repo, 1, 3)); err != nil {
		t.Fatal(err)
	}
	for _, tr := range f.master.traces.Dump(0) {
		for _, sp := range tr.Spans {
			if sp.Stage != telemetry.StageDecode {
				continue
			}
			if parent := tr.Spans[sp.Parent]; parent.Stage != telemetry.StageFleetRoute {
				t.Fatalf("decode span sits under %q, want %s", parent.Stage, telemetry.StageFleetRoute)
			}
			for _, a := range sp.Attrs {
				if a.Key == "path" && a.Str == "fast" {
					return
				}
			}
			t.Fatalf("decode span of a Client body did not take the fast path: %+v", sp)
		}
	}
	t.Fatal("master trace has no decode span")
}

// BenchmarkRequestDecode is the master's share of a routed request
// before the forward: a 325-key ~14 KB canonical body read and scanned,
// and its keys translated by a dictionary that has seen them all into
// the route key and the affinity query. `make bench-guard` holds it to
// 0 allocs/op.
func BenchmarkRequestDecode(b *testing.B) {
	var keys []string
	body := []byte(`{"packages":[`)
	for i := 0; i < 325; i++ {
		key := fmt.Sprintf("lib-%04d/%d.%d.0/x86_64-centos7-gcc8-opt", (i*37)%1000, i%7, i%5)
		keys = append(keys, key)
		if i > 0 {
			body = append(body, ',')
		}
		body = strconv.AppendQuote(body, key)
	}
	body = append(body, `],"close":false}`...)
	dict := NewKeyDict()
	dict.bitsOf(keys, nil)
	rd := server.NewRequestDecoder(telemetry.NewRegistry(), server.DefaultRequestBodyLimit)
	src := bytes.NewReader(body)
	var sink uint64
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Reset(body)
		dec, err := rd.DecodeBody(src, int64(len(body)), nil, telemetry.SpanNone)
		if err != nil {
			b.Fatal(err)
		}
		key, q, known := dict.Route(dec.Keys)
		if !known || q.distinct != len(keys) {
			b.Fatalf("route: known=%v distinct=%d", known, q.distinct)
		}
		sink += key
		dec.Release()
	}
	if sink == 0 {
		b.Fatal("route keys summed to zero")
	}
}
