package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/server"
)

// TestHALeaseMixedVersionWire: a pair where one master still speaks
// the replicated-log lease keeps renewing. encoding/json ignores
// unknown fields in both directions, so an old standby's "from"
// watermark is granted, and an old primary's grant carrying
// "batch"/"checkpoint" renews the lease.
func TestHALeaseMixedVersionWire(t *testing.T) {
	p := newHAPair(t)
	res, err := http.Post(p.ts1.URL+"/fleet/v1/lease", "application/json",
		strings.NewReader(`{"id":"m2","epoch":1,"from":7}`))
	if err != nil {
		t.Fatalf("lease: %v", err)
	}
	var grant LeaseResponse
	err = json.NewDecoder(res.Body).Decode(&grant)
	res.Body.Close()
	if err != nil || res.StatusCode != http.StatusOK {
		t.Fatalf("lease with a retired from field: status %d, %v", res.StatusCode, err)
	}
	if !grant.Granted || grant.Epoch != 1 || grant.Holder != "m1" {
		t.Fatalf("lease with a retired from field: %+v, want granted at epoch 1 held by m1", grant)
	}

	// An old primary: it refuses one poll, then grants with its log
	// attached.
	var refuse atomic.Bool
	refuse.Store(true)
	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if refuse.Load() {
			http.Error(w, "restarting", http.StatusServiceUnavailable)
			return
		}
		io.WriteString(w, `{"granted":true,"epoch":1,"holder":"m1",`+
			`"batch":{"stream":1,"from":3,"count":1,"next":4,"frames":"AAAAAA=="},`+
			`"checkpoint":{"stream":1,"next":4,"frame":"AAAA"}}`)
	}))
	t.Cleanup(old.Close)
	standby := NewMaster(MasterConfig{SuspectAfter: -1, HA: HAConfig{ID: "m2", PeerURL: old.URL}})
	ctx := context.Background()
	if st := standby.LeaseTick(ctx); st.Missed != 1 {
		t.Fatalf("refused poll: %+v, want one miss", st)
	}
	refuse.Store(false)
	if st := standby.LeaseTick(ctx); st.Role != "standby" || st.Missed != 0 || st.Epoch != 1 || st.Holder != "m1" {
		t.Fatalf("grant with batch and checkpoint: %+v, want a renewed standby at epoch 1 held by m1", st)
	}
}

// TestLeaseBodyBound: a lease body past server.SmallBodyLimit is
// refused 413 on a primary and on a standby, and leaves /fleet/v1/ha as
// it was, though its epoch would demote the primary and teach the
// standby.
func TestLeaseBodyBound(t *testing.T) {
	primary := NewMaster(MasterConfig{SuspectAfter: -1, HA: HAConfig{ID: "m1", StartPrimary: true}})
	standby := NewMaster(MasterConfig{SuspectAfter: -1, HA: HAConfig{ID: "m2"}})
	body := []byte(`{"id":"m3","epoch":9,"pad":"` + strings.Repeat("x", server.SmallBodyLimit) + `"}`)
	for _, m := range []*Master{primary, standby} {
		before := haView(t, m)
		if code, _ := postLease(m, body); code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%d-byte lease body: %d, want 413", len(body), code)
		}
		if after := haView(t, m); after != before {
			t.Fatalf("oversized lease body changed /fleet/v1/ha:\n%s\n%s", before, after)
		}
	}
}

// haView reads m's GET /fleet/v1/ha body.
func haView(t *testing.T, m *Master) string {
	t.Helper()
	rec := httptest.NewRecorder()
	m.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/fleet/v1/ha", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /fleet/v1/ha: %d", rec.Code)
	}
	return rec.Body.String()
}

// FuzzLease: no body POSTed to /fleet/v1/lease, on a primary or on a
// standby, breaks the lease state machine. The answer is never a 5xx
// and a standby never grants; a decoded epoch above a primary's own
// demotes it; no master's epoch ever decreases; a body the decoder
// refuses changes nothing.
func FuzzLease(f *testing.F) {
	// The named seeds are in testdata/fuzz/FuzzLease.
	f.Add([]byte(`{"id":"m2","epoch":2}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		primary := NewMaster(MasterConfig{SuspectAfter: -1, HA: HAConfig{ID: "m1", StartPrimary: true}})
		standby := NewMaster(MasterConfig{SuspectAfter: -1, HA: HAConfig{ID: "m2"}})
		// The standby has learned epoch 1 from a poll, so a stale epoch
		// in the body could lower it.
		if code, resp := postLease(standby, []byte(`{"id":"m1","epoch":1}`)); code != http.StatusOK || resp.Epoch != 1 {
			t.Fatalf("teaching the standby epoch 1: %d %+v", code, resp)
		}
		for _, m := range []*Master{primary, standby} {
			before := m.HAStatusNow()
			code, resp := postLease(m, body)
			after := m.HAStatusNow()
			if code >= 500 {
				t.Fatalf("%s: lease answered %d", before.Role, code)
			}
			if after.Epoch < before.Epoch {
				t.Fatalf("%s: epoch went from %d to %d", before.Role, before.Epoch, after.Epoch)
			}
			var req LeaseRequest
			if json.NewDecoder(bytes.NewReader(body)).Decode(&req) != nil {
				if code != http.StatusBadRequest || after != before {
					t.Fatalf("%s: undecodable body answered %d, status %+v -> %+v", before.Role, code, before, after)
				}
				continue
			}
			if code != http.StatusOK || resp.Epoch != after.Epoch || resp.Holder != after.Holder {
				t.Fatalf("%s: answered %d %+v, status %+v", before.Role, code, resp, after)
			}
			switch {
			case before.Role == "standby":
				if resp.Granted || after.Role != "standby" {
					t.Fatalf("standby granted or changed role: %+v, status %+v", resp, after)
				}
			case req.Epoch > before.Epoch:
				if resp.Granted || after.Role != "standby" || after.Epoch != req.Epoch || after.Demotions != 1 {
					t.Fatalf("epoch %d did not demote the epoch-%d primary: %+v, status %+v", req.Epoch, before.Epoch, resp, after)
				}
			default:
				if !resp.Granted || after != before {
					t.Fatalf("primary at epoch %d refused or changed on epoch %d: %+v, status %+v", before.Epoch, req.Epoch, resp, after)
				}
			}
		}
	})
}

// postLease serves one lease POST on m in process and decodes the
// answer (zero on a non-JSON body).
func postLease(m *Master, body []byte) (int, LeaseResponse) {
	rec := httptest.NewRecorder()
	m.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/fleet/v1/lease", bytes.NewReader(body)))
	var resp LeaseResponse
	json.Unmarshal(rec.Body.Bytes(), &resp)
	return rec.Code, resp
}
