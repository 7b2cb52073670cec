package fleet

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

// membershipMaster is a master on a fixed clock with two registered
// agents, one of them holding a gossiped image.
func membershipMaster(t *testing.T) *Master {
	t.Helper()
	m := NewMaster(MasterConfig{SuspectAfter: -1, Clock: func() time.Time { return time.Unix(0, 0) }})
	seedMember(t, m, "agent-0", DirEntry{ID: 1, Version: 1, Size: 10, Packages: []string{"p1", "p2"}})
	seedMember(t, m, "agent-1")
	return m
}

// postMembership serves one POST to a membership endpoint on m.
func postMembership(m *Master, path string, body []byte) int {
	rec := httptest.NewRecorder()
	m.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec.Code
}

// TestMembershipBodyBound: a register or deregister body past the bound
// is refused 413 and leaves the members and the owner of every probe
// key as they were — even when it names a real agent.
func TestMembershipBodyBound(t *testing.T) {
	pad := strings.Repeat("x", server.SmallBodyLimit)
	for _, c := range []struct{ path, body string }{
		{"/fleet/v1/register", `{"id":"agent-2","url":"http://agent-2/` + pad + `","gen":1}`},
		{"/fleet/v1/register", `{"id":"agent-0","url":"http://elsewhere","gen":9,"pad":"` + pad + `"}`},
		{"/fleet/v1/register", strings.Repeat(" ", server.SmallBodyLimit) + `{"id":"agent-2","url":"http://agent-2","gen":1}`},
		{"/fleet/v1/deregister", `{"pad":"` + pad + `","id":"agent-0"}`},
	} {
		m := membershipMaster(t)
		members, owners := m.MembersNow(), probeOwners(m)
		if code := postMembership(m, c.path, []byte(c.body)); code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s, %d-byte body: %d, want 413", c.path, len(c.body), code)
		}
		if got := m.MembersNow(); !reflect.DeepEqual(got, members) {
			t.Fatalf("%s: oversized body changed members %+v -> %+v", c.path, members, got)
		}
		if got := probeOwners(m); !slices.Equal(got, owners) {
			t.Fatalf("%s: oversized body moved probe keys", c.path)
		}
	}
	// Under the bound the same endpoints work.
	m := membershipMaster(t)
	if code := postMembership(m, "/fleet/v1/register", []byte(`{"id":"agent-2","url":"http://agent-2","gen":1}`)); code != http.StatusOK {
		t.Fatalf("register: %d", code)
	}
	if code := postMembership(m, "/fleet/v1/deregister", []byte(`{"id":"agent-0"}`)); code != http.StatusOK {
		t.Fatalf("deregister: %d", code)
	}
	if got := m.MembersNow(); len(got) != 2 || got[0].ID != "agent-1" || got[1].ID != "agent-2" {
		t.Fatalf("members after register and deregister: %+v", got)
	}
}

// FuzzMembershipBodies: no body POSTed to /fleet/v1/register or
// /fleet/v1/deregister, on a master with two agents, panics it. A
// refusal leaves the members and the owner of 64 probe keys unchanged;
// an accepted register adds or refreshes exactly the member it names,
// and an accepted deregister removes at most the member it names.
func FuzzMembershipBodies(f *testing.F) {
	// The named seeds are in testdata/fuzz/FuzzMembershipBodies.
	f.Add([]byte(`{"id":"agent-2","url":"http://agent-2","gen":1}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, path := range []string{"/fleet/v1/register", "/fleet/v1/deregister"} {
			m := membershipMaster(t)
			before, owners := m.MembersNow(), probeOwners(m)
			code := postMembership(m, path, body)
			after := m.MembersNow()
			if code != http.StatusOK {
				if !reflect.DeepEqual(after, before) || !slices.Equal(probeOwners(m), owners) {
					t.Fatalf("%s answered %d but changed the fleet: members %+v -> %+v", path, code, before, after)
				}
				continue
			}
			// Decode the body as the handler does, into the endpoint's type.
			var req RegisterRequest
			var dereg DeregisterRequest
			var err error
			if path == "/fleet/v1/register" {
				err = json.NewDecoder(bytes.NewReader(body)).Decode(&req)
			} else {
				err = json.NewDecoder(bytes.NewReader(body)).Decode(&dereg)
				req.ID = dereg.ID
			}
			if err != nil {
				t.Fatalf("%s accepted a body json refuses: %v", path, err)
			}
			others := func(ms []MemberInfo) []MemberInfo {
				return slices.DeleteFunc(slices.Clone(ms), func(mi MemberInfo) bool { return mi.ID == req.ID })
			}
			if !reflect.DeepEqual(others(after), others(before)) {
				t.Fatalf("%s of %q changed other members: %+v -> %+v", path, req.ID, before, after)
			}
			i := slices.IndexFunc(after, func(mi MemberInfo) bool { return mi.ID == req.ID })
			if path == "/fleet/v1/deregister" {
				if i >= 0 {
					t.Fatalf("deregister of %q left it a member: %+v", req.ID, after)
				}
				continue
			}
			if i < 0 {
				t.Fatalf("register of %q accepted but not a member: %+v", req.ID, after)
			}
			if got := after[i]; got.URL != req.URL || got.Gen != req.Gen || got.State != "healthy" {
				t.Fatalf("register %+v left member %+v", req, got)
			}
		}
	})
}
