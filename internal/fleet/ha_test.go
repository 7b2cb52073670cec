package fleet

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/server"
)

// haPair is two masters wired as primary + standby, each behind a
// handler-indirected httptest server so tests can kill and restart
// either one at a stable URL.
type haPair struct {
	t        *testing.T
	m1, m2   *Master
	h1, h2   atomic.Value // http.Handler
	ts1, ts2 *httptest.Server
}

func newHAPair(t *testing.T) *haPair {
	t.Helper()
	p := &haPair{t: t}
	serve := func(h *atomic.Value) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h.Load().(http.Handler).ServeHTTP(w, r)
		}))
	}
	p.ts1 = serve(&p.h1)
	p.ts2 = serve(&p.h2)
	t.Cleanup(p.ts1.Close)
	t.Cleanup(p.ts2.Close)
	p.m1 = NewMaster(MasterConfig{SuspectAfter: -1, HA: HAConfig{
		ID: "m1", PeerURL: p.ts2.URL, StartPrimary: true,
	}})
	p.m2 = NewMaster(MasterConfig{SuspectAfter: -1, HA: HAConfig{
		ID: "m2", PeerURL: p.ts1.URL,
	}})
	p.h1.Store(p.m1.Handler())
	p.h2.Store(p.m2.Handler())
	return p
}

func (p *haPair) register(id string) {
	p.t.Helper()
	cl := server.NewClient(p.ts1.URL, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var resp RegisterResponse
	if err := cl.DoCtx(ctx, http.MethodPost, "/fleet/v1/register",
		RegisterRequest{ID: id, URL: "http://" + id, Gen: 1}, &resp); err != nil {
		p.t.Fatalf("register %s: %v", id, err)
	}
}

func TestHALeaseReplicatesAndPromotesInTwoTicks(t *testing.T) {
	p := newHAPair(t)
	ctx := context.Background()

	// One lease poll teaches the standby the primary's epoch and holder.
	st2 := p.m2.LeaseTick(ctx)
	if st2.Role != "standby" || st2.Epoch != 1 || st2.Holder != "m1" || st2.Missed != 0 {
		t.Fatalf("standby after grant: %+v, want standby at epoch 1 held by m1", st2)
	}

	// The lease carries nothing else: an agent that registered with the
	// primary alone is unknown to the standby. Agents beat every master
	// in master_urls, so a promoted standby routes from its own view.
	p.register("ag1")
	if st2 = p.m2.LeaseTick(ctx); st2.Missed != 0 {
		t.Fatalf("renewal missed: %+v", st2)
	}
	if got := p.m2.MembersNow(); len(got) != 0 {
		t.Fatalf("standby learned members over the lease: %+v", got)
	}

	// Kill the primary. The first missed poll is a suspicion, the second
	// promotes: within two lease intervals of primary silence.
	p.ts1.CloseClientConnections()
	p.ts1.Close()

	st2 = p.m2.LeaseTick(ctx)
	if st2.Role != "standby" || st2.Missed != 1 {
		t.Fatalf("after one missed poll: role=%s missed=%d, want standby/1", st2.Role, st2.Missed)
	}
	st2 = p.m2.LeaseTick(ctx)
	if st2.Role != "primary" || st2.Epoch != 2 || st2.Holder != "m2" || st2.Promotions != 1 {
		t.Fatalf("after two missed polls: %+v, want primary at epoch 2", st2)
	}
}

func TestHAStandbyRefusesRequestsWithEpoch(t *testing.T) {
	p := newHAPair(t)
	if st := p.m2.LeaseTick(context.Background()); st.Epoch != 1 {
		t.Fatalf("standby never learned the epoch: %+v", st)
	}

	cl := server.NewClient(p.ts2.URL, nil)
	cl.MaxRetries = 0
	// The refusal comes before the body is read: a well-formed request,
	// garbage, an empty spec and a body over the bound are all the same
	// 503 — a standby neither 400s nor 413s.
	for name, body := range map[string]any{
		"well-formed": server.RequestBody{Packages: []string{"x"}, Close: true},
		"malformed":   []byte(`{"packages":[`),
		"no packages": []byte(`{"packages":[]}`),
		"oversized":   bytes.Repeat([]byte{' '}, server.DefaultRequestBodyLimit+1),
	} {
		err := cl.DoCtx(context.Background(), http.MethodPost, "/v1/request", body, nil)
		var se *server.StatusError
		if !errors.As(err, &se) {
			t.Fatalf("%s: standby /v1/request error = %v, want StatusError", name, err)
		}
		if se.Status != http.StatusServiceUnavailable || !strings.HasPrefix(se.Msg, "not primary") {
			t.Fatalf("%s: standby refused with %d %q, want 503 not primary", name, se.Status, se.Msg)
		}
		if se.Epoch != 1 {
			t.Fatalf("%s: refusal carried epoch %d, want 1", name, se.Epoch)
		}
		if se.RetryAfter <= 0 {
			t.Fatalf("%s: refusal carried no Retry-After hint: %+v", name, se)
		}
	}
}

func TestHALeaseDemotesOnHigherEpoch(t *testing.T) {
	p := newHAPair(t)

	// A lease request carrying a higher epoch is proof of supersession:
	// the primary demotes before answering, and the answer is a refusal.
	cl := server.NewClient(p.ts1.URL, nil)
	var resp LeaseResponse
	err := cl.DoCtx(context.Background(), http.MethodPost, "/fleet/v1/lease",
		LeaseRequest{ID: "m2", Epoch: 5}, &resp)
	if err != nil {
		t.Fatalf("lease: %v", err)
	}
	if resp.Granted || resp.Epoch != 5 || resp.Holder != "m2" {
		t.Fatalf("lease response %+v, want ungranted at epoch 5 held by m2", resp)
	}
	st := p.m1.HAStatusNow()
	if st.Role != "standby" || st.Epoch != 5 || st.Demotions != 1 {
		t.Fatalf("old primary after supersession: %+v, want standby at epoch 5", st)
	}
}

func TestEpochGate(t *testing.T) {
	var g EpochGate

	// Admission adopts the first epoch it sees and anything newer.
	if ok, _ := g.Admit(1, "m1"); !ok {
		t.Fatal("first epoch refused")
	}
	if ok, _ := g.Admit(2, "m2"); !ok {
		t.Fatal("newer epoch refused")
	}
	// Same epoch, same holder: fine.
	if ok, _ := g.Admit(2, "m2"); !ok {
		t.Fatal("same epoch same holder refused")
	}
	// Same epoch, different holder: protocol violation — refuse and count.
	if ok, _ := g.Admit(2, "m1"); ok {
		t.Fatal("same-epoch holder conflict admitted")
	}
	// Stale epoch: refuse with the current epoch so the old master can
	// demote itself.
	ok, cur := g.Admit(1, "m1")
	if ok || cur != 2 {
		t.Fatalf("stale epoch: ok=%v cur=%d, want refused at 2", ok, cur)
	}
	st := g.Snapshot()
	if st.Epoch != 2 || st.Holder != "m2" || st.StaleRejects != 1 || st.Conflicts != 1 {
		t.Fatalf("gate snapshot %+v", st)
	}

	// Observation teaches without rejecting: a heartbeat from epoch 3
	// moves the gate, and the old epoch-2 holder is now refused.
	g.Observe(3, "m1")
	if ok, _ := g.Admit(2, "m2"); ok {
		t.Fatal("epoch 2 still admitted after observing epoch 3")
	}
	if st := g.Snapshot(); st.Epoch != 3 || st.Holder != "m1" {
		t.Fatalf("gate after observe: %+v", st)
	}
}

// seedMember registers one agent on m with the given directory
// entries, straight through the membership layer.
func seedMember(t *testing.T, m *Master, id string, entries ...DirEntry) {
	t.Helper()
	now := time.Unix(0, 0)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ms.Register(RegisterRequest{ID: id, URL: "http://" + id, Gen: 1}, now)
	d := NewDirectory(DefaultDirJournal)
	for _, e := range entries {
		d.Put(e)
	}
	if resp := m.ms.Heartbeat(HeartbeatRequest{ID: id, Gen: 1, Delta: d.Full()}, now); resp.Unknown || resp.Resync {
		t.Fatalf("seeding %s: heartbeat %+v", id, resp)
	}
}

// TestRouteAffinityOrder pins routeLocked's preference order:
//
//  1. the owner, when routable AND holding a superset
//  2. non-owner superset holders, in rendezvous order
//  3. the owner, when routable (no superset)
//  4. remaining routable agents, in rendezvous order
func TestRouteAffinityOrder(t *testing.T) {
	m := NewMaster(MasterConfig{SuspectAfter: -1, MaxAttempts: 10})
	agents := []string{"a1", "a2", "a3"}
	pkgs := []string{"p1", "p2"}
	key := RouteKey(pkgs)

	for _, id := range agents {
		seedMember(t, m, id)
	}
	m.mu.Lock()
	owner := m.routeLocked(key, KeyQuery{}, false).Owner
	m.mu.Unlock()
	rdv := RendezvousOrder(agents, key)
	var holder, other string
	for _, id := range rdv {
		if id == owner {
			continue
		}
		if holder == "" {
			holder = id
		} else {
			other = id
		}
	}

	// Nobody holds the spec: owner first, then rendezvous order, no
	// affinity.
	m.mu.Lock()
	info := m.routeLocked(m.ms.dict.Route(keyViews(pkgs)))
	m.mu.Unlock()
	if info.Affinity || len(info.Candidates) != 3 || info.Candidates[0] != owner {
		t.Fatalf("cold route: %+v, want owner %s first without affinity", info, owner)
	}

	// A non-owner gossips a superset image: it outranks the owner and
	// the route is an affinity redirect.
	seedMember(t, m, holder, DirEntry{ID: 1, Version: 1, Size: 10,
		Packages: []string{"p1", "p2", "p3"}})
	m.mu.Lock()
	info = m.routeLocked(m.ms.dict.Route(keyViews(pkgs)))
	m.mu.Unlock()
	want := []string{holder, owner, other}
	if !info.Affinity {
		t.Fatalf("superset holder did not flag affinity: %+v", info)
	}
	for i, id := range want {
		if info.Candidates[i] != id {
			t.Fatalf("affinity order = %v, want %v", info.Candidates, want)
		}
	}

	// A request is a set: repeating a key does not push it past the
	// holder's image size, so the route is the same redirect.
	m.mu.Lock()
	info = m.routeLocked(m.ms.dict.Route(keyViews([]string{"p1", "p2", "p2", "p1"})))
	m.mu.Unlock()
	if !info.Affinity || info.Candidates[0] != holder {
		t.Fatalf("repeated keys hid the superset holder: %+v, want %s first with affinity", info, holder)
	}

	// The owner also gossips a superset: owner-with-affinity leads, no
	// redirect counted (the route went where the hash said anyway).
	seedMember(t, m, owner,
		DirEntry{ID: 2, Version: 1, Size: 10, Packages: []string{"p1", "p2", "p9"}})
	m.mu.Lock()
	info = m.routeLocked(m.ms.dict.Route(keyViews(pkgs)))
	m.mu.Unlock()
	want = []string{owner, holder, other}
	if info.Affinity {
		t.Fatalf("owner-held superset still flagged affinity: %+v", info)
	}
	for i, id := range want {
		if info.Candidates[i] != id {
			t.Fatalf("owner-holds order = %v, want %v", info.Candidates, want)
		}
	}

	// An image too small or mismatched is not a superset.
	m.mu.Lock()
	info = m.routeLocked(m.ms.dict.Route(keyViews([]string{"p1", "p2", "p4"})))
	owner = m.routeLocked(RouteKey([]string{"p1", "p2", "p4"}), KeyQuery{}, false).Owner
	m.mu.Unlock()
	if info.Affinity || info.Candidates[0] != owner {
		t.Fatalf("non-superset image influenced routing: %+v", info)
	}
}

func TestRouteAffinityCounterEndToEnd(t *testing.T) {
	f := newTestFleet(t, 3, MasterConfig{SuspectAfter: -1})
	f.beatAll()

	// Find a spec agent 0 does NOT own, then warm agent 0
	// with it directly — the affinity case: the hash says elsewhere, the
	// gossiped directory says agent 0 already has the bytes.
	warm := f.agents[0]
	var keys []string
	for i := 0; ; i++ {
		keys = specKeys(f.repo, i, 3)
		f.master.mu.Lock()
		owner := f.master.routeLocked(RouteKey(keys), KeyQuery{}, false).Owner
		f.master.mu.Unlock()
		if owner != warm.id {
			break
		}
		if i > 1000 {
			t.Fatal("every spec hashed to agent 0")
		}
	}
	direct := server.NewClient(warm.ts.URL, nil)
	if _, err := direct.Request(keys, true); err != nil {
		t.Fatalf("warming agent 0: %v", err)
	}
	f.beatAll()

	res, err := f.request(keys)
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	if res.Agent != warm.id {
		t.Fatalf("request served by %s, want affinity redirect to %s", res.Agent, warm.id)
	}
	if res.Op != "hit" {
		t.Fatalf("affinity-routed request was %q, want hit", res.Op)
	}
	if got := f.master.Registry().Counter(metricRouteAffinity, helpRouteAffinity).Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", metricRouteAffinity, got)
	}
}

func TestHandoffDrainWarmsSuccessors(t *testing.T) {
	f := newTestFleet(t, 3, MasterConfig{SuspectAfter: -1})
	f.beatAll()

	// Warm the drainer with two specs directly.
	drainer := f.agents[0]
	direct := server.NewClient(drainer.ts.URL, nil)
	specs := [][]string{specKeys(f.repo, 1, 3), specKeys(f.repo, 2, 3)}
	for _, keys := range specs {
		if _, err := direct.Request(keys, true); err != nil {
			t.Fatalf("warming drainer: %v", err)
		}
	}
	f.beatAll()

	// The plan names, per image, the rendezvous successor among the
	// remaining agents. One image per gossiped directory entry — the
	// server may have merged the two specs into one image.
	f.master.mu.Lock()
	plan := f.master.handoffPlanLocked(drainer.id)
	wantSpecs := 0
	for _, e := range f.master.ms.Dir(drainer.id).Entries() {
		if len(e.Packages) > 0 {
			wantSpecs++
		}
	}
	f.master.mu.Unlock()
	total := 0
	for _, tgt := range plan.Targets {
		if tgt.ID == drainer.id {
			t.Fatalf("plan hands off to the drainer itself: %+v", plan)
		}
		for _, spec := range tgt.Specs {
			wantID := RendezvousOrder([]string{f.agents[1].id, f.agents[2].id}, RouteKey(spec))[0]
			if tgt.ID != wantID {
				t.Fatalf("spec %v handed to %s, want rendezvous successor %s", spec, tgt.ID, wantID)
			}
			total++
		}
	}
	if total != wantSpecs || total == 0 {
		t.Fatalf("plan covers %d images, want %d", total, wantSpecs)
	}

	// One more spec, after the last beat: no master's mirror holds it
	// until the drain gossips it.
	late := specKeys(f.repo, 3, 3)
	if _, err := direct.Request(late, true); err != nil {
		t.Fatalf("warming drainer: %v", err)
	}
	specs = append(specs, late)

	// Drain: successors are warmed, the drainer leaves the fleet.
	if err := drainer.ag.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, m := range f.master.MembersNow() {
		if m.ID == drainer.id {
			t.Fatalf("drainer still a member after Drain")
		}
	}
	holds := func(a *testAgent, keys []string) bool {
		for _, snap := range a.srv.ExportState().Images {
			have := map[string]bool{}
			for _, k := range snap.Packages {
				have[k] = true
			}
			ok := true
			for _, k := range keys {
				if !have[k] {
					ok = false
					break
				}
			}
			if ok {
				return true
			}
		}
		return false
	}
	for _, keys := range specs {
		covered := false
		for _, a := range f.agents[1:] {
			if holds(a, keys) {
				covered = true
				break
			}
		}
		if !covered {
			t.Fatalf("spec %v not resident on any successor after drain", keys)
		}
	}
}

// A successor that does not take its warm slice is reported, not
// dropped: the drain still deregisters, and its error names the
// successor with the specs it was sent.
func TestDrainReportsRefusedWarm(t *testing.T) {
	f := newTestFleet(t, 2, MasterConfig{SuspectAfter: -1})
	f.beatAll()
	drainer, successor := f.agents[0], f.agents[1]
	if _, err := server.NewClient(drainer.ts.URL, nil).Request(specKeys(f.repo, 1, 3), true); err != nil {
		t.Fatalf("warming drainer: %v", err)
	}
	successor.ts.Close() // still routable on the master, unreachable for the warm
	err := drainer.ag.Drain(context.Background())
	var he *HandoffError
	if !errors.As(err, &he) || len(he.Refused) != 1 || he.Refused[0].ID != successor.id || len(he.Refused[0].Specs) != 1 {
		t.Fatalf("drain error %v, want a HandoffError naming %s with one spec", err, successor.id)
	}
	for _, m := range f.master.MembersNow() {
		if m.ID == drainer.id {
			t.Fatalf("drainer still a member after a refused handoff")
		}
	}
}

func TestAgentMultiMasterBeatsAndGate(t *testing.T) {
	p := newHAPair(t)
	repo := testRepo(t)
	srv, err := server.New(repo, core.Config{Alpha: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	ats := httptest.NewServer(srv.Handler())
	t.Cleanup(ats.Close)

	ag := NewAgent(AgentConfig{
		ID: "ag1", AdvertiseURL: ats.URL,
		MasterURLs: []string{p.ts1.URL, p.ts2.URL},
	}, srv)
	if err := ag.BeatNow(context.Background()); err != nil {
		t.Fatalf("beat: %v", err)
	}
	if got := ag.Beats(); got != 2 {
		t.Fatalf("beats = %d, want 2 (one per master)", got)
	}
	for _, m := range []*Master{p.m1, p.m2} {
		found := false
		for _, mem := range m.MembersNow() {
			if mem.ID == "ag1" && mem.State == "healthy" {
				found = true
			}
		}
		if !found {
			t.Fatalf("agent not healthy on both masters")
		}
	}
	// The primary's heartbeat response taught the gate the epoch.
	if st := ag.Gate().Snapshot(); st.Epoch != 1 || st.Holder != "m1" {
		t.Fatalf("gate after beat: %+v, want epoch 1 held by m1", st)
	}

	// One master dying does not fail the beat: the survivor acks.
	p.ts1.CloseClientConnections()
	p.ts1.Close()
	if err := ag.BeatNow(context.Background()); err != nil {
		t.Fatalf("beat with one master down: %v", err)
	}
	if !ag.Registered() {
		t.Fatal("agent lost registration with the surviving master")
	}
}

// TestAgentBeatsAsSoonAsMasterReturns: an agent's link to a master
// keeps no circuit breaker — the next beat is its retry — so after five
// beats a restarting master refused, the sixth, sent at once, registers.
// Behind the client's default breaker it failed fast for a second.
func TestAgentBeatsAsSoonAsMasterReturns(t *testing.T) {
	m := NewMaster(MasterConfig{SuspectAfter: -1})
	var refusals atomic.Int32
	refusals.Store(5)
	mts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if refusals.Add(-1) >= 0 {
			fleetWriteError(w, http.StatusServiceUnavailable, "restarting")
			return
		}
		m.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(mts.Close)
	srv, err := server.New(testRepo(t), core.Config{Alpha: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	ag := NewAgent(AgentConfig{ID: "ag1", AdvertiseURL: "http://ag1", MasterURLs: []string{mts.URL}}, srv)
	for i := 0; i < 5; i++ {
		if err := ag.BeatNow(context.Background()); err == nil {
			t.Fatalf("beat %d registered with a master answering 503", i)
		}
	}
	if err := ag.BeatNow(context.Background()); err != nil {
		t.Fatalf("first beat after the master returned: %v", err)
	}
	if !ag.Registered() || len(m.MembersNow()) != 1 {
		t.Fatalf("agent registered=%v, master members %+v", ag.Registered(), m.MembersNow())
	}
}

func TestAgentHandlerGatesStaleForwards(t *testing.T) {
	repo := testRepo(t)
	srv, err := server.New(repo, core.Config{Alpha: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	ag := NewAgent(AgentConfig{ID: "ag1", AdvertiseURL: "http://ag1", MasterURLs: []string{"http://m"}}, srv)
	ts := httptest.NewServer(ag.Handler())
	t.Cleanup(ts.Close)

	cl := server.NewClient(ts.URL, nil)
	cl.MaxRetries = 0
	keys := specKeys(repo, 1, 3)

	// An epoch-2 forward is admitted and adopts the epoch.
	cl.SetExtraHeaders(func(h http.Header) {
		h.Set(server.EpochHeader, "2")
		h.Set(server.MasterHeader, "m2")
	})
	if err := cl.DoCtx(context.Background(), http.MethodPost, "/v1/request",
		server.RequestBody{Packages: keys, Close: true}, nil); err != nil {
		t.Fatalf("epoch-2 forward refused: %v", err)
	}

	// A stale epoch-1 forward is refused with 503 carrying the current
	// epoch — the demotion signal for the sender.
	cl.SetExtraHeaders(func(h http.Header) {
		h.Set(server.EpochHeader, "1")
		h.Set(server.MasterHeader, "m1")
	})
	err = cl.DoCtx(context.Background(), http.MethodPost, "/v1/request",
		server.RequestBody{Packages: keys, Close: true}, nil)
	var se *server.StatusError
	if !errors.As(err, &se) || se.Status != http.StatusServiceUnavailable {
		t.Fatalf("stale forward error = %v, want 503 StatusError", err)
	}
	if se.Epoch != 2 {
		t.Fatalf("rejection carried epoch %d, want current epoch 2", se.Epoch)
	}
	if st := ag.Gate().Snapshot(); st.StaleRejects != 1 {
		t.Fatalf("gate counted %d stale rejects, want 1", st.StaleRejects)
	}

	// Unstamped requests (direct clients) pass through ungated.
	cl.SetExtraHeaders(nil)
	if err := cl.DoCtx(context.Background(), http.MethodPost, "/v1/request",
		server.RequestBody{Packages: keys, Close: true}, nil); err != nil {
		t.Fatalf("unstamped request refused: %v", err)
	}
}

// TestDrainedSpecHitsThroughAffinity records why route affinity stays
// (DESIGN.md §10). A drain hands each image to the rendezvous successor
// of the image's package list among the survivors, but a request for
// the spec is owned by the rendezvous head of the keys it names, and an
// image is the closure of those keys (or a merge of several specs), so
// over the survivors the two picks often differ. Then only the affinity
// redirect — the gossiped directory says the successor already holds a
// superset — turns the warm handoff into a hit instead of a rebuild on
// the owner.
func TestDrainedSpecHitsThroughAffinity(t *testing.T) {
	for i := 0; i < 20; i++ {
		f := newTestFleet(t, 3, MasterConfig{SuspectAfter: -1})
		f.beatAll()
		drainer, survivors := f.agents[0], f.agents[1:]
		keys := specKeys(f.repo, i, 3)
		if _, err := server.NewClient(drainer.ts.URL, nil).Request(keys, true); err != nil {
			t.Fatalf("warming the drainer: %v", err)
		}
		f.beatAll()
		if err := drainer.ag.Drain(context.Background()); err != nil {
			t.Fatalf("drain: %v", err)
		}
		for _, a := range survivors {
			if err := a.ag.BeatNow(context.Background()); err != nil {
				t.Fatalf("agent %s beat: %v", a.id, err)
			}
		}
		var holder string
		for _, a := range survivors {
			if len(a.srv.ExportState().Images) > 0 {
				holder = a.id
			}
		}
		if holder == "" {
			t.Fatalf("spec %v: the handoff warmed no survivor", keys)
		}
		f.master.mu.Lock()
		owner := f.master.routeLocked(RouteKey(keys), KeyQuery{}, false).Owner
		info := f.master.routeLocked(f.master.ms.dict.Route(keyViews(keys)))
		f.master.mu.Unlock()
		if owner == holder {
			continue // the owner is the successor here; try another spec
		}

		if !info.Affinity || info.Candidates[0] != holder {
			t.Fatalf("spec %v: route %+v, want an affinity redirect to successor %s over owner %s", keys, info, holder, owner)
		}
		res, err := f.request(keys)
		if err != nil {
			t.Fatalf("request: %v", err)
		}
		if res.Agent != holder || res.Op != "hit" {
			t.Fatalf("drained spec %v was a %q on %s, want a hit on successor %s (owner %s)", keys, res.Op, res.Agent, holder, owner)
		}
		if got := f.master.Registry().Counter(metricRouteAffinity, helpRouteAffinity).Value(); got != 1 {
			t.Fatalf("%s = %d, want 1", metricRouteAffinity, got)
		}
		return
	}
	t.Fatal("no spec in 20 whose post-drain owner differs from its successor")
}
