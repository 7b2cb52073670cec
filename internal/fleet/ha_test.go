package fleet

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
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
	dir1     string
}

func newHAPair(t *testing.T) *haPair {
	t.Helper()
	p := &haPair{t: t, dir1: t.TempDir()}
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
		ID: "m1", PeerURL: p.ts2.URL, StartPrimary: true, StateDir: p.dir1,
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

	p.register("ag1")
	p.register("ag2")

	// One lease poll drains the primary's HA log into the standby's
	// mirror: same epoch view, byte-identical folded state.
	st2 := p.m2.LeaseTick(ctx)
	st1 := p.m1.HAStatusNow()
	if st2.Role != "standby" || st2.Epoch != 1 || st2.Holder != "m1" {
		t.Fatalf("standby after grant: %+v", st2)
	}
	if st2.MirrorNext != st1.StreamNext {
		t.Fatalf("standby mirror at %d, primary log at %d: not drained", st2.MirrorNext, st1.StreamNext)
	}
	if !HAStateEqual(st1.State, st2.State) {
		t.Fatalf("replicated state differs:\n primary %s\n standby %s", st1.State, st2.State)
	}

	// The primary's durable ha-state.json matches its in-memory fold.
	onDisk, err := ReadHAState(filepath.Join(p.dir1, haStateFile))
	if err != nil {
		t.Fatalf("reading ha-state.json: %v", err)
	}
	if !HAStateEqual(onDisk, st1.State) {
		t.Fatalf("durable state differs from live state:\n disk %s\n live %s", onDisk, st1.State)
	}

	// Membership changes keep replicating incrementally (no resync).
	p.register("ag3")
	st2 = p.m2.LeaseTick(ctx)
	st1 = p.m1.HAStatusNow()
	if !HAStateEqual(st1.State, st2.State) {
		t.Fatalf("post-register state differs:\n primary %s\n standby %s", st1.State, st2.State)
	}
	if st2.Resyncs != 0 {
		t.Fatalf("incremental replication resynced %d times", st2.Resyncs)
	}

	// Kill the primary. The first missed poll is a suspicion, the second
	// promotes: within two lease intervals of primary silence.
	lastDurable := st1.State
	p.ts1.CloseClientConnections()
	p.ts1.Close()

	st2 = p.m2.LeaseTick(ctx)
	if st2.Role != "standby" || st2.Missed != 1 {
		t.Fatalf("after one missed poll: role=%s missed=%d, want standby/1", st2.Role, st2.Missed)
	}
	st2 = p.m2.LeaseTick(ctx)
	if st2.Role != "primary" || st2.Epoch != 2 || st2.Promotions != 1 {
		t.Fatalf("after two missed polls: %+v, want primary at epoch 2", st2)
	}

	// The promoted master's recovered state — its mirror as-at
	// promotion, before its own epoch record — is byte-identical to the
	// dead primary's last durable state.
	if !HAStateEqual(st2.RecoveredState, lastDurable) {
		t.Fatalf("recovered state differs from dead primary's durable state:\n recovered %s\n durable   %s",
			st2.RecoveredState, lastDurable)
	}
	onDisk, err = ReadHAState(filepath.Join(p.dir1, haStateFile))
	if err != nil {
		t.Fatalf("re-reading ha-state.json: %v", err)
	}
	if !HAStateEqual(st2.RecoveredState, onDisk) {
		t.Fatalf("recovered state differs from ha-state.json on disk")
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
		LeaseRequest{ID: "m2", Epoch: 5, From: 0}, &resp)
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
	if m.ms.Register(RegisterRequest{ID: id, URL: "http://" + id, Gen: 1}, now) {
		m.ring.Add(id)
	}
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
//  1. the ring owner, when routable AND holding a superset
//  2. non-owner superset holders, in rendezvous order
//  3. the ring owner, when routable (no superset)
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

	// Find a spec the ring does NOT own on agent 0, then warm agent 0
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
		for _, snap := range a.srv.SnapshotNow() {
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

func TestAgentHandlerGatesStaleForwards(t *testing.T) {
	repo := testRepo(t)
	srv, err := server.New(repo, core.Config{Alpha: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	ag := NewAgent(AgentConfig{ID: "ag1", AdvertiseURL: "http://ag1", MasterURL: "http://m"}, srv)
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
