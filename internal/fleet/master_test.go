package fleet

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/pkggraph"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// testRepo is a tiny shared package universe: every agent serves the
// same repository, as a real fleet would mount the same CVMFS tree.
func testRepo(t testing.TB) *pkggraph.Repo {
	t.Helper()
	cfg := pkggraph.DefaultGenConfig()
	cfg.CoreFamilies = 2
	cfg.FrameworkFamilies = 4
	cfg.LibraryFamilies = 8
	cfg.ApplicationFamilies = 12
	cfg.VersionsPerFamily = 2
	repo, err := pkggraph.Generate(cfg, 42)
	if err != nil {
		t.Fatalf("generating repo: %v", err)
	}
	return repo
}

// specKeys derives a deterministic distinct-package spec for index i.
func specKeys(repo *pkggraph.Repo, i, n int) []string {
	seen := map[string]bool{}
	var keys []string
	for j := 0; len(keys) < n; j++ {
		id := pkggraph.PkgID((i*7 + j*13 + 1) % repo.Len())
		k := repo.Package(id).Key()
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys
}

type testAgent struct {
	id  string
	srv *server.Server
	ts  *httptest.Server
	ag  *Agent
}

type testFleet struct {
	t      *testing.T
	repo   *pkggraph.Repo
	master *Master
	// handler indirection lets tests swap in a fresh master at the
	// same URL — a master restart from the agents' point of view.
	handler atomic.Value // http.Handler
	mts     *httptest.Server
	agents  []*testAgent
}

func newTestFleet(t *testing.T, nAgents int, mcfg MasterConfig) *testFleet {
	t.Helper()
	f := &testFleet{t: t, repo: testRepo(t), master: NewMaster(mcfg)}
	f.handler.Store(f.master.Handler())
	f.mts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f.handler.Load().(http.Handler).ServeHTTP(w, r)
	}))
	t.Cleanup(f.mts.Close)
	for i := 0; i < nAgents; i++ {
		f.addAgent(string(rune('a'+i)) + "gent")
	}
	return f
}

func (f *testFleet) addAgent(id string) *testAgent {
	f.t.Helper()
	srv, err := server.New(f.repo, core.Config{Alpha: 0.6})
	if err != nil {
		f.t.Fatalf("agent %s: %v", id, err)
	}
	ts := httptest.NewServer(srv.Handler())
	f.t.Cleanup(ts.Close)
	ag := NewAgent(AgentConfig{
		ID: id, AdvertiseURL: ts.URL, MasterURLs: []string{f.mts.URL},
		Interval: 10 * time.Millisecond,
	}, srv)
	a := &testAgent{id: id, srv: srv, ts: ts, ag: ag}
	f.agents = append(f.agents, a)
	return a
}

func (f *testFleet) beatAll() {
	f.t.Helper()
	for _, a := range f.agents {
		if err := a.ag.BeatNow(context.Background()); err != nil {
			f.t.Fatalf("agent %s beat: %v", a.id, err)
		}
	}
}

// request routes one spec through the master, returning the full
// RouteResponse (including which agent served it).
func (f *testFleet) request(keys []string) (RouteResponse, error) {
	cl := server.NewClient(f.mts.URL, nil)
	var out RouteResponse
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := cl.DoCtx(ctx, http.MethodPost, "/v1/request",
		server.RequestBody{Packages: keys, Close: true}, &out)
	return out, err
}

func TestFleetRegisterAndGossip(t *testing.T) {
	f := newTestFleet(t, 1, MasterConfig{SuspectAfter: -1})
	a := f.agents[0]
	f.beatAll()

	members := f.master.MembersNow()
	if len(members) != 1 || members[0].ID != a.id || members[0].State != "healthy" {
		t.Fatalf("after first beat: members = %+v", members)
	}

	// Grow the agent's cache directly, then gossip the delta.
	direct := server.NewClient(a.ts.URL, nil)
	for i := 0; i < 5; i++ {
		if _, err := direct.Request(specKeys(f.repo, i, 3), true); err != nil {
			t.Fatalf("direct request %d: %v", i, err)
		}
	}
	f.beatAll()

	m := f.master.MembersNow()[0]
	if want := len(a.srv.ImagesNow()); m.DirImages != want {
		t.Fatalf("master mirror has %d images, agent has %d", m.DirImages, want)
	}
	if m.DirRev == 0 {
		t.Fatal("master mirror revision never advanced")
	}

	// An idle agent's next delta is empty but still advances nothing:
	// revisions only move when the cache changes.
	rev := m.DirRev
	f.beatAll()
	if got := f.master.MembersNow()[0].DirRev; got != rev {
		t.Fatalf("idle beat moved mirror revision %d -> %d", rev, got)
	}
}

// TestBeatTakesNoWriteLock: a heartbeat's directory refresh reads the
// cache on the read path, so beats never stall hits behind a shard's
// write lock and never count as write-lock acquisitions.
func TestBeatTakesNoWriteLock(t *testing.T) {
	f := newTestFleet(t, 1, MasterConfig{SuspectAfter: -1})
	a := f.agents[0]
	for i := 0; i < 5; i++ {
		if err := a.srv.WarmSpec(context.Background(), specKeys(f.repo, i, 3), true); err != nil {
			t.Fatal(err)
		}
	}
	writeLocks := func() string {
		var sb strings.Builder
		if err := a.srv.Registry().WriteText(&sb); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(sb.String(), "\n") {
			if strings.HasPrefix(line, "landlord_write_lock_acquisitions_total ") {
				return line
			}
		}
		t.Fatal("landlord_write_lock_acquisitions_total not exported")
		return ""
	}
	before := writeLocks()
	if strings.HasSuffix(before, " 0") {
		t.Fatal("warming took no write lock")
	}
	for i := 0; i < 3; i++ {
		f.beatAll()
	}
	if got := f.master.MembersNow()[0].DirImages; got != len(a.srv.ImagesNow()) {
		t.Fatalf("master mirrors %d images, agent has %d", got, len(a.srv.ImagesNow()))
	}
	if after := writeLocks(); after != before {
		t.Errorf("heartbeats took the write lock: %q -> %q", before, after)
	}
}

func TestFleetRoutingDeterministicAndSpread(t *testing.T) {
	f := newTestFleet(t, 3, MasterConfig{SuspectAfter: -1})
	f.beatAll()

	used := map[string]bool{}
	placement := map[int]string{}
	for i := 0; i < 24; i++ {
		res, err := f.request(specKeys(f.repo, i, 3))
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if res.Agent == "" {
			t.Fatalf("request %d: no agent attributed", i)
		}
		used[res.Agent] = true
		placement[i] = res.Agent
	}
	if len(used) < 2 {
		t.Fatalf("24 distinct specs all routed to %v: no spread", used)
	}
	// Re-requesting the same specs lands on the same agents — the
	// property that turns hashing into cache locality.
	for i := 0; i < 24; i++ {
		res, err := f.request(specKeys(f.repo, i, 3))
		if err != nil {
			t.Fatalf("re-request %d: %v", i, err)
		}
		if res.Agent != placement[i] {
			t.Fatalf("spec %d moved %s -> %s with stable membership", i, placement[i], res.Agent)
		}
		if res.Op != "hit" {
			t.Fatalf("spec %d re-request was %q on %s, want hit", i, res.Op, res.Agent)
		}
	}
}

func TestFleetFailoverRoutesAroundDeadAgent(t *testing.T) {
	f := newTestFleet(t, 3, MasterConfig{SuspectAfter: -1})
	f.beatAll()

	// Find a spec owned by agent 1, then take agent 1 down hard.
	victim := f.agents[1]
	var keys []string
	for i := 0; ; i++ {
		keys = specKeys(f.repo, i, 3)
		f.master.mu.Lock()
		info := f.master.routeLocked(RouteKey(keys), KeyQuery{}, false)
		f.master.mu.Unlock()
		if info.Owner == victim.id {
			break
		}
		if i > 1000 {
			t.Fatal("no spec hashed to the victim agent")
		}
	}
	victim.ts.CloseClientConnections()
	victim.ts.Close()

	res, err := f.request(keys)
	if err != nil {
		t.Fatalf("request during agent outage: %v", err)
	}
	if res.Agent == victim.id {
		t.Fatalf("request attributed to the dead agent %s", victim.id)
	}
	// The transport failure marked the victim suspect.
	for _, m := range f.master.MembersNow() {
		if m.ID == victim.id && m.State != "suspect" {
			t.Fatalf("victim state %q after transport failure, want suspect", m.State)
		}
	}
}

func TestFleetReadyzQuorum(t *testing.T) {
	f := newTestFleet(t, 2, MasterConfig{Quorum: 2, SuspectAfter: -1})

	ready := func() (int, ReadyResponse) {
		resp, err := http.Get(f.mts.URL + "/v1/readyz")
		if err != nil {
			t.Fatalf("readyz: %v", err)
		}
		defer resp.Body.Close()
		var out ReadyResponse
		decodeJSONBody(t, resp, &out)
		return resp.StatusCode, out
	}

	if code, out := ready(); code != http.StatusServiceUnavailable || out.Healthy != 0 {
		t.Fatalf("empty fleet: readyz %d %+v, want 503", code, out)
	}
	if err := f.agents[0].ag.BeatNow(context.Background()); err != nil {
		t.Fatalf("beat: %v", err)
	}
	if code, out := ready(); code != http.StatusServiceUnavailable || out.Healthy != 1 {
		t.Fatalf("below quorum: readyz %d %+v, want 503 with 1 healthy", code, out)
	}
	if err := f.agents[1].ag.BeatNow(context.Background()); err != nil {
		t.Fatalf("beat: %v", err)
	}
	if code, out := ready(); code != http.StatusOK || out.Healthy != 2 || out.Status != "ready" {
		t.Fatalf("at quorum: readyz %d %+v, want 200 ready", code, out)
	}
}

func TestFleetMasterRestartRebuildsSoftState(t *testing.T) {
	f := newTestFleet(t, 2, MasterConfig{SuspectAfter: -1})
	f.beatAll()

	// Populate one agent so the rebuilt master must recover a non-empty
	// mirror too.
	direct := server.NewClient(f.agents[0].ts.URL, nil)
	for i := 0; i < 4; i++ {
		if _, err := direct.Request(specKeys(f.repo, i, 3), true); err != nil {
			t.Fatalf("direct request: %v", err)
		}
	}
	f.beatAll()
	wantImages := len(f.agents[0].srv.ImagesNow())

	// "Restart" the master: fresh process state at the same URL.
	f.master = NewMaster(MasterConfig{SuspectAfter: -1})
	f.handler.Store(f.master.Handler())
	if len(f.master.MembersNow()) != 0 {
		t.Fatal("fresh master already has members")
	}

	// The next beat gets Unknown, re-registers, and replays the full
	// directory — all within one BeatNow.
	f.beatAll()
	members := f.master.MembersNow()
	if len(members) != 2 {
		t.Fatalf("after restart + one beat: %d members, want 2", len(members))
	}
	for _, m := range members {
		if m.State != "healthy" {
			t.Fatalf("member %s state %q after re-register", m.ID, m.State)
		}
		if m.ID == f.agents[0].id && m.DirImages != wantImages {
			t.Fatalf("rebuilt mirror has %d images, want %d", m.DirImages, wantImages)
		}
	}

	// Routing still works immediately.
	if res, err := f.request(specKeys(f.repo, 1, 3)); err != nil || res.Agent == "" {
		t.Fatalf("post-restart request: res=%+v err=%v", res, err)
	}
}

func TestFleetSweepAgesSilentAgents(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	f := newTestFleet(t, 2, MasterConfig{
		SuspectAfter: 50 * time.Millisecond,
		DeadAfter:    200 * time.Millisecond,
		Clock:        clock,
	})
	// Note: the master's clock is injected but the agents beat through
	// HTTP, so drive everything manually.
	f.beatAll()

	now = now.Add(100 * time.Millisecond)
	f.master.SweepNow()
	for _, m := range f.master.MembersNow() {
		if m.State != "suspect" {
			t.Fatalf("member %s state %q after suspect age, want suspect", m.ID, m.State)
		}
	}

	// One agent beats again: healthy. The other ages to dead and gives
	// up its keys.
	if err := f.agents[0].ag.BeatNow(context.Background()); err != nil {
		t.Fatalf("beat: %v", err)
	}
	now = now.Add(150 * time.Millisecond)
	died := f.master.SweepNow()
	if len(died) != 1 || died[0] != f.agents[1].id {
		t.Fatalf("sweep killed %v, want [%s]", died, f.agents[1].id)
	}
	if owned := ownedKeys(f.master, f.agents[1].id); owned != 0 {
		t.Fatalf("dead agent still owns %d of %d probe keys", owned, probeRouteKeys)
	}

	// The dead agent's next beat is told Unknown and re-registers
	// inside BeatNow, taking its keys back.
	if err := f.agents[1].ag.BeatNow(context.Background()); err != nil {
		t.Fatalf("dead agent beat: %v", err)
	}
	for _, m := range f.master.MembersNow() {
		if m.ID == f.agents[1].id && m.State != "healthy" {
			t.Fatalf("resurrected agent state %q", m.State)
		}
	}

	if owned := ownedKeys(f.master, f.agents[1].id); owned == 0 {
		t.Fatalf("resurrected agent owns none of %d probe keys", probeRouteKeys)
	}
}

// probeRouteKeys is how many fixed keys the membership tests route to
// see who owns what.
const probeRouteKeys = 64

// probeOwners returns the owner of each probe key on m.
func probeOwners(m *Master) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	owners := make([]string, probeRouteKeys)
	for i := range owners {
		owners[i] = m.routeLocked(uint64(i)*0x9e3779b97f4a7c15, KeyQuery{}, false).Owner
	}
	return owners
}

// ownedKeys counts the probe keys id owns on m.
func ownedKeys(m *Master, id string) int {
	n := 0
	for _, o := range probeOwners(m) {
		if o == id {
			n++
		}
	}
	return n
}

// TestFleetRepeatedKeysRouteTogether: a spec sent with a repeated key
// is the same spec to the agent, so through the master it must land on
// the agent that already holds it, as a hit.
func TestFleetRepeatedKeysRouteTogether(t *testing.T) {
	f := newTestFleet(t, 3, MasterConfig{SuspectAfter: -1})
	f.beatAll()
	for i := 0; i < 12; i++ {
		keys := specKeys(f.repo, i, 3)
		first, err := f.request(keys)
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		again, err := f.request(append([]string{keys[2]}, append(keys, keys[0])...))
		if err != nil {
			t.Fatalf("spec %d with repeats: %v", i, err)
		}
		if again.Agent != first.Agent || again.Op != "hit" {
			t.Fatalf("spec %d: served by %s, with repeated keys %q on %s", i, first.Agent, again.Op, again.Agent)
		}
	}
}

// TestMasterKeepsAgentConnections: eight clients forwarding 300
// requests each through the master open one connection apiece to the
// agent. The agent holds the first eight forwards until all are in
// flight, so the eight connections exist before any is freed (net/http
// hands a connection freed mid-dial to the waiting request and keeps
// the late dial's too, which would make the count racy). On
// http.DefaultTransport's two idle connections per host the master
// opened ~800.
func TestMasterKeepsAgentConnections(t *testing.T) {
	const clients, perClient = 8, 300
	var opened atomic.Int64
	var firstWave sync.WaitGroup
	firstWave.Add(clients)
	var served atomic.Int64
	agent := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		if served.Add(1) <= clients {
			firstWave.Done()
			firstWave.Wait()
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"op":"hit","packages":1}`))
	}))
	agent.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			opened.Add(1)
		}
	}
	agent.Start()
	defer agent.Close()

	m := NewMaster(MasterConfig{SuspectAfter: -1})
	m.mu.Lock()
	m.ms.Register(RegisterRequest{ID: "agent-0", URL: agent.URL, Gen: 1}, time.Unix(0, 0))
	m.mu.Unlock()
	mts := httptest.NewServer(m.Handler())
	defer mts.Close()

	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	defer hc.CloseIdleConnections()
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := server.NewClient(mts.URL, hc)
			for i := 0; i < perClient; i++ {
				if _, err := cl.Request([]string{"k"}, false); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := opened.Load(); n > clients {
		t.Fatalf("%d clients x %d forwards opened %d master->agent connections, want at most %d", clients, perClient, n, clients)
	}
}

func decodeJSONBody(t *testing.T, resp *http.Response, out any) {
	t.Helper()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decoding body: %v", err)
	}
}

// TestForwardCountAllocatesNothing: an agent connection resolves its
// landlord_fleet_route_total series once, so counting a forward — every
// request's ok path — allocates nothing, and the count lands on the
// series the registry renders.
func TestForwardCountAllocatesNothing(t *testing.T) {
	m := NewMaster(MasterConfig{SuspectAfter: -1})
	seedMember(t, m, "a1")
	m.mu.Lock()
	conn := m.connLocked("a1")
	m.mu.Unlock()
	if allocs := testing.AllocsPerRun(1000, func() { conn.count(outcomeOK) }); allocs != 0 {
		t.Fatalf("counting an ok forward allocates %.1f times, want 0", allocs)
	}
	series := m.reg.Counter(metricRouteTotal, helpRouteTotal,
		telemetry.Label{Key: "agent", Value: "a1"}, telemetry.Label{Key: "outcome", Value: "ok"})
	if got := series.Value(); got != 1001 {
		t.Fatalf("ok series reads %d, want the 1001 counted forwards", got)
	}
}

// TestMetricsScrapeDuringAgentChurn scrapes /metrics in a loop while
// agents join and move between URLs and requests are forwarded to them.
// A scrape holds the registry's lock while the agents gauge takes m.mu,
// so creating an agent's route series under m.mu would deadlock the two;
// the test fails on the timeout if it does.
func TestMetricsScrapeDuringAgentChurn(t *testing.T) {
	stub := func() *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte(`{"op":"hit","packages":1}`))
		}))
	}
	// The servers are closed only on success: Close waits for in-flight
	// requests, which a deadlock never finishes.
	urls := [2]*httptest.Server{stub(), stub()}
	m := NewMaster(MasterConfig{SuspectAfter: -1})
	mts := httptest.NewServer(m.Handler())

	const agents, rounds = 40, 4
	post := func(path string, body any) error {
		return server.NewClient(mts.URL, nil).DoCtx(context.Background(), http.MethodPost, path, body, nil)
	}
	if err := post("/fleet/v1/register", RegisterRequest{ID: "agent-0", URL: urls[0].URL, Gen: 1}); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	wg.Add(3)
	go func() { // scraper
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(mts.URL + "/metrics")
			if err != nil {
				errs <- err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	for c := 0; c < 2; c++ { // forwarders, each key routed afresh
		go func(c int) {
			defer wg.Done()
			cl := server.NewClient(mts.URL, nil)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := cl.Request([]string{"k" + strconv.Itoa(c*1_000_000+i)}, false); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}

	done := make(chan error, 1)
	go func() { // joins, then URL moves: every one opens a fresh connection
		for r := 0; r < rounds; r++ {
			for a := 0; a < agents; a++ {
				req := RegisterRequest{ID: "agent-" + strconv.Itoa(a), URL: urls[(r+a)%2].URL, Gen: uint64(r + 1)}
				if err := post("/fleet/v1/register", req); err != nil {
					done <- err
					return
				}
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("registrations stalled for 20s while /metrics was scraped: lock-order deadlock")
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	mts.Close()
	urls[0].Close()
	urls[1].Close()
}
