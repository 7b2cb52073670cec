package check

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/persist"
	"repro/internal/pkggraph"
	"repro/internal/resilience"
	"repro/internal/server"
	"repro/internal/spec"
	"repro/internal/telemetry"
)

// fleetTick is how far the fleet's logical clock moves per heartbeat
// round and per retry round. A master's per-agent breaker stays open
// for two.
const fleetTick = 5 * time.Millisecond

// serveRounds bounds serve's retry rounds.
const serveRounds = 20

// Agent 0's admission control: a bucket of shedBurst requests that
// refills within one tick, so a round's one forward never sheds but a
// burst inside one tick does.
const (
	shedBurst = 4
	shedRate  = shedBurst * float64(time.Second/fleetTick)
)

// logicalClock is the fleet's time: it moves only when the harness
// advances it, so breaker cool-downs, heartbeat ages and admission
// refills are functions of the schedule.
type logicalClock struct{ ns atomic.Int64 }

func (c *logicalClock) Now() time.Time { return time.Unix(0, c.ns.Load()) }

// fleetTopo is the fleet the fleet harness runs on: one plain master
// or an HA pair, N agents and the harness's own client, all nodes of
// one memNet on one logical clock. Agent 0 is durable on a FaultFS and
// admits a small burst; the others are in memory. Agents have
// unlimited capacity, so an acknowledged spec can never be evicted: any
// later miss is a real loss. RunFleetChaos is a fault schedule and
// audits over it.
type fleetTopo struct {
	name  string // the harness, prefixed to every diagnostic
	seed  int64
	alpha float64
	repo  *pkggraph.Repo
	net   *memNet
	clock logicalClock
	// client is the harness's node: every audit leaves from it. The
	// rounds take its links through netFaults (chaos); nothing sets a
	// deadline, so a blackhole fails at once.
	client, chaos *http.Client
	netFaults     *resilience.ChaosTransport
	masters       []*topoMaster
	agents        []*topoAgent
	acks          ackLog // every spec acknowledged through the fleet
	dir           string // scratch directory holding agent 0's state directory
	// disk is agent 0's filesystem in its current life, diskRNG the
	// source of its faults, diskFaults what its past lives injected.
	disk       *FaultFS
	diskRNG    *rand.Rand
	diskFaults int
	// spanClock advances 1µs per read by any node's tracer; tracers
	// counts the tracers seeded.
	spanClock atomic.Int64
	tracers   int64
	stages    map[string]bool // span stages seen in a harvested ring
	unready   int             // heals of agent 0 that left it unready
	// stats reads agent 0's /v1/stats over the faulty links through
	// Client's retries, breaker and retry budget.
	stats *server.Client
}

type topoMaster struct {
	id    string
	m     *fleet.Master
	alive bool
}

type topoAgent struct {
	id          string
	srv         *server.Server
	ag          *fleet.Agent
	partitioned bool
	drained     bool
	down        bool // crashed, not yet recovered
	lives       uint64
}

// fleetReply is one /v1/request answer as the client saw it; status 0
// means the request was refused at the transport.
type fleetReply struct {
	status int
	epoch  uint64
	retry  string
	res    fleet.RouteResponse
}

// newFleetTopo boots the fleet: agents (agent 0 durable, the rest in
// memory), then masters, then one heartbeat round. With two masters
// they are a pair, master-a starting as primary; with one it is a plain
// master.
func newFleetTopo(name string, seed int64, agents int, alpha float64, masters int) (*fleetTopo, *Failure) {
	t := &fleetTopo{
		name: name, seed: seed, alpha: alpha,
		repo:    SmallRepo(seed),
		net:     newMemNet(),
		diskRNG: rand.New(rand.NewSource(seed + 4)),
		stages:  map[string]bool{},
	}
	t.client = t.net.client("client")
	t.netFaults = resilience.NewChaosTransport(t.net.transport("client"), resilience.ChaosPlan{
		Seed: seed + 3, ResetBeforeP: 0.05, ResetAfterP: 0.03, BlackholeP: 0.01, TruncateP: 0.03,
	})
	t.chaos = &http.Client{Transport: t.netFaults}
	if masters == 2 {
		t.masters = []*topoMaster{{id: "master-a"}, {id: "master-b"}}
	} else {
		t.masters = []*topoMaster{{id: "master"}}
	}
	var err error
	if t.dir, err = os.MkdirTemp("", name+"-*"); err != nil {
		return nil, t.failf(0, "state directory: %v", err)
	}
	for i := 0; i < agents; i++ {
		a := &topoAgent{id: fmt.Sprintf("agent-%d", i)}
		t.agents = append(t.agents, a)
		var srv *server.Server
		if i == 0 {
			srv, _, err = t.bootAgent0()
		} else {
			srv, _, err = server.Open(t.repo, server.Config{Core: core.Config{Alpha: alpha}})
		}
		if err != nil {
			t.close()
			return nil, t.failf(0, "agent %s: %v", a.id, err)
		}
		t.join(a, srv)
	}
	t.stats = server.NewClient(nodeURL(t.agents[0].id), t.chaos)
	t.stats.MaxRetries, t.stats.RetryBase, t.stats.RetryCap = 3, time.Millisecond, 4*time.Millisecond
	t.stats.SetJitter(rand.New(rand.NewSource(seed + 5)).Float64)
	t.stats.SetBreaker(resilience.NewBreaker(resilience.BreakerConfig{Failures: 5, OpenFor: 2 * fleetTick, Now: t.clock.Now}))
	t.stats.SetRetryBudget(resilience.NewRetryBudget(0.5, 20))
	for i := range t.masters {
		t.bootMaster(i, i == 0)
	}
	t.beatAll()
	return t, nil
}

// close shuts the durable agent down and removes its scratch directory.
func (t *fleetTopo) close() {
	if a := t.agents[0]; a.srv != nil && !a.down {
		a.srv.Close()
	}
	os.RemoveAll(t.dir)
}

func (t *fleetTopo) failf(step int, format string, args ...any) *Failure {
	return failf(t.seed, step, t.name+": "+format, args...)
}

// trace puts a node's tracer on the span clock and a seeded ID
// sequence of its own (a 64-bit LCG, never zero). The harness drives
// every request from one goroutine, so each span boundary and ID is a
// function of the schedule.
func (t *fleetTopo) trace(st *telemetry.SpanTracer) {
	st.SetClock(func() int64 { return t.spanClock.Add(1000) })
	t.tracers++
	x := uint64(t.seed+t.tracers)*0x9e3779b97f4a7c15 + 0x6a09e667f3bcc909
	st.SetIDGen(func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return max(x, 1)
	})
}

// bootAgent0 starts one life of agent 0 over its state directory, on
// a fresh FaultFS armed with one seeded fault within its first 120
// operations: fsync before every ack, 16 KB segments, so the WAL's
// size rule compacts within a run, and admission on the logical clock.
// A fault that fires while it recovers is retried once on a clean disk:
// the WAL on disk is still a recoverable history.
func (t *fleetTopo) bootAgent0() (*server.Server, *persist.RecoveryReport, error) {
	open := func(plan FaultPlan) (*server.Server, *persist.RecoveryReport, error) {
		t.disk = NewFaultFS(plan)
		return server.Open(t.repo, server.Config{
			Core:      core.Config{Alpha: t.alpha},
			StateDir:  filepath.Join(t.dir, t.agents[0].id),
			Persist:   persist.Options{FS: t.disk, SyncPolicy: persist.FsyncAlways, SegmentBytes: 16 << 10},
			Admission: resilience.ShedderConfig{Rate: shedRate, Burst: shedBurst, Now: t.clock.Now},
		})
	}
	at := 1 + t.diskRNG.Int63n(120)
	srv, rec, err := open([]FaultPlan{{FailWriteAt: at}, {ShortWriteAt: at}, {FailSyncAt: at}}[t.diskRNG.Intn(3)])
	if err != nil {
		t.diskFaults += t.disk.Injected()
		srv, rec, err = open(FaultPlan{})
	}
	return srv, rec, err
}

// recoverCopy recovers a copy of agent 0's state directory through
// the persist layer alone, audits the cache that replay built
// (CheckIntegrity) and requires its state to marshal to want.
func (t *fleetTopo) recoverCopy(want []byte) error {
	src := filepath.Join(t.dir, t.agents[0].id)
	dst, err := os.MkdirTemp(t.dir, "copy-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dst)
	files, err := os.ReadDir(src)
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join(src, f.Name()))
		if err == nil {
			err = os.WriteFile(filepath.Join(dst, f.Name()), b, 0o644)
		}
		if err != nil {
			return err
		}
	}
	if err != nil {
		return err
	}
	st, err := persist.Open(dst, persist.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	mgr, rec, err := st.RecoverSharded(t.repo, core.Config{Alpha: t.alpha})
	if err != nil {
		return err
	}
	if err := mgr.CheckIntegrity(); err != nil {
		return fmt.Errorf("integrity after %d records: %w", rec.RecordsReplayed, err)
	}
	if got, _ := json.Marshal(mgr.ExportState()); !bytes.Equal(got, want) {
		return fmt.Errorf("state diverged from the crashed one after %d records", rec.RecordsReplayed)
	}
	return nil
}

// join traces srv and joins it to the fleet as agent a's next life: a
// new process generation, so the masters drop their mirror of the last.
func (t *fleetTopo) join(a *topoAgent, srv *server.Server) {
	t.trace(srv.SpanTracer())
	a.lives++
	a.srv, a.ag, a.down = srv, t.newAgent(a.id, a.lives, srv), false
}

// compactions reads how many checkpoints agent 0's current life wrote
// other than its heals' probe checkpoints.
func (t *fleetTopo) compactions() int64 {
	reg := t.agents[0].srv.Registry()
	return reg.Counter("landlord_persist_checkpoints_total", "Checkpoints written").Value() -
		reg.Counter("landlord_persist_heals_total", "Successful in-place store heals (degraded-mode recovery)").Value()
}

// bootMaster starts master i with fresh soft state under its name — a
// first boot or a restart. Everything it sends leaves through the
// network from its own node; its breakers and membership run on the
// logical clock.
func (t *fleetTopo) bootMaster(i int, primary bool) {
	tm := t.masters[i]
	cfg := fleet.MasterConfig{
		MaxAttempts: len(t.agents),
		Breaker:     resilience.BreakerConfig{Failures: 3, OpenFor: 2 * fleetTick, Now: t.clock.Now},
		Clock:       t.clock.Now,
		Transport:   t.net.transport(tm.id),
	}
	if len(t.masters) == 2 {
		cfg.HA = fleet.HAConfig{ID: tm.id, PeerURL: nodeURL(t.masters[1-i].id), StartPrimary: primary}
	}
	tm.m = fleet.NewMaster(cfg)
	tm.alive = true
	t.trace(tm.m.SpanTracer())
	t.net.register(tm.id, tm.m.Handler())
}

// killMaster takes master i off the network.
func (t *fleetTopo) killMaster(i int) {
	t.masters[i].alive = false
	t.net.unregister(t.masters[i].id)
}

// newAgent joins srv to the fleet as node id in process generation
// gen, linked to every master.
func (t *fleetTopo) newAgent(id string, gen uint64, srv *server.Server) *fleet.Agent {
	urls := make([]string, len(t.masters))
	for i, m := range t.masters {
		urls[i] = nodeURL(m.id)
	}
	ag := fleet.NewAgent(fleet.AgentConfig{
		ID: id, AdvertiseURL: nodeURL(id), MasterURLs: urls, HTTPClient: t.net.client(id), Gen: gen,
	}, srv)
	t.net.register(id, ag.Handler())
	return ag
}

// tick advances the clock a tick, on which agent 0's heal probe runs
// if its store is failing; a heal that leaves it unready is counted
// for the next audit to fail on.
func (t *fleetTopo) tick() {
	t.clock.ns.Add(int64(fleetTick))
	if a := t.agents[0]; !a.down {
		if healed, _ := a.srv.ProbeDegradedNow(); healed && !a.srv.Ready() {
			t.unready++
		}
	}
}

// beatAll is one heartbeat interval: the clock advances a tick and every
// agent still in the fleet beats every master. A beat a dead master or
// a cut link refuses fails; the next round retries.
func (t *fleetTopo) beatAll() {
	t.tick()
	for _, a := range t.agents {
		if !a.drained && !a.down {
			a.ag.BeatNow(context.Background())
		}
	}
}

// agent returns the fleet agent named id (nil for any other node).
func (t *fleetTopo) agent(id string) *topoAgent {
	for _, a := range t.agents {
		if a.id == id {
			return a
		}
	}
	return nil
}

// leaseTicks drives one lease tick on every live master.
func (t *fleetTopo) leaseTicks() {
	for _, m := range t.masters {
		if m.alive {
			m.m.LeaseTick(context.Background())
		}
	}
}

// roles returns the live primary with the highest epoch and, in a pair,
// the other master (-1 beside a plain master, which is always primary).
func (t *fleetTopo) roles() (primary, other int) {
	if len(t.masters) == 1 {
		return 0, -1
	}
	primary = -1
	var best uint64
	for i, m := range t.masters {
		if st := m.m.HAStatusNow(); m.alive && st.Role == "primary" && (primary < 0 || st.Epoch > best) {
			primary, best = i, st.Epoch
		}
	}
	return primary, 1 - primary
}

// partition cuts (on) or heals every link between a and the masters, in
// both directions: the masters cannot forward to it, its beats fail.
func (t *fleetTopo) partition(a *topoAgent, on bool) {
	for _, m := range t.masters {
		t.net.setCut(m.id, a.id, on)
		t.net.setCut(a.id, m.id, on)
	}
	a.partitioned = on
}

// api is a harness client for node id's API: no retries and no breaker,
// because the auditor must see every outcome raw.
func (t *fleetTopo) api(id string) *server.Client {
	c := server.NewClient(nodeURL(id), t.client)
	c.MaxRetries = 0
	c.SetBreaker(nil)
	return c
}

// post offers body to master i over c. It reads the response itself,
// since a 200's epoch stamp matters as much as its body; a response cut
// short in transit counts as refused.
func (t *fleetTopo) post(c *http.Client, i int, body []byte) fleetReply {
	resp, err := c.Post(nodeURL(t.masters[i].id)+"/v1/request", "application/json", bytes.NewReader(body))
	if err != nil {
		return fleetReply{}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return fleetReply{}
	}
	r := fleetReply{status: resp.StatusCode, retry: resp.Header.Get("Retry-After")}
	r.epoch, _ = strconv.ParseUint(resp.Header.Get(server.EpochHeader), 10, 64)
	if resp.StatusCode == http.StatusOK {
		json.Unmarshal(b, &r.res)
	}
	return r
}

// retry runs try round after round, up to serveRounds, until it
// succeeds, advancing the clock a tick after each failed round.
func (t *fleetTopo) retry(try func() bool) bool {
	for round := 0; round < serveRounds; round++ {
		if try() {
			return true
		}
		t.tick()
	}
	return false
}

// serve offers keys to every live master, round after round, until one
// answers 200: the bounded retry that absorbs what a fault leaves
// behind while it is being learned (a suspect agent until its next
// beat, a breaker cooling down, a superseded primary's refusal, a
// shed).
func (t *fleetTopo) serve(keys []string) (res fleet.RouteResponse, ok bool) {
	body, _ := json.Marshal(server.RequestBody{Packages: keys}) // a string list always marshals
	ok = t.retry(func() bool {
		for i, m := range t.masters {
			if !m.alive {
				continue
			}
			if r := t.post(t.client, i, body); r.status == http.StatusOK {
				res = r.res
				return true
			}
		}
		return false
	})
	return res, ok
}

// request offers keys straight to agent id, retrying past each shed:
// agent 0's admission refills on the logical clock.
func (t *fleetTopo) request(id string, keys []string) (server.RequestResponse, error) {
	return t.requestClose(id, keys, false)
}

// requestClose is request with the body's close flag.
func (t *fleetTopo) requestClose(id string, keys []string, close bool) (res server.RequestResponse, err error) {
	t.retry(func() bool {
		res, err = t.api(id).Request(keys, close)
		return !isStatus(err, http.StatusTooManyRequests)
	})
	return res, err
}

// auditCloseFlag sends package id alone to agent, which holds its
// closure, twice: with close:true it must hit as the closure, then with
// close:false as the one package. A package without dependencies is
// its own closure and is skipped. The second body differs from the
// first only in its close flag, which is where the reqmemo mutant
// (internal/server) answers from the first one's memo entry.
func (t *fleetTopo) auditCloseFlag(step int, agent string, id pkggraph.PkgID) *Failure {
	one := spec.New([]pkggraph.PkgID{id})
	closed := spec.WithClosure(t.repo, one.IDs())
	if closed.Len() == 1 {
		return nil
	}
	keys := keysOf(t.repo, one)
	for _, want := range []struct {
		close bool
		sp    spec.Spec
	}{{true, closed}, {false, one}} {
		res, err := t.requestClose(agent, keys, want.close)
		if bytes := t.repo.SetSize(want.sp.IDs()); err != nil || res.Op != "hit" || res.Packages != want.sp.Len() || res.RequestBytes != bytes {
			return t.failf(step, "%s held the closure of %s; sent alone with close:%v: %s of %d packages, %d bytes, want a hit of %d packages, %d bytes, err %v",
				agent, keys[0], want.close, res.Op, res.Packages, res.RequestBytes, want.sp.Len(), bytes, err)
		}
	}
	return nil
}

// auditAcked is the zero-lost-acks audit, in ack order: every spec
// acknowledged by agent only (by any agent if only is empty) is a hit
// on the agent that acked it, reached directly (partitions cut only the
// master links; a drained or crashed agent is skipped), and then 200
// through the fleet.
func (t *fleetTopo) auditAcked(step int, only string) *Failure {
	var acks []ackedReq
	for _, ack := range t.acks.acks {
		if only == "" || ack.agent == only {
			acks = append(acks, ack)
		}
	}
	for _, ack := range acks {
		if a := t.agent(ack.agent); a == nil || a.drained || a.down {
			continue
		}
		res, err := t.request(ack.agent, ack.keys)
		if err != nil {
			return t.failf(step, "acked spec from step %d unservable on %s: %v", ack.step, ack.agent, err)
		}
		if res.Op != "hit" {
			return t.failf(step, "acked spec from step %d lost on %s: op %q (spec %s)",
				ack.step, ack.agent, res.Op, strings.Join(ack.keys, ","))
		}
	}
	for _, ack := range acks {
		if _, ok := t.serve(ack.keys); !ok {
			return t.failf(step, "acked spec from step %d unservable through the fleet", ack.step)
		}
	}
	return nil
}

// rings returns every agent's trace ring, then every live master's,
// read over its /v1/trace. A crashed agent's is its last life's.
func (t *fleetTopo) rings() []telemetry.Trace {
	var out []telemetry.Trace
	for _, a := range t.agents {
		out = append(out, a.srv.TraceRing().Dump(0)...)
	}
	for _, m := range t.masters {
		var ring []telemetry.Trace
		if m.alive && t.api(m.id).DoCtx(context.Background(), http.MethodGet, "/v1/trace", nil, &ring) == nil {
			out = append(out, ring...)
		}
	}
	return out
}

// harvest adds the stages of traces to the run's coverage.
func (t *fleetTopo) harvest(traces []telemetry.Trace) {
	for _, tr := range traces {
		for _, sp := range tr.Spans {
			t.stages[sp.Stage] = true
		}
	}
}

// checkIntegrity audits every live master's routing index against a
// rebuild from its mirrored directories.
func (t *fleetTopo) checkIntegrity(step int) *Failure {
	for _, m := range t.masters {
		if m.alive {
			if err := m.m.CheckIntegrity(); err != nil {
				return t.failf(step, "%s routing index: %v", m.id, err)
			}
		}
	}
	return nil
}

// auditMirrors requires every live master's mirror of every agent the
// round's beats reached to be that agent's directory as the beat
// gossiped it: the images its server holds, with their versions, sizes
// and package keys. CheckIntegrity holds the index to the mirror; this
// holds the mirror to the agent, so a frame the master misread shows
// here. Partitioned, drained and crashed agents are skipped, their
// last beat having reached no master; nothing may run between the round
// and this audit.
func (t *fleetTopo) auditMirrors(step int) *Failure {
	for _, a := range t.agents {
		if a.partitioned || a.drained || a.down {
			continue
		}
		sizes := make(map[uint64]server.ImageInfo)
		for _, im := range a.srv.ImagesNow() {
			sizes[im.ID] = im
		}
		var want []fleet.DirEntry
		for _, snap := range a.srv.ExportState().Images {
			im := sizes[snap.ID]
			want = append(want, fleet.DirEntry{ID: snap.ID, Version: im.Version, Size: im.Size, Packages: snap.Packages})
		}
		slices.SortFunc(want, func(x, y fleet.DirEntry) int { return cmp.Compare(x.ID, y.ID) })
		for _, m := range t.masters {
			if !m.alive {
				continue
			}
			mirror, ok := m.m.Mirror(a.id)
			if !ok {
				return t.failf(step, "%s has no mirror of %s after a heartbeat round", m.id, a.id)
			}
			got := mirror.Upserts
			for i := 0; i < max(len(got), len(want)); i++ {
				switch {
				case i == len(got):
					return t.failf(step, "%s's mirror of %s (rev %d) lacks image %d", m.id, a.id, mirror.To, want[i].ID)
				case i == len(want):
					return t.failf(step, "%s's mirror of %s (rev %d) holds image %d the agent does not", m.id, a.id, mirror.To, got[i].ID)
				case !got[i].Equal(want[i]):
					g, w := got[i], want[i]
					return t.failf(step, "%s's mirror of %s (rev %d) holds image %d v%d, %d bytes, %d package(s); the agent holds image %d v%d, %d bytes, %d package(s)",
						m.id, a.id, mirror.To, g.ID, g.Version, g.Size, len(g.Packages), w.ID, w.Version, w.Size, len(w.Packages))
				}
			}
		}
	}
	return nil
}

// ackedReq is one acknowledged request: the durability contract says
// its spec must be served as a hit by every later audit.
type ackedReq struct {
	keys  []string
	step  int
	agent string // the fleet agent that acked it
}

// ackLog holds the acknowledged requests in the order first acked, so
// the first loss an audit reports is a function of the schedule; a
// spec acked again updates its entry in place.
type ackLog struct {
	acks []ackedReq
	at   map[string]int // joined keys -> index in acks
}

// add records a, returning the entry it replaced, if any.
func (l *ackLog) add(a ackedReq) (prev ackedReq, again bool) {
	joined := strings.Join(a.keys, ",")
	if i, ok := l.at[joined]; ok {
		prev, l.acks[i] = l.acks[i], a
		return prev, true
	}
	if l.at == nil {
		l.at = make(map[string]int)
	}
	l.at[joined] = len(l.acks)
	l.acks = append(l.acks, a)
	return ackedReq{}, false
}

// encodeRequest renders a request for keys in the shape drawn (of 8;
// half the draws are the canonical body Client itself sends), asking
// the server to close the list or not, and names the shape.
func encodeRequest(shape int, closed bool, keys []string) ([]byte, string) {
	quoted := make([]string, len(keys))
	for i, k := range keys {
		q, _ := json.Marshal(k) // a string always marshals
		quoted[i] = string(q)
	}
	list := strings.Join(quoted, ",")
	flag, suffix := "false", ""
	if closed {
		flag, suffix = "true", "+close"
		if shape == 3 {
			shape = 4 // an omitted close means false: send the canonical body
		}
	}
	switch shape {
	case 0:
		return []byte(`{"packages":[` + strings.ReplaceAll(list, "/", `\/`) + `],"close":` + flag + `}`), "escaped" + suffix
	case 1:
		return []byte("{ \"packages\" : [\n\t" + strings.Join(quoted, " ,\n\t") + "\n] ,\r\n \"close\" : " + flag + " }\n"), "whitespace" + suffix
	case 2:
		return []byte(`{"close":` + flag + `,"packages":[` + list + `]}`), "close-first" + suffix
	case 3:
		return []byte(`{"packages":[` + list + `]}`), "close-omitted"
	default:
		return []byte(`{"packages":[` + list + `],"close":` + flag + `}`), "canonical" + suffix
	}
}

// isStatus reports whether err is a *server.StatusError with the given
// code.
func isStatus(err error, status int) bool {
	var se *server.StatusError
	return errors.As(err, &se) && se.Status == status
}

// keysOf renders a spec as the package keys the HTTP API accepts.
func keysOf(repo *pkggraph.Repo, s spec.Spec) []string {
	ids := s.IDs()
	keys := make([]string, 0, len(ids))
	for _, id := range ids {
		keys = append(keys, repo.Package(id).Key())
	}
	return keys
}
