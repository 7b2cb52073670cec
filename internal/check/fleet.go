package check

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
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
)

// fleetTick is how far the fleet's logical clock moves per heartbeat
// round and per retry round. A master's per-agent breaker stays open
// for two.
const fleetTick = 5 * time.Millisecond

// serveRounds bounds serve's retry rounds.
const serveRounds = 20

// logicalClock is the fleet's time: it moves only when the harness
// advances it, so breaker cool-downs and heartbeat ages are functions
// of the schedule.
type logicalClock struct{ ns atomic.Int64 }

func (c *logicalClock) Now() time.Time { return time.Unix(0, c.ns.Load()) }

// fleetTopo is the fleet the fleet harness runs on: one plain master
// or an HA pair, N agents (agent 0 durable) and the harness's own
// client, all nodes of one memNet and all on one logical clock. Agents
// have unlimited capacity, so an acknowledged spec can never be
// evicted: any later miss is a real loss. RunFleetChaos is a fault
// schedule and audits over it.
type fleetTopo struct {
	name  string // the harness, prefixed to every diagnostic
	seed  int64
	alpha float64
	repo  *pkggraph.Repo
	net   *memNet
	clock logicalClock
	// client is the harness's node: every audit request leaves from it.
	client  *http.Client
	masters []*topoMaster
	agents  []*topoAgent
	acks    ackLog // every spec acknowledged through the fleet
	dir     string // scratch directory holding agent 0's state directory
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
}

// fleetReply is one /v1/request answer as the client saw it; status 0
// means the request was refused at the transport.
type fleetReply struct {
	status int
	epoch  uint64
	retry  string
	res    fleet.RouteResponse
}

// newFleetTopo boots the fleet: agents (agent 0 persistent, the rest
// in memory), then masters, then one heartbeat round. With two masters
// they are a pair, master-a starting as primary; with one it is a plain
// master.
func newFleetTopo(name string, seed int64, agents int, alpha float64, masters int) (*fleetTopo, *Failure) {
	t := &fleetTopo{
		name: name, seed: seed, alpha: alpha,
		repo: SmallRepo(seed),
		net:  newMemNet(),
	}
	t.client = t.net.client("client")
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
		cfg := server.Config{Core: core.Config{Alpha: alpha}}
		if i == 0 {
			cfg.StateDir = filepath.Join(t.dir, a.id)
		}
		if a.srv, _, err = server.Open(t.repo, cfg); err != nil {
			t.close()
			return nil, t.failf(0, "agent %s: %v", a.id, err)
		}
		a.ag = t.newAgent(a.id, a.srv)
		t.agents = append(t.agents, a)
	}
	for i := range t.masters {
		t.bootMaster(i, i == 0)
	}
	t.beatAll()
	return t, nil
}

// close shuts the durable agent down and removes its scratch directory.
func (t *fleetTopo) close() {
	if len(t.agents) > 0 {
		t.agents[0].srv.Close()
	}
	os.RemoveAll(t.dir)
}

func (t *fleetTopo) failf(step int, format string, args ...any) *Failure {
	return failf(t.seed, step, t.name+": "+format, args...)
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
	t.net.register(tm.id, tm.m.Handler())
}

// killMaster takes master i off the network.
func (t *fleetTopo) killMaster(i int) {
	t.masters[i].alive = false
	t.net.unregister(t.masters[i].id)
}

// newAgent joins srv to the fleet as node id, linked to every master.
func (t *fleetTopo) newAgent(id string, srv *server.Server) *fleet.Agent {
	urls := make([]string, len(t.masters))
	for i, m := range t.masters {
		urls[i] = nodeURL(m.id)
	}
	ag := fleet.NewAgent(fleet.AgentConfig{
		ID: id, AdvertiseURL: nodeURL(id), MasterURLs: urls, HTTPClient: t.net.client(id),
	}, srv)
	t.net.register(id, ag.Handler())
	return ag
}

// beatAll is one heartbeat interval: the clock advances a tick and every
// agent still in the fleet beats every master. A beat a dead master or
// a cut link refuses fails; the next round retries.
func (t *fleetTopo) beatAll() {
	t.clock.ns.Add(int64(fleetTick))
	for _, a := range t.agents {
		if !a.drained {
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

// post offers keys to master i. It reads the response itself, since a
// 200's epoch stamp matters as much as its body.
func (t *fleetTopo) post(i int, keys []string) fleetReply {
	body, _ := json.Marshal(server.RequestBody{Packages: keys}) // a string list always marshals
	resp, err := t.client.Post(nodeURL(t.masters[i].id)+"/v1/request", "application/json", bytes.NewReader(body))
	if err != nil {
		return fleetReply{}
	}
	defer resp.Body.Close()
	r := fleetReply{status: resp.StatusCode, retry: resp.Header.Get("Retry-After")}
	r.epoch, _ = strconv.ParseUint(resp.Header.Get(server.EpochHeader), 10, 64)
	if resp.StatusCode == http.StatusOK {
		json.NewDecoder(resp.Body).Decode(&r.res)
	}
	return r
}

// serve offers keys to every live master, round after round, until one
// answers 200: the bounded retry that absorbs what a fault leaves
// behind while it is being learned (a suspect agent until its next
// beat, a breaker cooling down, a superseded primary's refusal). Each
// failed round advances the clock a tick.
func (t *fleetTopo) serve(keys []string) (fleet.RouteResponse, bool) {
	for round := 0; round < serveRounds; round++ {
		for i, m := range t.masters {
			if m.alive {
				if r := t.post(i, keys); r.status == http.StatusOK {
					return r.res, true
				}
			}
		}
		t.clock.ns.Add(int64(fleetTick))
	}
	return fleet.RouteResponse{}, false
}

// auditAcked is the zero-lost-acks audit, in ack order: every
// acknowledged spec is a hit on the agent that acked it, reached
// directly (partitions cut only the master links; a drained agent is
// skipped), and then 200 through the fleet.
func (t *fleetTopo) auditAcked(step int) *Failure {
	for _, ack := range t.acks.acks {
		if a := t.agent(ack.agent); a == nil || a.drained {
			continue
		}
		res, err := t.api(ack.agent).Request(ack.keys, false)
		if err != nil {
			return t.failf(step, "acked spec from step %d unservable on %s: %v", ack.step, ack.agent, err)
		}
		if res.Op != "hit" {
			return t.failf(step, "acked spec from step %d lost on %s: op %q (spec %s)",
				ack.step, ack.agent, res.Op, strings.Join(ack.keys, ","))
		}
	}
	for _, ack := range t.acks.acks {
		if _, ok := t.serve(ack.keys); !ok {
			return t.failf(step, "acked spec from step %d unservable through the fleet", ack.step)
		}
	}
	return nil
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
// here. Partitioned and drained agents are skipped, their last beat
// having reached no master; nothing may run between the round and this
// audit.
func (t *fleetTopo) auditMirrors(step int) *Failure {
	for _, a := range t.agents {
		if a.partitioned || a.drained {
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

// auditRecovery recovers a copy of the persistent agent's state
// directory, as a restart would, and requires the recovered cache to
// pass CheckIntegrity and to equal the live agent's state byte for
// byte. It returns how many WAL records the recovery replayed.
func (t *fleetTopo) auditRecovery(step int) (int, *Failure) {
	a := t.agents[0]
	src := filepath.Join(t.dir, a.id)
	dst, err := os.MkdirTemp(t.dir, "recovery-*")
	if err != nil {
		return 0, t.failf(step, "recovery audit: %v", err)
	}
	defer os.RemoveAll(dst)
	files, err := os.ReadDir(src)
	if err != nil {
		return 0, t.failf(step, "recovery audit: %v", err)
	}
	for _, f := range files {
		if !f.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, f.Name()))
		if err == nil {
			err = os.WriteFile(filepath.Join(dst, f.Name()), b, 0o644)
		}
		if err != nil {
			return 0, t.failf(step, "recovery audit: copying %s: %v", f.Name(), err)
		}
	}
	st, err := persist.Open(dst, persist.Options{})
	if err != nil {
		return 0, t.failf(step, "recovery audit: %v", err)
	}
	defer st.Close()
	mgr, rec, err := st.RecoverSharded(t.repo, core.Config{Alpha: t.alpha})
	if err != nil {
		return 0, t.failf(step, "recovering %s's state dir: %v", a.id, err)
	}
	if err := mgr.CheckIntegrity(); err != nil {
		return 0, t.failf(step, "recovered %s fails its integrity audit after %d records: %v", a.id, rec.RecordsReplayed, err)
	}
	got, err := json.Marshal(mgr.ExportState())
	if err != nil {
		return 0, t.failf(step, "marshal recovered state: %v", err)
	}
	live, err := json.Marshal(a.srv.ExportState())
	if err != nil {
		return 0, t.failf(step, "marshal %s state: %v", a.id, err)
	}
	if !bytes.Equal(got, live) {
		return 0, t.failf(step, "recovered state diverged from %s after %d records", a.id, rec.RecordsReplayed)
	}
	return rec.RecordsReplayed, nil
}
