package check

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/pkggraph"
	"repro/internal/resilience"
	"repro/internal/server"
)

// FleetChaosConfig parameterizes one fleet chaos run: a real master
// (on its own listener, so its address survives kill/restart) fronting
// N in-process agents, with seeded partitions on the master→agent
// path and master crashes mid-stream.
//
// Like RunNetChaos, the report is not bit-for-bit reproducible; the
// contract is the invariants:
//
//   - zero lost acks: every request acknowledged through the master is
//     still served afterwards — through the master, and as a hit on
//     the agent that acked it (agents are never killed here; the
//     per-agent cache is the durable thing a partition cannot erase);
//   - route-around: a successful request is never attributed to a
//     currently partitioned agent;
//   - soft-state recovery: a killed and restarted master rebuilds
//     membership from agent re-registration and keeps serving;
//   - bounded key movement: one agent joining moves at most 2/(N+1) of
//     a sampled keyspace (all of it to the joiner), and the agent
//     leaving again restores the original assignment exactly;
//   - indexed mirrors: after every round, and after every gossip frame
//     of a mid-stream eviction audit, each member's routing index
//     equals a rebuild from its mirrored directory
//     (Master.CheckIntegrity — the audit that catches the staleindex
//     mutant).
type FleetChaosConfig struct {
	Seed  int64
	Steps int // requests through the master
	// Agents is the fleet size (>= 2 for the invariants to bite).
	Agents int
	Alpha  float64
	// PartitionEvery is the mean gap, in steps, between partition
	// toggles (0 disables).
	PartitionEvery int
	// MasterKillEvery is the mean gap, in steps, between master
	// kill/restart cycles (0 disables; a final kill always runs).
	MasterKillEvery int
}

// FleetChaosDefault is the canonical fleet-chaos configuration for a
// seed.
func FleetChaosDefault(seed int64) FleetChaosConfig {
	return FleetChaosConfig{
		Seed: seed, Steps: 240, Agents: 3, Alpha: 0.6,
		PartitionEvery:  40,
		MasterKillEvery: 80,
	}
}

// FleetChaosReport summarizes one run.
type FleetChaosReport struct {
	Steps       int
	Acked       int // 200s through the master
	Unavailable int // 503s (partition being learned, no routable agent)
	Sheds       int // 429s relayed from agents
	Errors      int // transport-level failures reaching the client
	Partitions  int // partition events (cuts, not heals)
	MasterKills int
	// KeyMoveFraction is the sampled keyspace fraction the join audit
	// moved.
	KeyMoveFraction float64
}

// fleetAgent bundles one agent's moving parts.
type fleetAgent struct {
	id          string
	srv         *server.Server
	ts          *httptest.Server
	ag          *fleet.Agent
	chaos       *resilience.ChaosTransport // master→agent path
	partitioned bool
}

// RunFleetChaos executes the fleet chaos schedule and audits the
// invariants. It returns a nil Failure on a clean run.
func RunFleetChaos(cfg FleetChaosConfig) (FleetChaosReport, *Failure) {
	if cfg.Agents < 2 {
		return FleetChaosReport{}, failf(cfg.Seed, 0, "fleetchaos: Agents must be >= 2")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	repo := SmallRepo(cfg.Seed)
	stream := NewStream(repo, cfg.Seed+1)
	var rep FleetChaosReport

	// Agents: in-memory servers with unlimited capacity, so an acked
	// spec can never be evicted — any post-fault miss is a real loss.
	agents := make([]*fleetAgent, cfg.Agents)
	transportFor := make(map[string]http.RoundTripper, cfg.Agents)
	for i := range agents {
		srv, err := server.New(repo, core.Config{Alpha: cfg.Alpha})
		if err != nil {
			return rep, failf(cfg.Seed, 0, "fleetchaos: agent server: %v", err)
		}
		ts := httptest.NewServer(srv.Handler())
		a := &fleetAgent{
			id:    fmt.Sprintf("agent-%d", i),
			srv:   srv,
			ts:    ts,
			chaos: resilience.NewChaosTransport(http.DefaultTransport, resilience.ChaosPlan{Seed: cfg.Seed + 10 + int64(i)}),
		}
		transportFor[ts.URL] = a.chaos
		agents[i] = a
	}
	defer func() {
		for _, a := range agents {
			a.ts.Close()
		}
	}()

	mcfg := fleet.MasterConfig{
		Quorum:         1,
		SuspectAfter:   40 * time.Millisecond,
		DeadAfter:      0, // partitions never shrink the ring
		ForwardTimeout: 150 * time.Millisecond,
		MaxAttempts:    cfg.Agents,
		Breaker:        resilience.BreakerConfig{Failures: 3, OpenFor: 10 * time.Millisecond},
		TransportFor:   func(url string) http.RoundTripper { return transportFor[url] },
	}

	// The master listens on its own socket so kill/restart keeps the
	// address the agents and client are configured with.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return rep, failf(cfg.Seed, 0, "fleetchaos: listen: %v", err)
	}
	addr := ln.Addr().String()
	masterURL := "http://" + addr

	var hs *http.Server
	var master *fleet.Master
	var client *server.Client
	bootMaster := func(l net.Listener) {
		master = fleet.NewMaster(mcfg)
		hs = &http.Server{Handler: master.Handler()}
		go hs.Serve(l)
		// Fresh client per master life: keep-alive connections into the
		// killed process would surface as spurious transport errors.
		client = server.NewClient(masterURL, &http.Client{Transport: &http.Transport{}})
		client.MaxRetries = 0
		// The harness client is the auditor, not a production caller:
		// it must observe every outcome raw, not fail fast behind its
		// own breaker while the fleet is mid-fault.
		client.SetBreaker(nil)
	}
	bootMaster(ln)
	defer func() { hs.Close() }()

	for i := range agents {
		agents[i].ag = fleet.NewAgent(fleet.AgentConfig{
			ID:           agents[i].id,
			AdvertiseURL: agents[i].ts.URL,
			MasterURL:    masterURL,
			Interval:     time.Hour, // beats are driven by the schedule
			BeatTimeout:  time.Second,
		}, agents[i].srv)
	}

	beatAll := func() {
		for _, a := range agents {
			a.ag.BeatNow(context.Background()) // paused/partitioned beats no-op or fail; the next round retries
		}
	}
	beatAll()

	partitionedSet := func() map[string]bool {
		out := map[string]bool{}
		for _, a := range agents {
			if a.partitioned {
				out[a.id] = true
			}
		}
		return out
	}

	// routeVia asks the live master to place one spec.
	routeVia := func(keys []string) (fleet.RouteResponse, error) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		var out fleet.RouteResponse
		err := client.DoCtx(ctx, http.MethodPost, "/v1/request",
			server.RequestBody{Packages: keys, Close: false}, &out)
		return out, err
	}

	type ackedReq struct {
		keys  []string
		step  int
		agent string
	}
	acked := make(map[string]ackedReq)

	// auditAcked checks the zero-lost-acks contract: every acked spec
	// is a hit on its acking agent (reached directly — partitions only
	// cut the master path) and 200 through the master.
	auditAcked := func(step int) *Failure {
		for _, a := range agents {
			direct := server.NewClient(a.ts.URL, a.ts.Client())
			for key, ar := range acked {
				if ar.agent != a.id {
					continue
				}
				res, err := requestNoShed(direct, ar.keys)
				if err != nil {
					return failf(cfg.Seed, step, "fleetchaos: acked spec from step %d unservable on %s: %v", ar.step, a.id, err)
				}
				if res.Op != "hit" {
					return failf(cfg.Seed, step,
						"fleetchaos: acked spec from step %d lost on %s: op %q (spec %s)", ar.step, a.id, res.Op, key)
				}
			}
		}
		for _, ar := range acked {
			if _, err := routeViaRetry(routeVia, ar.keys, 20); err != nil {
				return failf(cfg.Seed, step, "fleetchaos: acked spec from step %d unservable via master: %v", ar.step, err)
			}
		}
		return nil
	}

	killMaster := func(step int) *Failure {
		hs.Close()
		rep.MasterKills++
		var nl net.Listener
		if !Poll(2*time.Second, func() bool {
			var err error
			nl, err = net.Listen("tcp", addr)
			return err == nil
		}) {
			return failf(cfg.Seed, step, "fleetchaos: could not rebind master address %s", addr)
		}
		bootMaster(nl)
		// The new master has no soft state: beats are told Unknown,
		// re-register, and replay full directories. A single round can
		// lose to a stale pooled connection into the killed process, so
		// converge the way real interval-driven agents do — keep
		// beating until the master reports ready.
		if !Poll(2*time.Second, func() bool {
			beatAll()
			ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
			defer cancel()
			return client.DoCtx(ctx, http.MethodGet, "/v1/readyz", nil, nil) == nil
		}) {
			return failf(cfg.Seed, step, "fleetchaos: master not ready after restart (no agent re-registered)")
		}
		return auditAcked(step)
	}

	togglePartition := func() {
		i := rng.Intn(len(agents))
		a := agents[i]
		if a.partitioned {
			a.chaos.SetPlan(resilience.ChaosPlan{})
			a.ag.SetPaused(false)
			a.partitioned = false
			return
		}
		n := 0
		for _, other := range agents {
			if other.partitioned {
				n++
			}
		}
		if n >= len(agents)-1 {
			return // keep at least one agent routable
		}
		a.chaos.SetPlan(resilience.ChaosPlan{BlackholeP: 1})
		a.ag.SetPaused(true)
		a.partitioned = true
		rep.Partitions++
	}

	event := func(mean int) bool {
		return mean > 0 && rng.Float64() < 1/float64(mean)
	}

	for step := 0; step < cfg.Steps; step++ {
		if event(cfg.PartitionEvery) {
			togglePartition()
		}
		if event(cfg.MasterKillEvery) {
			if f := killMaster(step); f != nil {
				return rep, f
			}
		}
		if step == cfg.Steps/2 {
			if f := auditKeyMovement(cfg, &rep, masterURL, client, agents, beatAll, step); f != nil {
				return rep, f
			}
			if f := auditMirrorEvictions(cfg, repo, master, masterURL, step); f != nil {
				return rep, f
			}
		}
		beatAll()
		if err := master.CheckIntegrity(); err != nil {
			return rep, failf(cfg.Seed, step, "fleetchaos: master routing index: %v", err)
		}

		keys := keysOf(repo, stream.Next())
		res, err := routeVia(keys)
		rep.Steps++
		if err != nil {
			switch {
			case isStatus(err, http.StatusServiceUnavailable):
				rep.Unavailable++
			case isStatus(err, http.StatusTooManyRequests):
				rep.Sheds++
			default:
				rep.Errors++
			}
			continue
		}
		if res.Agent == "" {
			return rep, failf(cfg.Seed, step, "fleetchaos: 200 with no agent attribution")
		}
		if partitionedSet()[res.Agent] {
			return rep, failf(cfg.Seed, step,
				"fleetchaos: request attributed to partitioned agent %s", res.Agent)
		}
		rep.Acked++
		acked[strings.Join(keys, ",")] = ackedReq{keys: keys, step: step, agent: res.Agent}
	}

	// Heal every partition, then a final master kill: the run always
	// ends with a full soft-state recovery audit.
	for _, a := range agents {
		if a.partitioned {
			a.chaos.SetPlan(resilience.ChaosPlan{})
			a.ag.SetPaused(false)
			a.partitioned = false
		}
	}
	if f := killMaster(cfg.Steps); f != nil {
		return rep, f
	}
	if rep.Acked == 0 {
		return rep, failf(cfg.Seed, cfg.Steps, "fleetchaos: no request was ever acknowledged")
	}
	return rep, nil
}

// routeViaRetry absorbs the transient 503s the master serves while a
// fault is still being learned (suspect marking, breaker cool-down).
func routeViaRetry(routeVia func([]string) (fleet.RouteResponse, error), keys []string, tries int) (fleet.RouteResponse, error) {
	var res fleet.RouteResponse
	var err error
	for i := 0; i < tries; i++ {
		res, err = routeVia(keys)
		if err == nil {
			return res, nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return res, err
}

// auditKeyMovement runs the deterministic churn audit mid-stream: a
// fresh agent joins, at most 2/(N+1) of a sampled keyspace moves (all
// of it to the joiner), and its departure restores the original
// assignment exactly.
func auditKeyMovement(cfg FleetChaosConfig, rep *FleetChaosReport, masterURL string,
	client *server.Client, agents []*fleetAgent, beatAll func(), step int) *Failure {
	const samples = 300
	sample := func() ([]string, *Failure) {
		owners := make([]string, samples)
		for i := 0; i < samples; i++ {
			var info fleet.RouteInfo
			key := uint64(i) * 0x9e3779b97f4a7c15
			path := fmt.Sprintf("/fleet/v1/route?key=%d", key)
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			err := client.DoCtx(ctx, http.MethodGet, path, nil, &info)
			cancel()
			if err != nil {
				return nil, failf(cfg.Seed, step, "fleetchaos: sampling route: %v", err)
			}
			owners[i] = info.Owner
		}
		return owners, nil
	}

	beatAll()
	var members []fleet.MemberInfo
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	err := client.DoCtx(ctx, http.MethodGet, "/fleet/v1/members", nil, &members)
	cancel()
	if err != nil {
		return failf(cfg.Seed, step, "fleetchaos: listing members: %v", err)
	}
	n := len(members)
	if n == 0 {
		return failf(cfg.Seed, step, "fleetchaos: no members at key-movement audit")
	}

	before, f := sample()
	if f != nil {
		return f
	}

	// Join a throwaway agent. It serves nothing; only its ring
	// membership matters, and it deregisters before traffic resumes.
	joiner := agents[0] // reuse agent-0's server as the advertise target; it never receives traffic keyed here
	jag := fleet.NewAgent(fleet.AgentConfig{
		ID: "agent-join-audit", AdvertiseURL: joiner.ts.URL, MasterURL: masterURL,
		Interval: time.Hour, BeatTimeout: time.Second,
	}, joiner.srv)
	if err := jag.BeatNow(context.Background()); err != nil {
		return failf(cfg.Seed, step, "fleetchaos: joiner registration: %v", err)
	}

	during, f := sample()
	if f != nil {
		return f
	}
	moved := 0
	for i := range before {
		if before[i] != during[i] {
			moved++
			if during[i] != "agent-join-audit" {
				return failf(cfg.Seed, step,
					"fleetchaos: key moved %s -> %s without involving the joiner", before[i], during[i])
			}
		}
	}
	rep.KeyMoveFraction = float64(moved) / samples
	if bound := 2 * samples / (n + 1); moved > bound {
		return failf(cfg.Seed, step,
			"fleetchaos: join moved %d/%d sampled keys, bound %d (2/(N+1), N=%d)", moved, samples, bound, n)
	}
	if moved == 0 {
		return failf(cfg.Seed, step, "fleetchaos: join moved no sampled keys; the joiner owns nothing")
	}

	if err := jag.Deregister(); err != nil {
		return failf(cfg.Seed, step, "fleetchaos: joiner deregister: %v", err)
	}
	after, f := sample()
	if f != nil {
		return f
	}
	for i := range before {
		if before[i] != after[i] {
			return failf(cfg.Seed, step,
				"fleetchaos: departure did not restore key %d: %s != %s", i, after[i], before[i])
		}
	}
	return nil
}

// mirrorAuditRequests is how many specs auditMirrorEvictions sends.
const mirrorAuditRequests = 40

// auditMirrorEvictions exercises the one gossip frame kind the run
// otherwise never produces: the fleet's agents have unlimited capacity
// (an acked spec must never be evicted), so their directories only
// grow and no delta carries Removes. A throwaway agent over a small
// capacity-bounded cache joins, is driven past its capacity directly —
// nothing it serves is an acked fleet request — and gossips after every
// request; the master's index of its mirror must follow each removal.
// It deregisters before traffic resumes.
func auditMirrorEvictions(cfg FleetChaosConfig, repo *pkggraph.Repo, master *fleet.Master, masterURL string, step int) *Failure {
	srv, err := server.New(repo, core.Config{Alpha: cfg.Alpha, Capacity: simCapacity(repo, 0.15)})
	if err != nil {
		return failf(cfg.Seed, step, "fleetchaos: eviction-audit server: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ag := fleet.NewAgent(fleet.AgentConfig{
		ID: "agent-evict-audit", AdvertiseURL: ts.URL, MasterURL: masterURL,
		Interval: time.Hour, BeatTimeout: time.Second,
	}, srv)
	direct := server.NewClient(ts.URL, ts.Client())
	stream := NewStream(repo, cfg.Seed+3)
	for i := 0; i < mirrorAuditRequests; i++ {
		if _, err := requestNoShed(direct, keysOf(repo, stream.Next())); err != nil {
			return failf(cfg.Seed, step, "fleetchaos: eviction-audit request %d: %v", i, err)
		}
		if err := ag.BeatNow(context.Background()); err != nil {
			return failf(cfg.Seed, step, "fleetchaos: eviction-audit beat %d: %v", i, err)
		}
		if err := master.CheckIntegrity(); err != nil {
			return failf(cfg.Seed, step, "fleetchaos: master routing index after eviction-audit request %d: %v", i, err)
		}
	}
	if srv.StatsNow().Deletes == 0 {
		return failf(cfg.Seed, step, "fleetchaos: eviction audit evicted nothing in %d requests; no Removes frame was gossiped", mirrorAuditRequests)
	}
	if err := ag.Deregister(); err != nil {
		return failf(cfg.Seed, step, "fleetchaos: eviction-audit deregister: %v", err)
	}
	return nil
}
