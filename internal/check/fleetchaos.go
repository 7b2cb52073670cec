package check

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/server"
)

// FleetChaosConfig parameterizes one fleet chaos run: a master fronting
// N agents (fleetTopo), with seeded partitions between the master and
// an agent and master crashes mid-stream.
//
// The run is a function of its config: two runs report identically
// (TestFleetChaosDeterministic) and a failure recurs at the same step
// with the same diagnostic. The invariants:
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
//     mutant);
//   - faithful mirrors: after every heartbeat round, each master's
//     mirror of an agent the round reached equals that agent's own
//     directory (auditMirrors — the audit that catches the dirscan
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
	Errors      int // any other failure reaching the client
	Partitions  int // partition events (cuts, not heals)
	MasterKills int
	// KeyMoveFraction is the sampled keyspace fraction the join audit
	// moved.
	KeyMoveFraction float64
}

// RunFleetChaos executes the fleet chaos schedule and audits the
// invariants. It returns a nil Failure on a clean run.
func RunFleetChaos(cfg FleetChaosConfig) (FleetChaosReport, *Failure) {
	var rep FleetChaosReport
	if cfg.Agents < 2 {
		return rep, failf(cfg.Seed, 0, "fleetchaos: Agents must be >= 2")
	}
	t, f := newFleetTopo("fleetchaos", cfg.Seed, cfg.Agents, cfg.Alpha, false)
	if f != nil {
		return rep, f
	}
	defer t.close()
	rng := rand.New(rand.NewSource(cfg.Seed))
	stream := NewStream(t.repo, cfg.Seed+1)

	// restartMaster kills the master and boots a fresh one in its place:
	// no soft state, so beats are told Unknown, re-register, and replay
	// full directories within one round.
	restartMaster := func(step int) *Failure {
		t.killMaster(0)
		rep.MasterKills++
		t.bootMaster(0, true)
		t.beatAll()
		if f := t.auditMirrors(step); f != nil {
			return f
		}
		if err := t.api(t.masters[0].id).Ready(); err != nil {
			return t.failf(step, "master not ready after restart (no agent re-registered): %v", err)
		}
		return t.auditAcked(step)
	}

	togglePartition := func() {
		a := t.agents[rng.Intn(len(t.agents))]
		if a.partitioned {
			t.partition(a, false)
			return
		}
		n := 0
		for _, other := range t.agents {
			if other.partitioned {
				n++
			}
		}
		if n >= len(t.agents)-1 {
			return // keep at least one agent routable
		}
		t.partition(a, true)
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
			if f := restartMaster(step); f != nil {
				return rep, f
			}
		}
		if step == cfg.Steps/2 {
			if f := auditKeyMovement(t, &rep, step); f != nil {
				return rep, f
			}
			if f := auditMirrorEvictions(t, step); f != nil {
				return rep, f
			}
		}
		t.beatAll()
		if f := t.checkIntegrity(step); f != nil {
			return rep, f
		}
		if f := t.auditMirrors(step); f != nil {
			return rep, f
		}

		keys := keysOf(t.repo, stream.Next())
		r := t.post(0, keys)
		rep.Steps++
		switch r.status {
		case http.StatusOK:
		case http.StatusServiceUnavailable:
			rep.Unavailable++
			continue
		case http.StatusTooManyRequests:
			rep.Sheds++
			continue
		default:
			rep.Errors++
			continue
		}
		if r.res.Agent == "" {
			return rep, t.failf(step, "200 with no agent attribution")
		}
		if a := t.agent(r.res.Agent); a != nil && a.partitioned {
			return rep, t.failf(step, "request attributed to partitioned agent %s", a.id)
		}
		rep.Acked++
		t.acks.add(ackedReq{keys: keys, step: step, agent: r.res.Agent})
	}

	// Heal every partition, then a final master kill: the run always
	// ends with a full soft-state recovery audit.
	for _, a := range t.agents {
		t.partition(a, false)
	}
	if f := restartMaster(cfg.Steps); f != nil {
		return rep, f
	}
	if rep.Acked == 0 {
		return rep, t.failf(cfg.Steps, "no request was ever acknowledged")
	}
	return rep, nil
}

// auditKeyMovement runs the deterministic churn audit mid-stream: a
// fresh agent joins, at most 2/(N+1) of a sampled keyspace moves (all
// of it to the joiner), and its departure restores the original
// assignment exactly.
func auditKeyMovement(t *fleetTopo, rep *FleetChaosReport, step int) *Failure {
	const samples = 300
	master := t.api(t.masters[0].id)
	sample := func() ([]string, *Failure) {
		owners := make([]string, samples)
		for i := range owners {
			var info fleet.RouteInfo
			path := fmt.Sprintf("/fleet/v1/route?key=%d", uint64(i)*0x9e3779b97f4a7c15)
			if err := master.DoCtx(context.Background(), http.MethodGet, path, nil, &info); err != nil {
				return nil, t.failf(step, "sampling route: %v", err)
			}
			owners[i] = info.Owner
		}
		return owners, nil
	}

	t.beatAll()
	var members []fleet.MemberInfo
	if err := master.DoCtx(context.Background(), http.MethodGet, "/fleet/v1/members", nil, &members); err != nil {
		return t.failf(step, "listing members: %v", err)
	}
	n := len(members)
	if n == 0 {
		return t.failf(step, "no members at key-movement audit")
	}
	before, f := sample()
	if f != nil {
		return f
	}

	// Join a throwaway agent. Only its ring membership matters: it serves
	// agent-0's cache, receives no traffic, and leaves before traffic
	// resumes.
	const joiner = "agent-join-audit"
	jag := t.newAgent(joiner, t.agents[0].srv)
	defer t.net.unregister(joiner)
	if err := jag.BeatNow(context.Background()); err != nil {
		return t.failf(step, "joiner registration: %v", err)
	}
	during, f := sample()
	if f != nil {
		return f
	}
	moved := 0
	for i := range before {
		if before[i] != during[i] {
			moved++
			if during[i] != joiner {
				return t.failf(step, "key moved %s -> %s without involving the joiner", before[i], during[i])
			}
		}
	}
	rep.KeyMoveFraction = float64(moved) / samples
	if bound := 2 * samples / (n + 1); moved > bound {
		return t.failf(step, "join moved %d/%d sampled keys, bound %d (2/(N+1), N=%d)", moved, samples, bound, n)
	}
	if moved == 0 {
		return t.failf(step, "join moved no sampled keys; the joiner owns nothing")
	}

	if err := jag.Deregister(); err != nil {
		return t.failf(step, "joiner deregister: %v", err)
	}
	after, f := sample()
	if f != nil {
		return f
	}
	for i := range before {
		if before[i] != after[i] {
			return t.failf(step, "departure did not restore key %d: %s != %s", i, after[i], before[i])
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
// It leaves before traffic resumes.
func auditMirrorEvictions(t *fleetTopo, step int) *Failure {
	srv, err := server.New(t.repo, core.Config{Alpha: t.alpha, Capacity: simCapacity(t.repo, 0.15)})
	if err != nil {
		return t.failf(step, "eviction-audit server: %v", err)
	}
	const id = "agent-evict-audit"
	ag := t.newAgent(id, srv)
	defer t.net.unregister(id)
	direct := t.api(id)
	stream := NewStream(t.repo, t.seed+3)
	for i := 0; i < mirrorAuditRequests; i++ {
		if _, err := direct.Request(keysOf(t.repo, stream.Next()), false); err != nil {
			return t.failf(step, "eviction-audit request %d: %v", i, err)
		}
		if err := ag.BeatNow(context.Background()); err != nil {
			return t.failf(step, "eviction-audit beat %d: %v", i, err)
		}
		if err := t.masters[0].m.CheckIntegrity(); err != nil {
			return t.failf(step, "master routing index after eviction-audit request %d: %v", i, err)
		}
	}
	if srv.StatsNow().Deletes == 0 {
		return t.failf(step, "eviction audit evicted nothing in %d requests; no Removes frame was gossiped", mirrorAuditRequests)
	}
	if err := ag.Deregister(); err != nil {
		return t.failf(step, "eviction-audit deregister: %v", err)
	}
	return nil
}
