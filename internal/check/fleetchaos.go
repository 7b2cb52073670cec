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

// FleetChaosConfig parameterizes one fleet chaos run: a plain master or
// a primary + standby pair fronting N agents, agent 0 persistent
// (fleetTopo). One fault schedule, built up front, drives both
// topologies: seeded partitions between an agent and the masters,
// primary kills and, in the pair, lease-holder isolations, then a
// closing drain and a final kill. The run drives every lease tick and
// heartbeat itself, so two runs of a config report identically
// (TestFleetChaosDeterministic) and a failure recurs at the same step
// with the same diagnostic.
//
// The invariants:
//
//   - zero lost acks: every request acknowledged through the fleet is
//     still served after every kill — as a hit on the agent that acked
//     it, and through whichever master holds the lease;
//   - route-around: a 200 never comes from a partitioned agent, and
//     never without an agent's name on it;
//   - soft-state recovery: a killed master restarted with fresh soft
//     state is ready again after one heartbeat round;
//   - bounded key movement: one agent joining moves at most 2/(N+1) of
//     a sampled keyspace (all of it to the joiner), and the agent
//     leaving again restores the original assignment exactly;
//   - indexed mirrors: after every round, and after every gossip frame
//     of a mid-stream eviction audit, each live master's routing index
//     equals a rebuild from its mirrored directories
//     (Master.CheckIntegrity — the audit that catches the staleindex
//     mutant);
//   - faithful mirrors: after every heartbeat round, each live master's
//     mirror of an agent the round reached equals that agent's own
//     directory (auditMirrors — the audit that catches dirscan);
//   - promotion in two: a standby becomes primary after exactly two
//     driven lease ticks of primary silence, never after one (the
//     audit that catches leasetick);
//   - single primary per epoch: no round is acknowledged by two
//     masters, no 200 arrives stamped with an epoch older than one the
//     client has already seen (the audit that catches staleepoch), and
//     no agent's epoch gate records a same-epoch holder conflict;
//   - promoted routing: each agent healthy on the dead or isolated
//     primary just before the cut, and not partitioned, is healthy on
//     the promoted master before any further beat;
//   - demotion: an isolated primary demotes itself off the agents'
//     epoch rejections before its isolation heals;
//   - recovery byte identity: after every kill, a copy of agent 0's
//     state directory recovers to a cache that passes CheckIntegrity
//     and equals the agent's ExportState;
//   - warm handoff: a drained agent's acked specs are still hits
//     through the fleet, served by the successors its drain warmed.
type FleetChaosConfig struct {
	Seed  int64
	Steps int
	// Agents is the fleet size (>= 2: agent 0 is the persistent one,
	// agent 1 drains at the close).
	Agents int
	Alpha  float64
	// Masters is 1 (a plain master) or 2 (a primary + standby pair).
	Masters int
	// Kills is how many scheduled primary kill/restart cycles run; a
	// final kill always runs after the drain audit.
	Kills int
	// Isolations is how many lease isolations run (pair only): the
	// standby loses its path to the lease holder, promotes, and the old
	// primary must demote off the agents' epoch rejections.
	Isolations int
	// PartitionEvery is the mean gap, in steps, between seeded
	// partition toggles (0 disables).
	PartitionEvery int
	// KillPhase shifts every kill and isolation by this many steps — the
	// nightly soak rotates it so the faults land at different points of
	// the request stream while each run stays reproducible.
	KillPhase int
}

// FleetChaosSuite is the canonical pair of runs for a seed, in this
// order: [0] a plain master, [1] a primary + standby pair, on one fault
// schedule.
func FleetChaosSuite(seed int64) []FleetChaosConfig {
	plain := FleetChaosConfig{
		Seed: seed, Steps: 240, Agents: 3, Alpha: 0.6,
		Masters: 1, Kills: 3, PartitionEvery: 40,
	}
	pair := plain
	pair.Masters, pair.Isolations = 2, 2
	return []FleetChaosConfig{plain, pair}
}

// FleetChaosReport summarizes one run.
type FleetChaosReport struct {
	Steps       int
	Acked       int // rounds with exactly one master acking
	Unavailable int // rounds with no ack (a fault being learned)
	Sheds       int // rounds answered 429
	Errors      int // rounds with any other failure
	Partitions  int // agent partitions (cuts, not heals)
	Kills       int // primary kills (scheduled + final)
	Isolations  int // lease-holder isolations
	Promotions  int // audited standby promotions
	Demotions   int // audited old-primary demotions
	MaxEpoch    uint64
	// Recovered sums the WAL records the recovery audits replayed.
	Recovered int
	// StaleRejects sums the agents' epoch-gate rejections — nonzero in
	// any pair run where a superseded primary tried to keep forwarding.
	StaleRejects uint64
	// HandoffSpecs is how many acked specs the drain audit re-verified.
	HandoffSpecs int
	// KeyMoveFraction is the sampled keyspace fraction the join audit
	// moved.
	KeyMoveFraction float64
}

// fleetEvent is one scheduled fault.
type fleetEvent struct {
	kind  string // "kill", "isolate", "heal", "partition", "reconnect"
	agent int    // the agent a partition or reconnect moves
}

// isolationSteps is how long a lease isolation lasts before it heals.
const isolationSteps = 6

// fleetSchedule builds the run's faults as a step → events table:
// kills and isolations alternate across evenly spaced slots shifted by
// KillPhase, each isolation healing isolationSteps later, then seeded
// partition toggles at gaps of 1 to 2×PartitionEvery steps, one agent
// always left routable. A kill slot is listed before a toggle at the
// same step.
func fleetSchedule(cfg FleetChaosConfig) map[int][]fleetEvent {
	at := map[int][]fleetEvent{}
	add := func(step int, kind string, agent int) {
		at[step] = append(at[step], fleetEvent{kind: kind, agent: agent})
	}
	total := cfg.Kills + cfg.Isolations
	isoLeft := cfg.Isolations
	for k := 0; k < total; k++ {
		step := (cfg.Steps*(k+1)/(total+1) + cfg.KillPhase) % cfg.Steps
		step = min(max(step, 5), cfg.Steps-10)
		if k%2 == 0 && isoLeft > 0 {
			isoLeft--
			add(step, "isolate", 0)
			add(step+isolationSteps, "heal", 0)
		} else {
			add(step, "kill", 0)
		}
	}
	if cfg.PartitionEvery > 0 {
		rng := rand.New(rand.NewSource(cfg.Seed))
		gap := func() int { return 1 + rng.Intn(2*cfg.PartitionEvery) }
		cut, n := make([]bool, cfg.Agents), 0
		for step := gap(); step < cfg.Steps; step += gap() {
			switch a := rng.Intn(cfg.Agents); {
			case cut[a]:
				cut[a], n = false, n-1
				add(step, "reconnect", a)
			case n < cfg.Agents-1:
				cut[a], n = true, n+1
				add(step, "partition", a)
			}
		}
	}
	return at
}

// RunFleetChaos executes the fleet chaos schedule and audits the
// invariants. It returns a nil Failure on a clean run; a failure
// carries the persistent agent's span-trace ring for latency context.
func RunFleetChaos(cfg FleetChaosConfig) (rep FleetChaosReport, fail *Failure) {
	if cfg.Agents < 2 || cfg.Steps < 20 || cfg.Masters < 1 || cfg.Masters > 2 || cfg.Masters == 1 && cfg.Isolations > 0 {
		return rep, failf(cfg.Seed, 0, "fleetchaos: want Agents >= 2, Steps >= 20 and 1 or 2 Masters (2 for Isolations)")
	}
	name := "fleetchaos"
	if cfg.Masters == 2 {
		name = "fleetchaos-ha"
	}
	t, fail := newFleetTopo(name, cfg.Seed, cfg.Agents, cfg.Alpha, cfg.Masters)
	if fail != nil {
		return rep, fail
	}
	defer func() {
		if fail != nil {
			fail.TraceDump = t.agents[0].srv.TraceRing().Dump(0)
		}
		t.close()
	}()
	stream := NewStream(t.repo, cfg.Seed+1)
	ctx := context.Background()

	var maxEpochSeen uint64
	// sendRound offers one spec to every live master and audits the
	// single-primary contract and the ack's attribution.
	sendRound := func(step int, keys []string) *Failure {
		acker := -1
		var ack fleetReply
		saw429, saw503 := false, false
		for i, m := range t.masters {
			if !m.alive {
				continue
			}
			r := t.post(i, keys)
			switch r.status {
			case http.StatusOK:
				if acker >= 0 {
					return t.failf(step, "dual primary: %s served epoch %d and %s served epoch %d in one round",
						t.masters[acker].id, ack.epoch, m.id, r.epoch)
				}
				acker, ack = i, r
			case http.StatusTooManyRequests:
				saw429 = true
			case http.StatusServiceUnavailable:
				saw503 = true
				if r.epoch > 0 && r.retry == "" {
					return t.failf(step, "503 stamped epoch %d without Retry-After", r.epoch)
				}
			}
		}
		switch {
		case acker >= 0:
			if ack.epoch < maxEpochSeen {
				return t.failf(step, "%s acked at epoch %d after epoch %d was already active",
					t.masters[acker].id, ack.epoch, maxEpochSeen)
			}
			if ack.res.Agent == "" {
				return t.failf(step, "200 with no agent attribution")
			}
			if a := t.agent(ack.res.Agent); a != nil && a.partitioned {
				return t.failf(step, "request attributed to partitioned agent %s", a.id)
			}
			maxEpochSeen = ack.epoch
			rep.Acked++
			t.acks.add(ackedReq{keys: keys, step: step, agent: ack.res.Agent})
		case saw429:
			rep.Sheds++
		case saw503:
			rep.Unavailable++
		default:
			rep.Errors++
		}
		return nil
	}

	// cutOff renews s's lease from primary p, reads the agents p can
	// route to, and lets sever cut p off from s's lease polls (a kill or
	// an isolation). It then drives s through exactly two lease ticks of
	// silence and audits the lease state machine — suspicion after one,
	// promotion to the next epoch after two — and, before any beat, that
	// every agent healthy on p, partitioned agents aside, is healthy on
	// s.
	cutOff := func(step, p, s int, sever func()) *Failure {
		pm, sm := t.masters[p], t.masters[s]
		st := sm.m.LeaseTick(ctx)
		pst := pm.m.HAStatusNow()
		if st.Role != "standby" || st.Epoch != pst.Epoch || st.Holder != pst.Holder {
			return t.failf(step, "standby %s not renewed before the cut: role %s epoch %d holder %q, primary at epoch %d holder %q",
				sm.id, st.Role, st.Epoch, st.Holder, pst.Epoch, pst.Holder)
		}
		routable := pm.m.MembersNow()
		sever()
		if st = sm.m.LeaseTick(ctx); st.Role != "standby" {
			return t.failf(step, "standby %s promoted after ONE missed lease tick", sm.id)
		}
		st = sm.m.LeaseTick(ctx)
		if st.Role != "primary" || st.Epoch != pst.Epoch+1 {
			return t.failf(step, "standby %s not primary at epoch %d after two missed ticks (role %s epoch %d)",
				sm.id, pst.Epoch+1, st.Role, st.Epoch)
		}
		rep.Promotions++
		state := map[string]string{}
		for _, mem := range sm.m.MembersNow() {
			state[mem.ID] = mem.State
		}
		for _, mem := range routable {
			if a := t.agent(mem.ID); mem.State == "healthy" && state[mem.ID] != "healthy" && (a == nil || !a.partitioned) {
				return t.failf(step, "promoted %s cannot route to %s: healthy on %s before the cut, %q here",
					sm.id, mem.ID, pm.id, state[mem.ID])
			}
		}
		return nil
	}

	// killPrimary kills the primary — in a pair after auditing its
	// standby's promotion — and restarts it under the same identity with
	// fresh soft state (in a pair, as a standby of the new primary).
	killPrimary := func(step int) *Failure {
		p, s := t.roles()
		if p < 0 {
			return t.failf(step, "no primary to kill")
		}
		if s < 0 {
			t.killMaster(p)
		} else if f := cutOff(step, p, s, func() { t.killMaster(p) }); f != nil {
			return f
		}
		rep.Kills++
		t.bootMaster(p, false)
		t.beatAll()
		if f := t.auditMirrors(step); f != nil {
			return f
		}
		if err := t.api(t.masters[p].id).Ready(); err != nil {
			return t.failf(step, "restarted master %s never became ready: %v", t.masters[p].id, err)
		}
		if f := t.auditAcked(step); f != nil {
			return f
		}
		n, f := t.auditRecovery(step)
		rep.Recovered += n
		return f
	}

	// isolate cuts the standby's lease path to the holder. The holder
	// still reaches the agents — the case where only agent-side epoch
	// fencing keeps the old primary from mutating the fleet.
	isolated := -1 // old primary awaiting its demotion audit
	isolate := func(step int) *Failure {
		p, s := t.roles()
		if p < 0 {
			return t.failf(step, "no primary to isolate")
		}
		cut := func() { t.net.setCut(t.masters[s].id, t.masters[p].id, true) }
		if f := cutOff(step, p, s, cut); f != nil {
			return f
		}
		rep.Isolations++
		isolated = p
		return nil
	}
	heal := func(step int) *Failure {
		t.net.setCut(t.masters[0].id, t.masters[1].id, false)
		t.net.setCut(t.masters[1].id, t.masters[0].id, false)
		if isolated < 0 {
			return nil
		}
		// By now the old primary has tried to forward at least once,
		// been refused by an epoch-gated agent, and demoted itself.
		m := t.masters[isolated]
		if st := m.m.HAStatusNow(); st.Role != "standby" || st.Demotions == 0 {
			return t.failf(step, "isolated primary %s never demoted off the agents' epoch rejections (role %s, %d demotions)",
				m.id, st.Role, st.Demotions)
		}
		rep.Demotions++
		isolated = -1
		return nil
	}

	// ---- main loop ----
	schedule := fleetSchedule(cfg)
	for step := 0; step < cfg.Steps; step++ {
		for _, ev := range schedule[step] {
			var f *Failure
			switch ev.kind {
			case "kill":
				f = killPrimary(step)
			case "isolate":
				f = isolate(step)
			case "heal":
				f = heal(step)
			case "partition":
				t.partition(t.agents[ev.agent], true)
				rep.Partitions++
			case "reconnect":
				t.partition(t.agents[ev.agent], false)
			}
			if f != nil {
				return rep, f
			}
		}
		if step == cfg.Steps/2 {
			p, _ := t.roles()
			if f := auditKeyMovement(t, p, &rep, step); f != nil {
				return rep, f
			}
			if f := auditMirrorEvictions(t, p, step); f != nil {
				return rep, f
			}
		}
		t.leaseTicks() // a no-op on a plain master
		t.beatAll()
		if f := t.auditMirrors(step); f != nil {
			return rep, f
		}
		rep.Steps++
		if f := sendRound(step, keysOf(t.repo, stream.Next())); f != nil {
			return rep, f
		}
		if f := t.checkIntegrity(step); f != nil {
			return rep, f
		}
	}

	// ---- warm handoff audit ----
	// Heal every partition, each healed agent rejoining with one beat,
	// then drain agent 1 (an in-memory agent holding real acked state):
	// its rendezvous successors are warmed, and every spec it acked must
	// still be a hit through the fleet. No round of beats runs first: the
	// drain's own beat must gossip what the last round added.
	for _, a := range t.agents {
		if a.partitioned {
			t.partition(a, false)
			a.ag.BeatNow(ctx)
		}
	}
	drainer := t.agents[1]
	var drained []ackedReq
	for _, ack := range t.acks.acks {
		if ack.agent == drainer.id {
			drained = append(drained, ack)
		}
	}
	if err := drainer.ag.Drain(ctx); err != nil {
		return rep, t.failf(cfg.Steps, "drain: %v", err)
	}
	drainer.drained = true
	// The successors must gossip their warmed images before the audit:
	// affinity routing can only steer a drained spec to its new holder
	// once the master's directory mirror has seen it.
	t.beatAll()
	if f := t.auditMirrors(cfg.Steps); f != nil {
		return rep, f
	}
	for _, ack := range drained {
		res, ok := t.serve(ack.keys)
		if !ok {
			return rep, t.failf(cfg.Steps, "drained spec from step %d unservable through the fleet", ack.step)
		}
		if res.Op != "hit" {
			return rep, t.failf(cfg.Steps, "handoff lost warm spec from step %d: op %q on %s", ack.step, res.Op, res.Agent)
		}
		if res.Agent == drainer.id {
			return rep, t.failf(cfg.Steps, "drained agent %s still serving", drainer.id)
		}
	}
	rep.HandoffSpecs = len(drained)

	// ---- final kill: the run always ends with a full recovery audit ----
	if f := killPrimary(cfg.Steps); f != nil {
		return rep, f
	}

	// ---- closing gate audits ----
	p, _ := t.roles()
	rep.MaxEpoch = t.masters[p].m.HAStatusNow().Epoch
	for _, a := range t.agents {
		st := a.ag.Gate().Snapshot()
		rep.StaleRejects += st.StaleRejects
		if st.Conflicts != 0 {
			return rep, t.failf(cfg.Steps, "agent %s observed %d same-epoch holder conflicts", a.id, st.Conflicts)
		}
		if !a.drained && st.Epoch != rep.MaxEpoch {
			return rep, t.failf(cfg.Steps, "agent %s gate at epoch %d, fleet at %d", a.id, st.Epoch, rep.MaxEpoch)
		}
	}
	if rep.Acked == 0 {
		return rep, t.failf(cfg.Steps, "no request was ever acknowledged")
	}
	return rep, nil
}

// auditKeyMovement runs the deterministic churn audit mid-stream
// against master p: a fresh agent joins, at most 2/(N+1) of a sampled
// keyspace moves (all of it to the joiner), and its departure restores
// the original assignment exactly.
func auditKeyMovement(t *fleetTopo, p int, rep *FleetChaosReport, step int) *Failure {
	const samples = 300
	master := t.api(t.masters[p].id)
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
// request; master p's index of its mirror must follow each removal.
// It leaves before traffic resumes.
func auditMirrorEvictions(t *fleetTopo, p, step int) *Failure {
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
		if err := t.masters[p].m.CheckIntegrity(); err != nil {
			return t.failf(step, "%s routing index after eviction-audit request %d: %v", t.masters[p].id, i, err)
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
