package check

import (
	"bytes"
	"context"
	"net/http"
)

// RunHAChaos audits the fleet's high-availability layer end to end: a
// primary + standby master pair fronting N agents that heartbeat both
// masters through their epoch-gated handlers, with a WAL-streaming read
// replica following the persistent agent (fleetTopo). The schedule
// kills the primary and isolates the lease holder at deterministic
// steps, and the run drives every lease tick, heartbeat, and replica
// pull itself, so failover timing is exact, not wall-clocked; two runs
// of a config report identically (TestHAChaosDeterministic).
//
// The invariants:
//
//   - zero lost acks: every request acknowledged through the fleet is
//     still served afterwards — as a hit on the agent that acked it,
//     and through whichever master holds the lease;
//   - promotion in two: a standby becomes primary after exactly two
//     driven lease ticks of primary silence, never after one;
//   - single primary per epoch: no request round is ever acknowledged
//     by two masters, no agent's epoch gate ever records a same-epoch
//     holder conflict, and no 200 ever arrives stamped with an epoch
//     older than one the client has already seen (the audit that
//     catches the staleepoch mutant);
//   - recovered state byte-identity: a promoted master's inherited
//     mirror equals the dead or isolated primary's last folded state,
//     read when it was cut off, byte for byte;
//   - replica byte-identity: the WAL follower's cache state equals the
//     persistent agent's ExportState once the stream is drained;
//   - warm handoff: a drained agent's acked specs are still hits
//     through the fleet, served by the rendezvous successors its drain
//     warmed;
//   - indexed mirrors: after every round each live master's routing
//     index equals a rebuild from its mirrored directories
//     (Master.CheckIntegrity), and each of those mirrors equals the
//     agent's own directory after every heartbeat round (auditMirrors).
type HAChaosConfig struct {
	Seed  int64
	Steps int
	// Agents is the fleet size (>= 2; agent 0 is the persistent one the
	// replica follows).
	Agents int
	Alpha  float64
	// Kills is how many scheduled primary kill/restart cycles run; a
	// final kill always runs after the drain audit.
	Kills int
	// Isolations is how many lease-isolation partitions run: the
	// standby loses its path to the lease holder, promotes, and the old
	// primary must demote off the agents' epoch rejections.
	Isolations int
	// KillPhase shifts every scheduled event by this many steps — the
	// nightly soak rotates it so the kill schedule varies across runs
	// while each run stays reproducible from its seed + phase.
	KillPhase int
}

// HAChaosDefault is the canonical HA chaos configuration for a seed.
func HAChaosDefault(seed int64) HAChaosConfig {
	return HAChaosConfig{
		Seed: seed, Steps: 200, Agents: 3, Alpha: 0.6,
		Kills: 3, Isolations: 2,
	}
}

// HAChaosReport summarizes one run.
type HAChaosReport struct {
	Steps       int
	Acked       int // rounds with exactly one master acking
	Unavailable int // rounds with no ack (failover being learned)
	Sheds       int
	Errors      int
	Kills       int // primary kills (scheduled + final)
	Isolations  int // lease-holder partitions
	Promotions  int // audited standby promotions
	Demotions   int // audited old-primary demotions
	MaxEpoch    uint64
	// ReplicaRecords is how many WAL records the read replica applied.
	ReplicaRecords uint64
	// StaleRejects sums the agents' epoch-gate rejections — nonzero in
	// any run where a superseded primary tried to keep forwarding.
	StaleRejects uint64
	// HandoffSpecs is how many acked specs the drain audit re-verified.
	HandoffSpecs int
}

// RunHAChaos executes the HA chaos schedule and audits the invariants.
// It returns a nil Failure on a clean run; a failure carries the
// persistent agent's span-trace ring for latency context.
func RunHAChaos(cfg HAChaosConfig) (rep HAChaosReport, fail *Failure) {
	if cfg.Agents < 2 {
		return rep, failf(cfg.Seed, 0, "hachaos: Agents must be >= 2")
	}
	t, fail := newFleetTopo("hachaos", cfg.Seed, cfg.Agents, cfg.Alpha, true)
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

	// roles returns the live primary with the highest epoch and the
	// other master.
	roles := func() (primary, other int) {
		primary = -1
		var best uint64
		for i, m := range t.masters {
			if !m.alive {
				continue
			}
			if st := m.m.HAStatusNow(); st.Role == "primary" && (primary < 0 || st.Epoch > best) {
				primary, best = i, st.Epoch
			}
		}
		return primary, 1 - primary
	}

	var maxEpochSeen uint64
	// sendRound offers one spec to every live master and audits the
	// single-primary contract on the acks.
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

	// cutOff drains replication from primary p into standby s, reads p's
	// folded state, and lets sever cut p off from s's lease polls (a kill
	// or an isolation). It then drives s through exactly two lease ticks
	// of silence and audits the lease state machine: suspicion after
	// one, promotion to the next epoch after two, inherited state
	// byte-identical to what p last held.
	cutOff := func(step, p, s int, sever func()) *Failure {
		pm, sm := t.masters[p], t.masters[s]
		st := sm.m.LeaseTick(ctx)
		pst := pm.m.HAStatusNow()
		if st.Role != "standby" || st.MirrorNext != pst.StreamNext {
			return t.failf(step, "standby %s not drained before the cut: mirror %d, primary log %d",
				sm.id, st.MirrorNext, pst.StreamNext)
		}
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
		if !bytes.Equal(st.RecoveredState, pst.State) {
			return t.failf(step, "promoted %s recovered state differs from %s's last state:\n recovered %s\n last      %s",
				sm.id, pm.id, st.RecoveredState, pst.State)
		}
		return nil
	}

	// killPrimary kills the primary, audits its standby's promotion, and
	// restarts it as a standby of the new primary: same identity, fresh
	// soft state.
	killPrimary := func(step int) *Failure {
		p, s := roles()
		if p < 0 {
			return t.failf(step, "no primary to kill")
		}
		if f := cutOff(step, p, s, func() { t.killMaster(p) }); f != nil {
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
		return t.auditReplica(step)
	}

	// isolate cuts the standby's lease path to the holder. The holder
	// still reaches the agents — the case where only agent-side epoch
	// fencing keeps the old primary from mutating the fleet.
	isolated := -1 // old primary awaiting its demotion audit
	isolate := func(step int) *Failure {
		p, s := roles()
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

	// ---- deterministic fault schedule ----
	// Kills and isolations alternate across evenly spaced slots;
	// KillPhase shifts the whole schedule (the nightly soak's rotation).
	eventsAt := map[int][]string{} // step -> "kill", "isolate", "heal"
	total := cfg.Kills + cfg.Isolations
	isoLeft := cfg.Isolations
	isoLen := 6
	for k := 0; k < total; k++ {
		step := cfg.Steps * (k + 1) / (total + 1)
		if cfg.Steps > 0 {
			step = (step + cfg.KillPhase) % cfg.Steps
		}
		if step < 5 {
			step = 5
		}
		if step > cfg.Steps-10 {
			step = cfg.Steps - 10
		}
		if k%2 == 0 && isoLeft > 0 {
			isoLeft--
			eventsAt[step] = append(eventsAt[step], "isolate")
			eventsAt[step+isoLen] = append(eventsAt[step+isoLen], "heal")
		} else {
			eventsAt[step] = append(eventsAt[step], "kill")
		}
	}

	// ---- main loop ----
	for step := 0; step < cfg.Steps; step++ {
		for _, kind := range eventsAt[step] {
			var f *Failure
			switch kind {
			case "kill":
				f = killPrimary(step)
			case "isolate":
				f = isolate(step)
			case "heal":
				f = heal(step)
			}
			if f != nil {
				return rep, f
			}
		}
		t.leaseTicks()
		t.beatAll()
		if f := t.auditMirrors(step); f != nil {
			return rep, f
		}
		if step%5 == 0 {
			t.pullReplica()
		}
		keys := keysOf(t.repo, stream.Next())
		rep.Steps++
		if f := sendRound(step, keys); f != nil {
			return rep, f
		}
		if f := t.checkIntegrity(step); f != nil {
			return rep, f
		}
	}

	// ---- warm handoff audit ----
	// Drain agent 1 (an in-memory agent holding real acked state): its
	// rendezvous successors are warmed, and every spec it acked must
	// still be a hit through the fleet.
	if f := heal(cfg.Steps); f != nil {
		return rep, f
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

	// ---- closing audits ----
	p, _ := roles()
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
	rep.ReplicaRecords = t.replica.Applied()
	if rep.Acked == 0 {
		return rep, t.failf(cfg.Steps, "no request was ever acknowledged")
	}
	return rep, nil
}
