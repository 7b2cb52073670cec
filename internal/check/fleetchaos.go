package check

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/server"
	"repro/internal/spec"
	"repro/internal/telemetry"
)

// FleetChaosConfig parameterizes one run of the serving-path harness:
// a plain master or a primary + standby pair fronting N agents on one
// logical clock (fleetTopo). One fault schedule, built up front, drives
// both: seeded agent partitions, primary kills, crashes of the durable
// agent 0 (kill -9 or power loss; its disk injects a seeded fault each
// life), a request burst and, in the pair, lease-holder isolations,
// then a drain and a final kill. The rounds' requests go out in
// seeded body shapes, and a periodic stats read through Client's retry
// path, over links that inject seeded network faults. Two runs of a
// config report identically, trace dump included, so a failure recurs
// at the same step with the same diagnostic. The audits:
//
//   - no lost acks: every acked spec is a hit on the agent that acked
//     it and is served through the fleet after every kill, and every
//     spec agent 0 acked is after each of its recoveries; agent 0, and
//     a copy of its state directory recovered by the persist layer
//     alone (CheckIntegrity), recover the state it crashed with, byte
//     for byte, and a copy recovers its live state at the close; a heal
//     leaves agent 0 ready;
//   - faithful answers: no valid spec is refused; a 200 names an agent,
//     never a partitioned one, and an op of hit, merge or insert, and
//     echoes the spec's packages and bytes; an acked spec answered
//     again by its agent is a hit; a closed list sent with close:true
//     hits the same image sent unclosed, and its last package alone is
//     a hit closed with close:true and unclosed with close:false; a 429
//     leaves agent 0's request counter alone; a stats read that
//     survives the faulty links reads agent 0's live request counter;
//   - routing: a restarted master is ready after one round; one agent
//     joining moves at most 2/(N+1) of a sampled keyspace, all to it,
//     and leaving restores it; after every round, and every gossip frame
//     of a mid-stream eviction audit, each master's index equals a
//     rebuild from its mirrors (CheckIntegrity, which catches
//     staleindex), and each mirror equals its agent's directory
//     (auditMirrors, which catches dirscan);
//   - failover: a standby promotes after exactly two silent lease ticks
//     (leasetick); no round is acked by two masters and no 200 carries
//     an epoch older than one seen (staleepoch); the promoted master
//     reaches every unpartitioned agent its predecessor could; an
//     isolated primary demotes off the agents' epoch rejections; no
//     gate records a same-epoch holder conflict;
//   - handoff: a drained agent's acked specs are hits on the successors
//     its drain warmed; a drain reports a successor that refused its
//     slice (only agent 0's disk fault may cause one), and the slice is
//     pushed again after a heal.
//
// The report's dump and stage list feed the trace audits of the tests
// and the command: well-formed trees covering every stage.
type FleetChaosConfig struct {
	Seed  int64
	Steps int
	// Agents is the fleet size (>= 2: agent 0 is the durable one,
	// agent 1 drains at the close).
	Agents int
	Alpha  float64
	// Masters is 1 (a plain master) or 2 (a primary + standby pair).
	Masters int
	// Kills is how many scheduled primary kill/restart cycles run, and
	// how many times agent 0 crashes and recovers; a final kill always
	// runs after the drain audit.
	Kills int
	// Isolations is how many lease isolations run (pair only): the
	// standby loses its path to the lease holder, promotes, and the old
	// primary must demote off the agents' epoch rejections.
	Isolations int
	// PartitionEvery is the mean gap, in steps, between seeded
	// partition toggles (0 disables).
	PartitionEvery int
	// KillPhase shifts every kill, crash and isolation by this many
	// steps — the nightly soak rotates it so the faults land at
	// different points of the request stream while each run stays
	// reproducible.
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
	Sheds       int // requests answered 429
	Errors      int // rounds and stats reads with any other failure
	Partitions  int // agent partitions (cuts, not heals)
	Kills       int // primary kills (scheduled + final)
	Isolations  int // lease-holder isolations
	Promotions  int // audited standby promotions
	Demotions   int // audited old-primary demotions
	MaxEpoch    uint64
	// Recovered sums the WAL records agent 0's recoveries replayed.
	Recovered int
	// StaleRejects sums the agents' epoch-gate rejections — nonzero in
	// any pair run where a superseded primary tried to keep forwarding.
	StaleRejects uint64
	// HandoffSpecs is how many acked specs the drain audit re-verified.
	HandoffSpecs int
	// KeyMoveFraction is the sampled keyspace fraction the join audit
	// moved.
	KeyMoveFraction float64
	// Agent 0's crashes by mode, the faults its disks and the client's
	// links injected, and its size-triggered checkpoints.
	CrashKills, CrashPowers, DiskFaults int
	NetFaults, Checkpoints              int64
	// Stages lists the canonical and fleet span stages the nodes' rings
	// showed, in canonical order; MissingStages the rest. Dump is every
	// agent's ring at the close, then every live master's.
	Stages, MissingStages []string
	Dump                  []telemetry.Trace
}

// fleetEvent is one scheduled fault.
type fleetEvent struct {
	kind  string // "kill", "isolate", "heal", "crash", "recover", "burst", "partition", "reconnect"
	agent int    // the agent a partition or reconnect moves
}

// isolationSteps is how long a lease isolation lasts before it heals,
// crashSteps how long agent 0 stays down.
const isolationSteps, crashSteps = 6, 4

// fleetSchedule builds the run's faults as a step → events table:
// kills and isolations alternate across evenly spaced slots shifted by
// KillPhase, each isolation healing isolationSteps later, and Kills
// crashes of agent 0 sit halfway before the first slots, each
// recovering crashSteps later; one burst follows the latest recovery,
// which the crash spacing puts at least a third of the way into the
// run; then seeded partition toggles at gaps of 1 to 2×PartitionEvery
// steps, one agent always left routable. A kill slot and a burst are
// listed before a toggle at the same step.
func fleetSchedule(cfg FleetChaosConfig) map[int][]fleetEvent {
	at := map[int][]fleetEvent{}
	add := func(step int, kind string, agent int) {
		at[step] = append(at[step], fleetEvent{kind: kind, agent: agent})
	}
	total := cfg.Kills + cfg.Isolations
	slot := func(num, den int) int {
		step := (cfg.Steps*num/den + cfg.KillPhase) % cfg.Steps
		return min(max(step, 5), cfg.Steps-10)
	}
	isoLeft := cfg.Isolations
	for k := 0; k < total; k++ {
		step := slot(k+1, total+1)
		if k%2 == 0 && isoLeft > 0 {
			isoLeft--
			add(step, "isolate", 0)
			add(step+isolationSteps, "heal", 0)
		} else {
			add(step, "kill", 0)
		}
	}
	last := -1
	for k := 0; k < cfg.Kills; k++ {
		step := slot(2*k+1, 2*(total+1))
		add(step, "crash", 0)
		add(step+crashSteps, "recover", 0)
		last = max(last, step+crashSteps)
	}
	if last >= 0 {
		add(last+1, "burst", 0)
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
// carries every node's span-trace ring, so a master's span for a
// failing request sits beside the agent's under the same trace ID.
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
			fail.TraceDump = t.rings()
		}
		t.close()
	}()
	stream := NewStream(t.repo, cfg.Seed+1)
	// Body shapes draw from their own source, so the stream stays what
	// it is for a seed.
	shapes := rand.New(rand.NewSource(cfg.Seed + 2))
	ctx := context.Background()
	agent0 := t.agents[0]
	ckptBase := t.compactions()

	// offer posts body to master i over c and audits what the answer
	// says of the request alone: a shed leaves agent 0's request counter
	// where it was — only agent 0 admits, and a forward stops at the
	// agent that shed — and a valid spec is never refused.
	offer := func(step, i int, c *http.Client, body []byte, shape string) (fleetReply, *Failure) {
		before := agent0.srv.StatsNow().Requests
		r := t.post(c, i, body)
		switch r.status {
		case http.StatusTooManyRequests:
			rep.Sheds++
			if after := agent0.srv.StatsNow().Requests; after != before {
				return r, t.failf(step, "shed request moved %s's request counter (%d -> %d)", agent0.id, before, after)
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			return r, t.failf(step, "valid spec refused with status %d (%s body)", r.status, shape)
		}
		return r, nil
	}

	var maxEpochSeen uint64
	// sendRound offers the stream's next spec, in a seeded body shape
	// and a quarter of the time as a closed list with close:true, to
	// every live master over the faulty links, and audits the
	// single-primary contract, the ack's attribution and what it echoes.
	sendRound := func(step int) *Failure {
		sp := stream.Next()
		shape, closed := shapes.Intn(8), shapes.Intn(4) == 0
		if closed {
			sp = spec.WithClosure(t.repo, sp.IDs())
		}
		keys := keysOf(t.repo, sp)
		body, shapeName := encodeRequest(shape, closed, keys)
		acker := -1
		var ack fleetReply
		saw429, saw503 := false, false
		for i, m := range t.masters {
			if !m.alive {
				continue
			}
			r, f := offer(step, i, t.chaos, body, shapeName)
			if f != nil {
				return f
			}
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
		switch res := ack.res; {
		case acker >= 0:
			if ack.epoch < maxEpochSeen {
				return t.failf(step, "%s acked at epoch %d after epoch %d was already active",
					t.masters[acker].id, ack.epoch, maxEpochSeen)
			}
			if res.Agent == "" {
				return t.failf(step, "200 with no agent attribution")
			}
			if res.Op != "hit" && res.Op != "merge" && res.Op != "insert" {
				return t.failf(step, "200 with op %q", res.Op)
			}
			if a := t.agent(res.Agent); a != nil && a.partitioned {
				return t.failf(step, "request attributed to partitioned agent %s", a.id)
			}
			if want := t.repo.SetSize(sp.IDs()); res.Packages != len(keys) || res.RequestBytes != want {
				return t.failf(step, "spec of %d packages, %d bytes echoed as %d packages, %d bytes (%s body)",
					len(keys), want, res.Packages, res.RequestBytes, shapeName)
			}
			maxEpochSeen = ack.epoch
			rep.Acked++
			// Capacity is unlimited, so the agent that acked a spec holds it
			// for good: sent there again it can only be a hit.
			if prev, again := t.acks.add(ackedReq{keys: keys, step: step, agent: res.Agent}); again && prev.agent == res.Agent && res.Op != "hit" {
				return t.failf(step, "spec acked by %s at step %d answered %q when re-sent, want hit (%s body)",
					res.Agent, prev.step, res.Op, shapeName)
			}
			if closed {
				// The agent closed a closed list: the same keys unclosed name
				// the same spec, so they hit the image it answered with.
				again, err := t.request(res.Agent, keys)
				if err != nil || again.Op != "hit" || again.ImageID != res.ImageID || again.Packages != res.Packages || again.RequestBytes != res.RequestBytes {
					return t.failf(step, "%s body answered image %d (%d packages, %d bytes) on %s; re-sent unclosed: %s on image %d (%d packages, %d bytes), err %v",
						shapeName, res.ImageID, res.Packages, res.RequestBytes, res.Agent, again.Op, again.ImageID, again.Packages, again.RequestBytes, err)
				}
				// The list's last package alone, which it holds with its
				// closure, is a hit either way: closed to that closure with
				// close:true, and to itself sent again with close:false.
				if f := t.auditCloseFlag(step, res.Agent, sp.IDs()[sp.Len()-1]); f != nil {
					return f
				}
			}
		case saw429: // counted by offer
		case saw503:
			rep.Unavailable++
		default:
			rep.Errors++
		}
		return nil
	}

	// burst makes agent 0 shed through the primary. It sends agent 0
	// up to shedBurst acked specs it owns, so that as their
	// owner and holder it leads their routes, then re-sends them through
	// the primary inside one tick until its bucket of shedBurst runs dry.
	// A partition of agent 0 is healed first, so the burst reaches it.
	burst := func(step int) *Failure {
		p, _ := t.roles()
		if agent0.partitioned {
			t.partition(agent0, false)
		}
		t.beatAll()
		var mine [][]string
		for i := 0; i < len(t.acks.acks) && len(mine) < shedBurst; i++ {
			keys := t.acks.acks[i].keys
			var info fleet.RouteInfo
			path := fmt.Sprintf("/fleet/v1/route?key=%d", fleet.RouteKey(keys))
			if t.api(t.masters[p].id).DoCtx(ctx, http.MethodGet, path, nil, &info) == nil && info.Owner == agent0.id {
				if _, err := t.request(agent0.id, keys); err != nil {
					t.tick() // its disk failed the write: the tick's probe heals it
					continue
				}
				mine = append(mine, keys)
			}
		}
		t.beatAll()
		for i, sheds := 0, rep.Sheds; i < 4*shedBurst && len(mine) > 0 && rep.Sheds == sheds; i++ {
			body, _ := json.Marshal(server.RequestBody{Packages: mine[i%len(mine)]}) // a string list always marshals
			if _, f := offer(step, p, t.client, body, "canonical"); f != nil {
				return f
			}
		}
		return nil
	}

	// crash heals agent 0, so its disk holds all it serves, folds its
	// life into the report (its compactions, its epoch gate's
	// rejections) and kills its process, its disk keeping what the mode
	// lets survive: killed or powered off by turns from a seeded first
	// mode. recoverAgent0 first recovers a copy of the crashed state
	// directory through the persist layer and audits that cache's
	// integrity, then restarts agent 0 on the directory as a fresh fleet
	// agent, which re-registers. Both must recover the state it crashed
	// with, byte for byte, and every spec agent 0 acked must hit on it
	// and be served through the fleet.
	firstMode := t.diskRNG.Intn(2)
	var crashed []byte
	crash := func(step int) *Failure {
		agent0.srv.ProbeDegradedNow()
		crashed, _ = json.Marshal(agent0.srv.ExportState())
		rep.Checkpoints += t.compactions() - ckptBase
		rep.StaleRejects += agent0.ag.Gate().Snapshot().StaleRejects
		mode := CrashMode((rep.CrashKills + rep.CrashPowers + firstMode) % 2)
		if mode == CrashKill {
			rep.CrashKills++
		} else {
			rep.CrashPowers++
		}
		t.net.unregister(agent0.id)
		agent0.down = true
		err := t.disk.Crash(mode, t.diskRNG.Int63n(64))
		t.diskFaults += t.disk.Injected()
		agent0.srv.Close() // its final checkpoint fails on the dead disk
		if err != nil {
			return t.failf(step, "crashing %s: %v", agent0.id, err)
		}
		return nil
	}
	recoverAgent0 := func(step int) *Failure {
		if err := t.recoverCopy(crashed); err != nil {
			return t.failf(step, "recovering a copy of %s's state directory: %v", agent0.id, err)
		}
		srv, rec, err := t.bootAgent0()
		if err != nil {
			return t.failf(step, "recovering %s: %v", agent0.id, err)
		}
		t.join(agent0, srv)
		ckptBase = t.compactions()
		rep.Recovered += rec.RecordsReplayed
		if got, _ := json.Marshal(srv.ExportState()); !bytes.Equal(got, crashed) {
			return t.failf(step, "%s recovered a state other than the one it crashed with, after %d records", agent0.id, rec.RecordsReplayed)
		}
		// Restarts must not pile up the empty segments each start opens.
		segs, _ := filepath.Glob(filepath.Join(t.dir, agent0.id, "wal-*.log"))
		empty := 0
		for _, name := range segs {
			if fi, err := os.Stat(name); err == nil && fi.Size() == 0 {
				empty++
			}
		}
		if empty > 1 {
			return t.failf(step, "%s's state directory holds %d empty WAL segments after %d recoveries", agent0.id, empty, agent0.lives-1)
		}
		agent0.ag.BeatNow(ctx)
		return t.auditAcked(step, agent0.id)
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
		return t.auditAcked(step, "")
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
			case "crash":
				f = crash(step)
			case "recover":
				f = recoverAgent0(step)
			case "burst":
				f = burst(step)
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
		if f := sendRound(step); f != nil {
			return rep, f
		}
		if f := t.checkIntegrity(step); f != nil {
			return rep, f
		}
		if t.unready > 0 {
			return rep, t.failf(step, "%s healed but not ready", agent0.id)
		}
		if step%10 == 9 {
			// The idempotent stats read takes Client's retry path over the
			// faulty links; what it reads is agent 0's live counter.
			var st server.StatsResponse
			if err := t.stats.DoCtx(ctx, http.MethodGet, "/v1/stats", nil, &st); err != nil {
				rep.Errors++
			} else if now := agent0.srv.StatsNow().Requests; st.Requests != now {
				return rep, t.failf(step, "%s's stats read %d requests over a retried link, %d live", agent0.id, st.Requests, now)
			}
		}
	}

	// ---- warm handoff audit ----
	// Heal every partition, each healed agent rejoining with one beat,
	// then drain agent 1 (an in-memory agent holding real acked state):
	// its rendezvous successors are warmed, and every spec it acked must
	// still be a hit through the fleet. No round of beats runs first: the
	// drain's own beat must gossip what the last round added. A refused
	// slice the drain did not report shows as a miss.
	for _, a := range t.agents {
		if a.partitioned {
			t.partition(a, false)
			a.ag.BeatNow(ctx)
		}
	}
	agent0.srv.ProbeDegradedNow() // a degraded successor refuses to warm
	drainer := t.agents[1]
	var drained []ackedReq
	for _, ack := range t.acks.acks {
		if ack.agent == drainer.id {
			drained = append(drained, ack)
		}
	}
	faults := t.disk.Injected()
	var refused *fleet.HandoffError
	if err := drainer.ag.Drain(ctx); errors.As(err, &refused) && t.disk.Injected() != faults {
		// Agent 0's disk failed mid-warm and it refused the rest of its
		// slice, which the drain reported: heal it and push the slice
		// again, as an operator reading the report would.
		agent0.srv.ProbeDegradedNow()
		for _, tg := range refused.Refused {
			if err := t.api(tg.ID).DoCtx(ctx, http.MethodPost, "/v1/warm", server.WarmRequest{Specs: tg.Specs}, nil); err != nil {
				return rep, t.failf(cfg.Steps, "re-warming %s after a refused handoff: %v", tg.ID, err)
			}
		}
	} else if err != nil {
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

	// ---- final kill: the run always ends with a zero-lost-acks audit
	// and a recovery audit of agent 0's state directory as it lies ----
	if f := killPrimary(cfg.Steps); f != nil {
		return rep, f
	}
	agent0.srv.ProbeDegradedNow() // its disk then holds all it serves
	live, _ := json.Marshal(agent0.srv.ExportState())
	if err := t.recoverCopy(live); err != nil {
		return rep, t.failf(cfg.Steps, "recovering a copy of %s's live state directory: %v", agent0.id, err)
	}
	if t.unready > 0 {
		return rep, t.failf(cfg.Steps, "%s healed but not ready", agent0.id)
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
	rep.Checkpoints += t.compactions() - ckptBase
	rep.DiskFaults = t.diskFaults + t.disk.Injected()
	rep.NetFaults = t.netFaults.Injected()
	rep.Dump = t.rings()
	t.harvest(rep.Dump)
	for _, st := range append(telemetry.CanonicalStages(), telemetry.StageFleetRoute, telemetry.StageFleetForward) {
		if t.stages[st] {
			rep.Stages = append(rep.Stages, st)
		} else {
			rep.MissingStages = append(rep.MissingStages, st)
		}
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

	// Join a throwaway agent. Only its membership matters: it serves
	// agent-0's cache, receives no traffic, and leaves before traffic
	// resumes.
	const joiner = "agent-join-audit"
	jag := t.newAgent(joiner, 1, t.agents[0].srv)
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
	t.trace(srv.SpanTracer())
	defer func() { t.harvest(srv.TraceRing().Dump(0)) }()
	const id = "agent-evict-audit"
	ag := t.newAgent(id, 1, srv)
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
