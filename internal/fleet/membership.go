package fleet

import (
	"fmt"
	"sort"
	"time"
)

// AgentState is one member's health as the master sees it.
type AgentState int

const (
	// AgentHealthy: heartbeats arriving, forwards succeeding.
	AgentHealthy AgentState = iota
	// AgentSuspect: heartbeats missing past SuspectAfter, or the last
	// forward to it failed at the transport. Suspect members keep
	// owning their keys (so the keyspace does not reshuffle during a
	// blip) but are routed around along the rendezvous order.
	AgentSuspect
	// AgentDead: missing past DeadAfter; owns no keys.
	AgentDead
)

// String renders the state for /fleet/v1/members and logs.
func (s AgentState) String() string {
	switch s {
	case AgentSuspect:
		return "suspect"
	case AgentDead:
		return "dead"
	default:
		return "healthy"
	}
}

// member is one registered agent's control-plane state.
type member struct {
	id       string
	url      string
	gen      uint64
	state    AgentState
	lastBeat time.Time
	dir      *Follower
}

// Membership is the master's agent table. It is soft state: built
// entirely from Register/Heartbeat traffic, discarded on master
// restart, rebuilt by agents re-registering. Not goroutine-safe; the
// Master guards it with its route lock.
type Membership struct {
	members map[string]*member
	// dict is the key dictionary every member's mirror index shares, so
	// one translated request tests against all of them.
	dict         *KeyDict
	suspectAfter time.Duration
	deadAfter    time.Duration
}

// NewMembership creates an empty table. suspectAfter <= 0 disables the
// heartbeat-age suspect transition; deadAfter <= 0 means members are
// never aged out (partition-tolerant default for harnesses).
func NewMembership(suspectAfter, deadAfter time.Duration) *Membership {
	return &Membership{
		members:      make(map[string]*member),
		dict:         NewKeyDict(),
		suspectAfter: suspectAfter,
		deadAfter:    deadAfter,
	}
}

// Register inserts or refreshes an agent, healthy again even if it was
// dead. A generation change resets the gossip mirror: the agent's
// directory revisions restarted with its process.
func (ms *Membership) Register(req RegisterRequest, now time.Time) {
	m, ok := ms.members[req.ID]
	if !ok {
		m = &member{id: req.ID, dir: NewFollower(ms.dict)}
		ms.members[req.ID] = m
	}
	if m.gen != req.Gen {
		m.dir.Reset()
	}
	m.url = req.URL
	m.gen = req.Gen
	m.state = AgentHealthy
	m.lastBeat = now
}

// Deregister removes an agent, reporting whether it was known.
func (ms *Membership) Deregister(id string) bool {
	if _, ok := ms.members[id]; !ok {
		return false
	}
	delete(ms.members, id)
	return true
}

// Heartbeat applies one beat. Unknown agents (or a generation the
// master has not registered) get Unknown=true and must re-register —
// the path that heals a master restart. A delta gap asks for a resync.
func (ms *Membership) Heartbeat(req HeartbeatRequest, now time.Time) HeartbeatResponse {
	m, ok := ms.members[req.ID]
	if !ok || m.gen != req.Gen || m.state == AgentDead {
		// A dead member owns no keys; it must re-register so the
		// master re-admits it.
		return HeartbeatResponse{Unknown: true}
	}
	m.lastBeat = now
	m.state = AgentHealthy
	resp := HeartbeatResponse{}
	if !req.Delta.Empty() || req.Delta.To != m.dir.Rev() {
		if m.dir.Apply(req.Delta) == DeltaGap {
			resp.Resync = true
		}
	}
	resp.AckRev = m.dir.Rev()
	return resp
}

// Suspect marks an agent suspect after a failed forward, so routing
// skips it before the heartbeat age catches up. Healthy is restored by
// the next heartbeat.
func (ms *Membership) Suspect(id string) {
	if m, ok := ms.members[id]; ok && m.state == AgentHealthy {
		m.state = AgentSuspect
	}
}

// Sweep ages members: healthy -> suspect past suspectAfter, anything
// -> dead past deadAfter. It returns the IDs that just died (the
// caller drops their connections).
func (ms *Membership) Sweep(now time.Time) (died []string) {
	for id, m := range ms.members {
		age := now.Sub(m.lastBeat)
		if ms.deadAfter > 0 && age > ms.deadAfter && m.state != AgentDead {
			m.state = AgentDead
			died = append(died, id)
			continue
		}
		if ms.suspectAfter > 0 && age > ms.suspectAfter && m.state == AgentHealthy {
			m.state = AgentSuspect
		}
	}
	sort.Strings(died)
	return died
}

// URL returns an agent's advertised URL ("" when unknown).
func (ms *Membership) URL(id string) string {
	if m, ok := ms.members[id]; ok {
		return m.url
	}
	return ""
}

// State returns an agent's state (AgentDead when unknown).
func (ms *Membership) State(id string) AgentState {
	if m, ok := ms.members[id]; ok {
		return m.state
	}
	return AgentDead
}

// Counts returns (known, healthy, suspect). Dead members count as
// known until deregistered or re-registered.
func (ms *Membership) Counts() (known, healthy, suspect int) {
	for _, m := range ms.members {
		known++
		switch m.state {
		case AgentHealthy:
			healthy++
		case AgentSuspect:
			suspect++
		}
	}
	return known, healthy, suspect
}

// Live returns the IDs of members that are not dead: the members a key's
// owner is drawn from.
func (ms *Membership) Live() []string {
	ids := make([]string, 0, len(ms.members))
	for id, m := range ms.members {
		if m.state != AgentDead {
			ids = append(ids, id)
		}
	}
	return ids
}

// Routable returns member IDs forwarding may target, sorted: healthy
// members, or — when none are healthy — suspects as forced probes.
func (ms *Membership) Routable() []string {
	var healthy, suspect []string
	for id, m := range ms.members {
		switch m.state {
		case AgentHealthy:
			healthy = append(healthy, id)
		case AgentSuspect:
			suspect = append(suspect, id)
		}
	}
	if len(healthy) > 0 {
		sort.Strings(healthy)
		return healthy
	}
	sort.Strings(suspect)
	return suspect
}

// Snapshot renders the member table for /fleet/v1/members.
func (ms *Membership) Snapshot(now time.Time) []MemberInfo {
	out := make([]MemberInfo, 0, len(ms.members))
	for _, m := range ms.members {
		out = append(out, MemberInfo{
			ID:          m.id,
			URL:         m.url,
			State:       m.state.String(),
			Gen:         m.gen,
			DirRev:      m.dir.Rev(),
			DirImages:   m.dir.Len(),
			SinceBeatMS: now.Sub(m.lastBeat).Milliseconds(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Dir returns an agent's mirrored image directory (nil when unknown),
// for handoff planning and tests.
func (ms *Membership) Dir(id string) *Follower {
	if m, ok := ms.members[id]; ok {
		return m.dir
	}
	return nil
}

// HoldsSuperset reports whether id's gossiped directory holds an image
// covering every key of q, a request translated by the membership's
// dictionary (false for an unknown agent).
func (ms *Membership) HoldsSuperset(id string, q KeyQuery) bool {
	m, ok := ms.members[id]
	return ok && m.dir.HoldsSuperset(q)
}

// CheckIndex audits the shared dictionary's route terms, then every
// member's mirror index against its mirror entries, in member-ID order.
func (ms *Membership) CheckIndex() error {
	if err := ms.dict.checkTerms(); err != nil {
		return err
	}
	ids := make([]string, 0, len(ms.members))
	for id := range ms.members {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if err := ms.members[id].dir.checkIndex(); err != nil {
			return fmt.Errorf("member %s: %w", id, err)
		}
	}
	return nil
}
