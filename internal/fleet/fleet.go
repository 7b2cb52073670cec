// Package fleet is the networked control plane: a master/agent
// deployment of the paper's one-LANDLORD-cache-per-site model, each
// agent one site's cache. A landlordd running in master mode routes
// every /v1/request to one of N landlordd agents over HTTP, choosing
// the agent by rendezvous hashing on the job specification's signature
// so the same spec keeps landing on the same cache (and membership
// churn moves only the keys the joining or departing agent owns).
// Agents register with the master, heartbeat their liveness, and gossip
// their image-directory state as delta-sync frames (gossip.go) carried
// in the heartbeat body; the master indexes each mirror (dirindex.go) so
// affinity routing never scans package lists.
//
// The resilience stack rides every hop: the master keeps a circuit
// breaker per agent, propagates request deadlines (X-Landlord-Deadline)
// and trace context (X-Landlord-Trace) downstream, fails over along
// the same rendezvous order when the owner is suspect or refusing, and
// reports fleet membership on /v1/readyz — 503 until a configured
// quorum of agents is healthy.
//
// Cache state is never replicated across agents: each agent owns its
// slice of the keyspace independently, and a restarted master rebuilds
// its routing state (membership, gossip mirrors, breakers) from agent
// re-registration. The control plane is highly available without
// replicating anything but the lease: a standby master learns the
// primary's epoch and holder from lease polls, builds its own routing
// state from the same agent beats, and promotes on primary silence;
// agents fence stale primaries by epoch, and a draining agent hands its
// hot specs to its rendezvous successors (ha.go, epoch.go, handoff.go). See
// DESIGN.md section 10 for the failure-semantics contract and section
// 13 for the high-availability protocol.
package fleet

import (
	"hash/fnv"
	"slices"
	"sort"

	"repro/internal/spec"
)

// Wire types. Everything the control plane sends is JSON, matching the
// data plane's /v1 API idiom.

// RegisterRequest announces an agent to the master.
type RegisterRequest struct {
	// ID is the agent's stable identity (the name RendezvousOrder
	// scores).
	ID string `json:"id"`
	// URL is the agent's advertised base URL for forwarded requests.
	URL string `json:"url"`
	// Gen is the agent's process generation; a changed generation
	// resets the master's gossip mirror (the agent's directory
	// revisions restarted from zero with its cache).
	Gen uint64 `json:"gen"`
}

// RegisterResponse acknowledges a registration.
type RegisterResponse struct {
	OK bool `json:"ok"`
	// Known is the master's current member count, for logs.
	Known int `json:"known"`
}

// HeartbeatRequest is one agent liveness + gossip beat.
type HeartbeatRequest struct {
	ID  string `json:"id"`
	Gen uint64 `json:"gen"`
	// Delta carries the agent's image-directory changes since the last
	// revision the master acknowledged (delta-sync encoding, gossip.go).
	Delta DirDelta `json:"delta"`
}

// HeartbeatResponse acks a beat.
type HeartbeatResponse struct {
	// AckRev is the master's applied directory revision; the agent's
	// next delta starts there.
	AckRev uint64 `json:"ack_rev"`
	// Resync asks the agent to send a Full directory frame next beat
	// (the master detected a gap in the delta stream).
	Resync bool `json:"resync,omitempty"`
	// Unknown tells the agent the master does not know it — it
	// restarted and lost membership — so the agent must re-register.
	Unknown bool `json:"unknown,omitempty"`
	// Epoch/Holder carry the responding master's lease view (zero when
	// HA is off): the heartbeat is the lease-renewal plumbing, so
	// agents learn a failover from whichever master still reaches
	// them.
	Epoch  uint64 `json:"epoch,omitempty"`
	Holder string `json:"holder,omitempty"`
}

// DeregisterRequest removes an agent (graceful shutdown).
type DeregisterRequest struct {
	ID string `json:"id"`
}

// RouteResponse is the master's /v1/request payload: the agent's
// response plus which agent served it.
type RouteResponse struct {
	Op           string `json:"op"`
	ImageID      uint64 `json:"image_id"`
	ImageVersion uint64 `json:"image_version"`
	ImageSize    int64  `json:"image_size"`
	RequestBytes int64  `json:"request_bytes"`
	BytesWritten int64  `json:"bytes_written"`
	Evicted      int    `json:"evicted"`
	Packages     int    `json:"packages"`
	// Agent is the ID of the agent that served the request.
	Agent string `json:"agent"`
}

// MemberInfo is one row of GET /fleet/v1/members.
type MemberInfo struct {
	ID        string `json:"id"`
	URL       string `json:"url"`
	State     string `json:"state"`
	Gen       uint64 `json:"gen"`
	DirRev    uint64 `json:"dir_rev"`
	DirImages int    `json:"dir_images"`
	// SinceBeatMS is milliseconds since the last heartbeat.
	SinceBeatMS int64 `json:"since_beat_ms"`
}

// ReadyResponse is the master's /v1/readyz payload: fleet membership
// and the quorum gate.
type ReadyResponse struct {
	Status  string `json:"status"`
	Known   int    `json:"known"`
	Healthy int    `json:"healthy"`
	Suspect int    `json:"suspect"`
	Quorum  int    `json:"quorum"`
}

// RouteInfo is the /fleet/v1/route debug payload: where a key routes
// and in what fallback order. Chaos harnesses sample it to assert the
// bounded-key-movement property.
type RouteInfo struct {
	Key        uint64   `json:"key"`
	Owner      string   `json:"owner"`
	Candidates []string `json:"candidates"`
	// Affinity marks the leading candidate as a non-owner agent chosen
	// because its directory already holds a superset of the spec.
	Affinity bool `json:"affinity,omitempty"`
}

// RouteKey derives the routing key from a job's package keys: the
// spec-signature hash RendezvousOrder places. It sums the route terms
// of the distinct keys (spec.RouteSum), so neither ordering nor a
// repeated key (the agent's spec is a set) scatters one spec across
// agents, and finalises the sum with routeKey. Closure happens on the agent, so it
// hashes the requested packages, which is as stable. It is the string
// form of KeyDict.Route, which the master computes instead.
func RouteKey(packages []string) uint64 {
	distinct := slices.Clone(packages)
	slices.Sort(distinct)
	return routeKey(spec.RouteSum(slices.Compact(distinct)))
}

// agentRouteSeed salts the route sum before it is mixed. It once kept
// the fleet's route off the bits a cache-level shard route reduced;
// that router is gone, and the seed stays because dropping it would
// re-draw every spec's agent. It is the high half of fnv128's offset
// basis, a constant with nothing up its sleeve: any seed places specs
// as another random draw would.
const agentRouteSeed = 0x6c62272e07bb0142

// routeKey finalises a route sum into the key RendezvousOrder places.
// RendezvousOrder mixes the key again with each member's hash; the mix
// here is kept because
// the key also leaves the master (RouteInfo.Key, the trace's
// route_key), and a raw sum of fnv terms is a poor hash to hand out:
// the low k bits of a term depend only on the low k bits of the key's
// bytes. Dropping it would also re-draw every spec's agent.
func routeKey(sum uint64) uint64 { return spec.RouteMix(sum ^ agentRouteSeed) }

// RendezvousOrder returns members sorted by descending
// highest-random-weight score for key, the fleet's one placement
// function. Each member scores the key independently, so the order is a
// pure function of (key, member set) and churn never reorders the
// survivors: a key's owner is the first member of its order that is
// not dead, a joiner takes over exactly the keys it outscores everyone
// on (1/(N+1) of them in expectation, all moved to it), a departure
// hands each of its keys to the next member of that key's order and
// leaves every other owner unchanged, and failover walks the same
// order. There is no virtual-node count to tune: the spread over N
// members is that of N independent draws per key.
func RendezvousOrder(members []string, key uint64) []string {
	type scored struct {
		member string
		score  uint64
	}
	ss := make([]scored, 0, len(members))
	for _, m := range members {
		ss = append(ss, scored{member: m, score: spec.RouteMix(key ^ hashString(m))})
	}
	sort.Slice(ss, func(i, j int) bool {
		if ss[i].score != ss[j].score {
			return ss[i].score > ss[j].score
		}
		return ss[i].member < ss[j].member
	})
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = s.member
	}
	return out
}

// hashString is fnv64a of s, the member-name hash the rendezvous scorer
// mixes with the key.
func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}
