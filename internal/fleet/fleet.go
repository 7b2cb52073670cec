// Package fleet is the networked control plane: a real master/agent
// deployment of the site model internal/cluster simulates in-process.
// A landlordd running in master mode routes every /v1/request to one
// of N landlordd agents over HTTP, choosing the
// agent by consistent hashing on the job specification's signature so
// the same spec keeps landing on the same cache (and membership churn
// moves a bounded slice of the keyspace). Agents register with the
// master, heartbeat their liveness, and gossip their image-directory
// state as delta-sync frames (gossip.go) carried in the heartbeat body;
// the master indexes each mirror (dirindex.go) so affinity routing
// never scans package lists.
//
// The resilience stack rides every hop: the master keeps a circuit
// breaker per agent, propagates request deadlines (X-Landlord-Deadline)
// and trace context (X-Landlord-Trace) downstream, fails over to
// rendezvous-ordered fallback candidates when the ring's pick is
// suspect or refusing, and reports fleet membership on /v1/readyz —
// 503 until a configured quorum of agents is healthy.
//
// Cache state is never replicated across agents: each agent owns its
// slice of the keyspace independently, and a restarted master rebuilds
// its routing state (membership, gossip mirrors, breakers) from agent
// re-registration. What IS replicated is the control plane itself: a
// standby master mirrors the primary's durable lease + membership log
// over the lease channel and promotes on primary silence, agents fence
// stale primaries by epoch, and a draining agent hands its hot specs to
// its rendezvous successors (ha.go, epoch.go, handoff.go). See
// DESIGN.md section 10 for the failure-semantics contract and section
// 13 for the high-availability protocol.
package fleet

import (
	"hash/fnv"
	"slices"

	"repro/internal/spec"
)

// Wire types. Everything the control plane sends is JSON, matching the
// data plane's /v1 API idiom.

// RegisterRequest announces an agent to the master.
type RegisterRequest struct {
	// ID is the agent's stable identity (ring membership key).
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
// spec-signature hash the ring consumes. It sums the route terms of the
// distinct keys (spec.RouteSum), so neither ordering nor a repeated key
// (the agent's spec is a set) scatters one spec across agents, and
// finalises the sum with routeKey. Closure happens on the agent, so it
// hashes the requested packages, which is as stable. It is the string
// form of KeyDict.Route, which the master computes instead.
func RouteKey(packages []string) uint64 {
	distinct := slices.Clone(packages)
	slices.Sort(distinct)
	return routeKey(spec.RouteSum(slices.Compact(distinct)))
}

// agentRouteSeed keeps the fleet's route off the bits the cache's shard
// route reduces (core.ShardOf finalises the same sum unseeded): a
// spec's agent and its shard inside that agent are independent draws.
// It is the high half of fnv128's offset basis, a constant with nothing
// up its sleeve: any seed places specs as another random draw would.
const agentRouteSeed = 0x6c62272e07bb0142

// routeKey finalises a route sum into the key the ring places. The seed
// alone would separate the levels, since Ring.Lookup and
// RendezvousOrder mix their key again; the mix here is kept because the
// key also leaves the ring (RouteInfo.Key, the trace's route_key), and a
// raw sum of fnv terms is a poor hash to hand out: the low k bits of a
// term depend only on the low k bits of the key's bytes. Dropping it
// would also re-draw every spec's agent a second time.
func routeKey(sum uint64) uint64 { return spec.RouteMix(sum ^ agentRouteSeed) }

// hashString is fnv64a of s, the member-name hash the ring and
// rendezvous scorer share.
func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}
