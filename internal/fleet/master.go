package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/resilience"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// AgentHeader names the agent that served a routed request, echoed on
// the master's /v1/request responses so callers and harnesses can audit
// placement without parsing the body.
const AgentHeader = "X-Landlord-Agent"

// Metric names and help strings (constants so landlord-lint can audit
// them statically).
const (
	metricRouteTotal = "landlord_fleet_route_total"
	helpRouteTotal   = "Routed requests by agent and outcome"

	metricKeyMovement = "landlord_fleet_ring_key_movement"
	helpKeyMovement   = "Fraction of sampled keyspace that changed owner per ring membership change"

	metricAgents = "landlord_fleet_agents"
	helpAgents   = "Registered agents by state"

	metricRouteAffinity = "landlord_fleet_route_affinity_total"
	helpRouteAffinity   = "Requests routed to a non-owner agent already holding a superset of the spec"

	metricRouteSeconds = "landlord_fleet_route_seconds"
	helpRouteSeconds   = "Time to choose a request's candidate agents: route key, ring and rendezvous order, directory affinity"
)

// probeKeys is how many sampled keys the key-movement histogram probes
// around each ring change: enough resolution to see 1/N slices at
// realistic fleet sizes, cheap enough to run inline under the route
// lock.
const probeKeys = 512

// forwardIdleConns is how many idle connections the master keeps to
// each agent. It must cover the forwards in flight to one agent at once:
// beyond it each forward dials and its connection is closed after (at
// http.DefaultTransport's 2, ~30% of forwards from 8 clients did).
const forwardIdleConns = 64

// MasterConfig tunes a Master. The zero value is serviceable: quorum 1,
// default vnodes, 3s suspect / never dead, 5s forward timeout, 3
// forward attempts.
type MasterConfig struct {
	// Quorum is how many healthy agents /v1/readyz requires before the
	// master reports ready (<= 0 means 1).
	Quorum int
	// VNodes is the ring's virtual-node count per agent (<= 0 takes
	// DefaultVNodes).
	VNodes int
	// SuspectAfter is the heartbeat age that marks an agent suspect
	// (0 takes 3s; negative disables the age-based transition).
	SuspectAfter time.Duration
	// DeadAfter is the heartbeat age that removes an agent from the
	// ring (<= 0: never — partitioned agents stay suspect, which keeps
	// the keyspace stable through partitions and routes around them
	// via the rendezvous fallback).
	DeadAfter time.Duration
	// ForwardTimeout caps each routed request's downstream budget
	// (<= 0 takes 5s). An incoming X-Landlord-Deadline tighter than
	// this wins.
	ForwardTimeout time.Duration
	// MaxAttempts bounds how many agents one request may be offered to
	// (<= 0 takes 3): the ring's pick plus rendezvous-ordered
	// fallbacks.
	MaxAttempts int
	// Breaker configures the per-agent circuit breaker.
	Breaker resilience.BreakerConfig
	// Transport, when set, carries every request the master sends: its
	// forwards to agents and its lease polls to the HA peer. nil gives
	// each agent a clone of http.DefaultTransport that keeps
	// forwardIdleConns idle connections, and the peer
	// http.DefaultClient's transport.
	Transport http.RoundTripper
	// Clock is the time source (nil = time.Now); injectable for tests.
	Clock func() time.Time
	// HA enables the high-availability layer (ha.go); the zero value
	// keeps the master single and stateless.
	HA HAConfig
}

func (cfg MasterConfig) withDefaults() MasterConfig {
	if cfg.Quorum <= 0 {
		cfg.Quorum = 1
	}
	if cfg.SuspectAfter == 0 {
		cfg.SuspectAfter = 3 * time.Second
	}
	if cfg.ForwardTimeout <= 0 {
		cfg.ForwardTimeout = 5 * time.Second
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return cfg
}

// forwardOutcome is how one forward to an agent ended: the outcome label
// of landlord_fleet_route_total.
type forwardOutcome uint8

const (
	outcomeOK forwardOutcome = iota
	outcomeShed
	outcomeRejected
	outcomeUnavailable
	outcomeCircuitOpen
	outcomeTransportError
	numOutcomes
)

var outcomeNames = [numOutcomes]string{"ok", "shed", "rejected", "unavailable", "circuit_open", "transport_error"}

func (o forwardOutcome) String() string { return outcomeNames[o] }

// agentConn is the master's client to one agent: a server.Client with
// its own circuit breaker, no client-side retries (failover to the next
// candidate is the master's retry), and the agent's series of
// landlord_fleet_route_total by outcome, looked up on the first forward
// so later ones only increment one.
type agentConn struct {
	url    string
	client *server.Client

	id     string
	reg    *telemetry.Registry
	once   sync.Once
	routed [numOutcomes]*telemetry.Counter
}

// count records one forward to the agent with the given outcome. The
// series are resolved here rather than in connLocked: a registry lookup
// can take the registry's lock, and a /metrics scrape holds that lock
// while the agents gauge takes m.mu, so it must never run under m.mu.
func (c *agentConn) count(o forwardOutcome) {
	c.once.Do(c.resolve)
	c.routed[o].Inc()
}

func (c *agentConn) resolve() {
	for o := range c.routed {
		c.routed[o] = c.reg.Counter(metricRouteTotal, helpRouteTotal,
			telemetry.Label{Key: "agent", Value: c.id},
			telemetry.Label{Key: "outcome", Value: forwardOutcome(o).String()})
	}
}

// Master is the fleet control plane: it owns membership, the
// consistent-hash ring, per-agent breakers and gossip mirrors, and
// forwards /v1/request to agents. All of its state is soft — rebuilt
// from agent re-registration after a restart.
type Master struct {
	cfg    MasterConfig
	reg    *telemetry.Registry
	spans  *telemetry.SpanTracer
	traces *telemetry.TraceRing

	mu    sync.Mutex
	ms    *Membership
	ring  *Ring
	conns map[string]*agentConn

	keyMove   *telemetry.Histogram
	routeTime *telemetry.Histogram
	// decoder reads /v1/request bodies; the master has no repository to
	// derive the body bound from, so it takes the default.
	decoder *server.RequestDecoder

	// ha is the high-availability half (ha.go). Lock order: m.mu
	// before ha.mu, never the reverse.
	ha haControl
}

// NewMaster creates a master.
func NewMaster(cfg MasterConfig) *Master {
	cfg = cfg.withDefaults()
	reg := telemetry.NewRegistry()
	traces := telemetry.NewTraceRing(64, 64)
	m := &Master{
		cfg:    cfg,
		reg:    reg,
		spans:  telemetry.NewSpanTracer(traces),
		traces: traces,
		ms:     NewMembership(cfg.SuspectAfter, cfg.DeadAfter),
		ring:   NewRing(cfg.VNodes),
		conns:  make(map[string]*agentConn),
	}
	m.keyMove = reg.Histogram(metricKeyMovement, helpKeyMovement,
		[]float64{0.01, 0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.5, 0.75, 1})
	m.routeTime = reg.Histogram(metricRouteSeconds, helpRouteSeconds, telemetry.DefaultLatencyBuckets())
	m.decoder = server.NewRequestDecoder(reg, server.DefaultRequestBodyLimit)
	m.initHA(cfg.HA)
	for _, st := range []string{"known", "healthy", "suspect"} {
		st := st
		reg.GaugeFunc(metricAgents, helpAgents, func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			known, healthy, suspect := m.ms.Counts()
			switch st {
			case "healthy":
				return float64(healthy)
			case "suspect":
				return float64(suspect)
			default:
				return float64(known)
			}
		}, telemetry.Label{Key: "state", Value: st})
	}
	return m
}

// Registry returns the master's metric registry (for /metrics and
// tests).
func (m *Master) Registry() *telemetry.Registry { return m.reg }

// Handler returns the master's HTTP routes.
func (m *Master) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/fleet/v1/register", m.handleRegister)
	mux.HandleFunc("/fleet/v1/heartbeat", m.handleHeartbeat)
	mux.HandleFunc("/fleet/v1/deregister", m.handleDeregister)
	mux.HandleFunc("/fleet/v1/members", m.handleMembers)
	mux.HandleFunc("/fleet/v1/route", m.handleRoute)
	mux.HandleFunc("/fleet/v1/lease", m.handleLease)
	mux.HandleFunc("/fleet/v1/ha", m.handleHA)
	mux.HandleFunc("/fleet/v1/handoff", m.handleHandoff)
	mux.HandleFunc("/v1/request", m.handleRequest)
	mux.HandleFunc("/v1/readyz", m.handleReadyz)
	mux.HandleFunc("/v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		fleetWriteJSON(w, http.StatusOK, map[string]string{"status": "ok", "role": "master"})
	})
	mux.HandleFunc("/v1/trace", m.handleTrace)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		m.reg.WriteText(w)
	})
	return mux
}

// ---- membership endpoints ----

func (m *Master) handleRegister(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		fleetWriteError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req RegisterRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		fleetWriteError(w, http.StatusBadRequest, "decoding register: %v", err)
		return
	}
	if req.ID == "" || req.URL == "" {
		fleetWriteError(w, http.StatusBadRequest, "register needs id and url")
		return
	}
	m.mu.Lock()
	if m.ms.Register(req, m.cfg.Clock()) {
		m.observeRingChange(func() { m.ring.Add(req.ID) })
	}
	if c, ok := m.conns[req.ID]; ok && c.url != req.URL {
		delete(m.conns, req.ID) // re-registered elsewhere: drop the stale conn
	}
	known, _, _ := m.ms.Counts()
	m.mu.Unlock()
	m.haNoteMember(req.ID, req.URL, req.Gen)
	fleetWriteJSON(w, http.StatusOK, RegisterResponse{OK: true, Known: known})
}

func (m *Master) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		fleetWriteError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	req, err := readHeartbeat(r.Body, r.ContentLength)
	if err != nil {
		fleetWriteError(w, http.StatusBadRequest, "decoding heartbeat: %v", err)
		return
	}
	m.mu.Lock()
	resp := m.ms.Heartbeat(req, m.cfg.Clock())
	m.mu.Unlock()
	// Heartbeat responses carry the lease view — the "renewed over the
	// existing heartbeat plumbing" half: agents learn a new epoch from
	// whichever master they can still reach, including the standby.
	resp.Epoch, resp.Holder = m.haStamp()
	fleetWriteJSON(w, http.StatusOK, resp)
}

func (m *Master) handleDeregister(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		fleetWriteError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req DeregisterRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		fleetWriteError(w, http.StatusBadRequest, "decoding deregister: %v", err)
		return
	}
	m.mu.Lock()
	if m.ms.Deregister(req.ID) {
		if m.ring.Has(req.ID) {
			m.observeRingChange(func() { m.ring.Remove(req.ID) })
		}
		delete(m.conns, req.ID)
	}
	m.mu.Unlock()
	m.haNoteUnmember(req.ID)
	fleetWriteJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (m *Master) handleMembers(w http.ResponseWriter, r *http.Request) {
	m.mu.Lock()
	snap := m.ms.Snapshot(m.cfg.Clock())
	m.mu.Unlock()
	fleetWriteJSON(w, http.StatusOK, snap)
}

// handleRoute is GET /fleet/v1/route?key=N: where a key routes right
// now. Chaos harnesses sample it across membership changes to assert
// the bounded-movement property on the live master, not just the ring
// in isolation.
func (m *Master) handleRoute(w http.ResponseWriter, r *http.Request) {
	key, err := strconv.ParseUint(r.URL.Query().Get("key"), 10, 64)
	if err != nil {
		fleetWriteError(w, http.StatusBadRequest, "route needs ?key=<uint64>")
		return
	}
	m.mu.Lock()
	info := m.routeLocked(key, KeyQuery{}, false)
	m.mu.Unlock()
	fleetWriteJSON(w, http.StatusOK, info)
}

func (m *Master) handleReadyz(w http.ResponseWriter, r *http.Request) {
	m.mu.Lock()
	known, healthy, suspect := m.ms.Counts()
	m.mu.Unlock()
	resp := ReadyResponse{Known: known, Healthy: healthy, Suspect: suspect, Quorum: m.cfg.Quorum}
	if healthy >= m.cfg.Quorum {
		resp.Status = "ready"
		fleetWriteJSON(w, http.StatusOK, resp)
		return
	}
	resp.Status = "not ready"
	w.Header().Set("Retry-After", "1")
	fleetWriteJSON(w, http.StatusServiceUnavailable, resp)
}

func (m *Master) handleTrace(w http.ResponseWriter, r *http.Request) {
	fleetWriteJSON(w, http.StatusOK, m.traces.Dump(0))
}

// ---- routing ----

// routeLocked computes a key's owner and failover candidates. When
// packages is non-nil, routing is affinity-aware: an agent whose
// gossiped directory already holds a superset image of the requested
// packages serves the spec as a pure hit — no merge, no new bytes —
// so superset holders outrank everything except the owner-when-it-
// also-holds. The pinned preference order (TestRouteAffinityOrder):
//
//  1. the ring owner, when routable AND holding a superset
//  2. non-owner superset holders, in rendezvous order
//  3. the ring owner, when routable (no superset)
//  4. remaining routable agents, in rendezvous order
//
// The superset question is answered from the mirrors' index for q, a
// request the membership's dictionary translated (KeyDict.Route); it is
// not asked unless known — a key no agent ever gossiped rules every
// holder out.
//
// Caller holds m.mu.
func (m *Master) routeLocked(key uint64, q KeyQuery, known bool) RouteInfo {
	info := RouteInfo{Key: key}
	routable := m.ms.Routable()
	owner := m.ring.Lookup(key)
	// The ring's pick leads iff it is currently routable; otherwise the
	// rendezvous order alone decides (the owner is partitioned or
	// draining — its keys spill to stable fallbacks until it returns).
	ownerRoutable := contains(routable, owner)
	if owner != "" {
		info.Owner = owner
	}
	order := RendezvousOrder(routable, key)
	ownerHolds := false
	if known {
		ownerHolds = ownerRoutable && m.ms.HoldsSuperset(owner, q)
		if ownerHolds {
			info.Candidates = append(info.Candidates, owner)
		}
		for _, id := range order {
			if id != owner && m.ms.HoldsSuperset(id, q) {
				info.Candidates = append(info.Candidates, id)
			}
		}
		// A leading non-owner holder is an affinity redirect.
		info.Affinity = !ownerHolds && len(info.Candidates) > 0
	}
	if ownerRoutable && !ownerHolds {
		info.Candidates = append(info.Candidates, owner)
	}
	for _, id := range order {
		if id == owner || contains(info.Candidates, id) {
			continue
		}
		info.Candidates = append(info.Candidates, id)
	}
	if len(info.Candidates) > m.cfg.MaxAttempts {
		info.Candidates = info.Candidates[:m.cfg.MaxAttempts]
	}
	return info
}

func contains(ids []string, id string) bool {
	for _, v := range ids {
		if v == id {
			return true
		}
	}
	return false
}

// connLocked returns (creating if needed) the client for an agent.
// Caller holds m.mu.
func (m *Master) connLocked(id string) *agentConn {
	url := m.ms.URL(id)
	if url == "" {
		return nil
	}
	if c, ok := m.conns[id]; ok && c.url == url {
		return c
	}
	hc := &http.Client{Transport: m.cfg.Transport}
	if hc.Transport == nil {
		t := http.DefaultTransport.(*http.Transport).Clone()
		t.MaxIdleConnsPerHost = forwardIdleConns
		hc.Transport = t
	}
	cl := server.NewClient(url, hc)
	cl.MaxRetries = 0 // failover to the next candidate is the retry
	cl.SetBreaker(resilience.NewBreaker(m.cfg.Breaker))
	if m.ha.enabled() {
		// Every forward carries the lease view, read at send time: a
		// demoted master's next forward already carries the new epoch.
		cl.SetExtraHeaders(func(h http.Header) {
			if epoch, holder := m.haStamp(); epoch > 0 {
				h.Set(server.EpochHeader, strconv.FormatUint(epoch, 10))
				h.Set(server.MasterHeader, holder)
			}
		})
	}
	c := &agentConn{url: url, client: cl, id: id, reg: m.reg}
	m.conns[id] = c
	return c
}

// handleRequest is POST /v1/request on the master: route by spec
// signature, forward the body as received, fail over along the
// rendezvous order.
func (m *Master) handleRequest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		fleetWriteError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	// Responses are stamped with the lease view whatever the outcome, so
	// clients can tell which master term answered across a failover. A
	// standby refuses before it reads the body, as an agent sheds before
	// it queues.
	epoch, holder := m.haStamp()
	if epoch > 0 {
		w.Header().Set(server.EpochHeader, strconv.FormatUint(epoch, 10))
		w.Header().Set(server.MasterHeader, holder)
	}
	if !m.haIsPrimary() {
		w.Header().Set("Retry-After", "1")
		fleetWriteError(w, http.StatusServiceUnavailable,
			"not primary: epoch %d held by %s", epoch, holder)
		return
	}

	// Continue a propagated trace or start a fresh one; the forward
	// client re-propagates it to the chosen agent.
	tid, parent, _ := telemetry.ParseTraceHeader(r.Header.Get(telemetry.TraceHeaderName))
	at := m.spans.Start(tid, parent)
	routeSpan := at.Begin(telemetry.StageFleetRoute, at.Root())

	refuse := func(status int, msg string) {
		at.End(routeSpan)
		at.Finish("error", msg, 0)
		fleetWriteError(w, status, "%s", msg)
	}
	dec, err := m.decoder.Decode(w, r, at, routeSpan)
	if err != nil {
		refuse(server.DecodeFailure(err))
		return
	}
	if len(dec.Keys) == 0 {
		dec.Release()
		refuse(http.StatusBadRequest, "request needs packages")
		return
	}
	// The forward sends dec.Body() itself. A forward that fails can leave
	// its transport still writing those bytes after it returns, so only a
	// request whose every forward was answered 200 — the agent has read
	// the whole body by then — gives its buffer back to the pool.
	reusable := true
	defer func() {
		if reusable {
			dec.Release()
		}
	}()

	routeStart := time.Now()
	// One lock hold covers the keys' translation, the route and the lead
	// candidate's client; fallbacks look theirs up only if reached.
	m.mu.Lock()
	info := m.routeLocked(m.ms.dict.Route(dec.Keys))
	var lead *agentConn
	if len(info.Candidates) > 0 {
		lead = m.connLocked(info.Candidates[0])
	}
	m.mu.Unlock()
	m.routeTime.Observe(time.Since(routeStart).Seconds())
	if info.Affinity {
		m.reg.Counter(metricRouteAffinity, helpRouteAffinity).Inc()
	}
	at.AttrInt(routeSpan, "route_key", int64(info.Key))
	at.AttrStr(routeSpan, "owner", info.Owner)
	at.End(routeSpan)

	if len(info.Candidates) == 0 {
		at.Finish("unroutable", "no routable agents", 0)
		w.Header().Set("Retry-After", "1")
		fleetWriteError(w, http.StatusServiceUnavailable, "no routable agents")
		return
	}

	ctx, cancel := m.forwardContext(r)
	defer cancel()
	ctx = telemetry.ContextWithTrace(ctx, at)

	var lastErr error
	for i, id := range info.Candidates {
		conn := lead
		if i > 0 {
			m.mu.Lock()
			conn = m.connLocked(id)
			m.mu.Unlock()
		}
		if conn == nil {
			continue
		}
		fwd := at.Begin(telemetry.StageFleetForward, at.Root())
		at.AttrStr(fwd, "agent", id)
		var resp server.RequestResponse
		err := conn.client.DoCtx(ctx, http.MethodPost, "/v1/request", dec.Body(), &resp)
		at.End(fwd)
		reusable = reusable && err == nil
		if err == nil {
			conn.count(outcomeOK)
			at.Finish(resp.Op, "", 0)
			w.Header().Set(AgentHeader, id)
			fleetWriteJSON(w, http.StatusOK, RouteResponse{
				Op: resp.Op, ImageID: resp.ImageID, ImageVersion: resp.ImageVersion,
				ImageSize: resp.ImageSize, RequestBytes: resp.RequestBytes,
				BytesWritten: resp.BytesWritten, Evicted: resp.Evicted,
				Packages: resp.Packages, Agent: id,
			})
			return
		}
		lastErr = err
		// An agent refusing with a higher epoch is the demotion signal:
		// a newer primary exists and the agents already follow it. A
		// demoted master must not keep forwarding — the remaining
		// candidates would see a stale (or holderless) stamp.
		m.maybeDemoteOnEpoch(err)
		if !m.haIsPrimary() {
			newEpoch, newHolder := m.haStamp()
			w.Header().Set(server.EpochHeader, strconv.FormatUint(newEpoch, 10))
			w.Header().Set(server.MasterHeader, newHolder)
			w.Header().Set("Retry-After", "1")
			at.Finish("superseded", "demoted mid-forward", 0)
			fleetWriteError(w, http.StatusServiceUnavailable,
				"not primary: superseded at epoch %d", newEpoch)
			return
		}
		outcome := classifyForwardError(err)
		conn.count(outcome)
		switch outcome {
		case outcomeShed, outcomeRejected:
			// The agent answered and said no (429 admission, 4xx): relay
			// verbatim — a different agent would only duplicate the spec's
			// cache slice.
			var se *server.StatusError
			errors.As(err, &se) // the outcome came from a StatusError
			at.Finish(outcome.String(), se.Msg, 0)
			if outcome == outcomeShed {
				w.Header().Set("Retry-After", retryAfterSeconds(se))
			}
			fleetWriteError(w, se.Status, "%s", forwardErrMsg(se))
			return
		case outcomeTransportError:
			// An unavailable (503: degraded or recovering) or circuit-open
			// agent is only routed around; a transport error also marks it
			// suspect.
			m.mu.Lock()
			m.ms.Suspect(id)
			m.mu.Unlock()
		}
		if ctx.Err() != nil {
			break
		}
	}
	at.Finish("error", fmt.Sprintf("all candidates failed: %v", lastErr), 0)
	w.Header().Set("Retry-After", "1")
	fleetWriteError(w, http.StatusServiceUnavailable, "all candidates failed: %v", lastErr)
}

// forwardContext derives the downstream budget: the propagated client
// deadline if any, capped by ForwardTimeout.
func (m *Master) forwardContext(r *http.Request) (context.Context, context.CancelFunc) {
	ctx := r.Context()
	if v := r.Header.Get(server.DeadlineHeader); v != "" {
		if ns, err := strconv.ParseInt(v, 10, 64); err == nil && ns > 0 {
			var cancel1 context.CancelFunc
			ctx, cancel1 = context.WithDeadline(ctx, time.Unix(0, ns))
			ctx2, cancel2 := context.WithTimeout(ctx, m.cfg.ForwardTimeout)
			return ctx2, func() { cancel2(); cancel1() }
		}
	}
	return context.WithTimeout(ctx, m.cfg.ForwardTimeout)
}

// classifyForwardError buckets a forward failure for the routing loop
// and the route_total outcome label.
func classifyForwardError(err error) forwardOutcome {
	if server.IsCircuitOpen(err) {
		return outcomeCircuitOpen
	}
	var se *server.StatusError
	if errors.As(err, &se) {
		switch {
		case se.Status == http.StatusServiceUnavailable:
			return outcomeUnavailable
		case se.Status == http.StatusTooManyRequests:
			return outcomeShed
		default:
			return outcomeRejected
		}
	}
	return outcomeTransportError
}

func forwardErrMsg(se *server.StatusError) string {
	if se.Msg != "" {
		return se.Msg
	}
	return fmt.Sprintf("agent refused with status %d", se.Status)
}

// retryAfterSeconds relays the agent's own Retry-After hint (whole
// seconds, minimum 1) instead of a hardcoded value, so admission
// windows survive the extra hop.
func retryAfterSeconds(se *server.StatusError) string {
	if se.RetryAfter > 0 {
		return strconv.Itoa(int((se.RetryAfter + time.Second - 1) / time.Second))
	}
	return "1"
}

// ---- sweeping & ring movement ----

// SweepNow runs one membership sweep: ages healthy members to suspect
// and (when DeadAfter is set) suspect to dead, removing the dead from
// the ring. Returns the IDs that died.
func (m *Master) SweepNow() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	died := m.ms.Sweep(m.cfg.Clock())
	for _, id := range died {
		if m.ring.Has(id) {
			id := id
			m.observeRingChange(func() { m.ring.Remove(id) })
		}
		delete(m.conns, id)
	}
	return died
}

// StartSweeper runs SweepNow every interval until the returned stop
// function is called. interval <= 0 disables sweeping.
func (m *Master) StartSweeper(interval time.Duration) (stop func()) {
	if interval <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				m.SweepNow()
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// observeRingChange runs mutate (an Add or Remove) and observes the
// fraction of a fixed probe keyset whose owner changed. Transitions
// from or to an empty ring are not observed — movement there is total
// by construction, not a churn property. Caller holds m.mu.
func (m *Master) observeRingChange(mutate func()) {
	if m.ring.Len() == 0 {
		mutate()
		return
	}
	before := make([]string, probeKeys)
	for i := range before {
		before[i] = m.ring.Lookup(probeKey(i))
	}
	mutate()
	if m.ring.Len() == 0 {
		return
	}
	moved := 0
	for i := range before {
		if m.ring.Lookup(probeKey(i)) != before[i] {
			moved++
		}
	}
	m.keyMove.Observe(float64(moved) / float64(probeKeys))
}

// probeKey spreads probe indices across the keyspace (golden-ratio
// stride; Lookup mixes again, so the stride just needs distinctness).
func probeKey(i int) uint64 { return uint64(i) * 0x9e3779b97f4a7c15 }

// KeyMovementStats exposes the key-movement histogram's count and mean
// for tests and the chaos harness audit.
func (m *Master) KeyMovementStats() (count int64, mean float64) {
	count = m.keyMove.Count()
	if count > 0 {
		mean = m.keyMove.Sum() / float64(count)
	}
	return count, mean
}

// CheckIntegrity audits the routing index: every route term the key
// dictionary stored is recomputed from its key, every member's
// per-image bitsets are rebuilt from its mirrored directory entries and
// compared with the incrementally maintained ones, and the index may
// hold no image the mirror dropped. The chaos harnesses call it after
// every round; it is not for the serving path.
func (m *Master) CheckIntegrity() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ms.CheckIndex()
}

// Mirror returns the master's mirror of agent id's image directory as
// a Full frame at the revision it acknowledged (false for an unknown
// agent). Audits compare it with the agent's own directory; routing
// reads the index instead.
func (m *Master) Mirror(id string) (DirDelta, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.ms.Dir(id)
	if f == nil {
		return DirDelta{}, false
	}
	return DirDelta{To: f.Rev(), Full: true, Upserts: f.Entries()}, true
}

// MembersNow returns the current membership snapshot.
func (m *Master) MembersNow() []MemberInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ms.Snapshot(m.cfg.Clock())
}

// ---- JSON helpers (mirror the server package's idiom) ----

func fleetWriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func fleetWriteError(w http.ResponseWriter, status int, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	fleetWriteJSON(w, status, map[string]string{"error": strings.TrimSpace(msg)})
}
