package fleet

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"time"

	"repro/internal/server"
)

// High availability: a lease-based master pair.
//
// Two masters run at once — one primary holding the lease, one
// standby. The lease is pull-renewed: each LeaseTick the standby POSTs
// /fleet/v1/lease to its peer, and the grant carries the primary's
// epoch and holder, nothing else. The pair replicates no membership:
// agents register with and heartbeat every master in master_urls, so
// the standby's own Membership already holds what the primary routes
// from, and a promoted standby routes at once. Nothing is written to
// disk: a restarted master boots from StartPrimary and learns the
// current epoch from its peer's lease answers and the agents' epoch
// gates.
//
// Failover is epoch-counted, not wall-clocked: a standby that misses
// two consecutive lease polls promotes itself to epoch+1 — "within two
// lease intervals of primary silence". Every forward the primary
// sends is stamped with its epoch and ID; agents track the maximum
// epoch they have seen (learned from forwards and from heartbeat
// responses) and refuse stale-epoch forwards with 503 + the current
// epoch, which is also how a recovered old primary finds out it has
// been superseded: it demotes to standby and polls the lease channel.
//
// What this deliberately is NOT: a quorum protocol. With only two
// masters and no fencing, a partition that severs exactly the
// master↔master link while both still reach the agents can alternate
// the lease between them ("epoch duel"). That is safe — epochs are
// monotone, agents only ever honor the highest, and no two masters
// ever hold the same epoch — but it is availability churn, accepted
// and documented as a non-goal (DESIGN.md §13).

// HAConfig enables the high-availability layer on a master. The zero
// value (ID == "") disables it entirely — single-master deployments
// stamp no epochs and serve no lease.
type HAConfig struct {
	// ID is this master's stable identity (stamped on forwards as
	// X-Landlord-Master).
	ID string
	// PeerURL is the other master's base URL (lease polls go here).
	PeerURL string
	// StartPrimary boots this master holding the lease at epoch 1; a
	// standby (false) boots polling PeerURL.
	StartPrimary bool
	// LeaseInterval is the tick period for StartLeaseLoop (<= 0 takes
	// 1s). Harness-driven masters call LeaseTick directly instead.
	LeaseInterval time.Duration
}

// LeaseRequest is the standby's POST /fleet/v1/lease body: its
// identity and the highest epoch it knows.
type LeaseRequest struct {
	ID    string `json:"id"`
	Epoch uint64 `json:"epoch"`
}

// LeaseResponse is the grant. Granted is false when the receiver is
// not primary (or has itself seen a higher epoch) — the poll still
// teaches the standby the receiver's epoch view.
type LeaseResponse struct {
	Granted bool   `json:"granted"`
	Epoch   uint64 `json:"epoch"`
	Holder  string `json:"holder"`
}

// HAStatus is the GET /fleet/v1/ha payload (and LeaseTick's report).
type HAStatus struct {
	Enabled bool   `json:"enabled"`
	Role    string `json:"role"` // "primary" | "standby"
	Epoch   uint64 `json:"epoch"`
	Holder  string `json:"holder"`
	// Missed is the standby's consecutive missed lease polls.
	Missed     int `json:"missed"`
	Promotions int `json:"promotions"`
	Demotions  int `json:"demotions"`
}

// haControl is the master's HA half, locked separately from the
// routing state (lock order: m.mu before ha.mu, never the reverse —
// the forward path stamps epochs under ha.mu alone).
type haControl struct {
	cfg  HAConfig
	peer *server.Client

	mu       sync.Mutex
	primary  bool
	epoch    uint64 // highest epoch seen; ours when primary
	holder   string
	missed   int
	promoted int
	demoted  int
}

// enabled reports whether HA is configured (safe unlocked: cfg is
// immutable after NewMaster).
func (ha *haControl) enabled() bool { return ha.cfg.ID != "" }

// initHA wires the HA half at master construction.
func (m *Master) initHA(cfg HAConfig) {
	m.ha.cfg = cfg
	if !m.ha.enabled() {
		return
	}
	if cfg.PeerURL != "" {
		var hc *http.Client
		if m.cfg.Transport != nil {
			hc = &http.Client{Transport: m.cfg.Transport}
		}
		cl := server.NewClient(cfg.PeerURL, hc)
		cl.MaxRetries = 0 // the next tick is the retry
		cl.SetBreaker(nil)
		m.ha.peer = cl
	}
	if cfg.StartPrimary {
		m.ha.mu.Lock()
		m.becomePrimaryLocked(1)
		m.ha.mu.Unlock()
	}
}

// becomePrimaryLocked installs this master as the epoch's holder.
// Caller holds ha.mu.
func (m *Master) becomePrimaryLocked(epoch uint64) {
	ha := &m.ha
	ha.primary = true
	ha.epoch = epoch
	ha.holder = ha.cfg.ID
	ha.missed = 0
}

// haStamp returns the epoch and holder to stamp on forwards and
// responses (0, "" when HA is off or this master is standby-silent).
func (m *Master) haStamp() (uint64, string) {
	if !m.ha.enabled() {
		return 0, ""
	}
	m.ha.mu.Lock()
	defer m.ha.mu.Unlock()
	return m.ha.epoch, m.ha.holder
}

// haIsPrimary reports role (true when HA is disabled: a single master
// always serves).
func (m *Master) haIsPrimary() bool {
	if !m.ha.enabled() {
		return true
	}
	m.ha.mu.Lock()
	defer m.ha.mu.Unlock()
	return m.ha.primary
}

// maybeDemoteOnEpoch inspects a forward failure for an epoch rejection
// from an agent that has adopted a newer primary, and demotes. This is
// how a partitioned-then-healed old primary finds out it lost the
// lease without waiting for a lease exchange.
func (m *Master) maybeDemoteOnEpoch(err error) {
	if !m.ha.enabled() || err == nil {
		return
	}
	var se *server.StatusError
	if !errors.As(err, &se) {
		return
	}
	m.ha.mu.Lock()
	defer m.ha.mu.Unlock()
	if se.Epoch > m.ha.epoch {
		m.demoteLocked(se.Epoch, "")
	}
}

// demoteLocked steps down to standby under a higher epoch; the next
// lease tick polls the new holder. Caller holds ha.mu.
func (m *Master) demoteLocked(epoch uint64, holder string) {
	ha := &m.ha
	ha.primary = false
	ha.epoch = epoch
	ha.holder = holder
	ha.missed = 0
	ha.demoted++
}

// handleLease serves the standby's pull: a grant when this master is
// primary, a refusal teaching the caller our epoch view otherwise. A
// request carrying a higher epoch than ours is proof we were
// superseded — demote before answering.
func (m *Master) handleLease(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		fleetWriteError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if !m.ha.enabled() {
		fleetWriteError(w, http.StatusNotFound, "ha not configured")
		return
	}
	var req LeaseRequest
	if !server.DecodeSmallBody(w, r, "lease", &req) {
		return
	}
	m.ha.mu.Lock()
	defer m.ha.mu.Unlock()
	if req.Epoch > m.ha.epoch {
		if m.ha.primary {
			m.demoteLocked(req.Epoch, req.ID)
		} else {
			m.ha.epoch = req.Epoch
			m.ha.holder = req.ID
		}
	}
	fleetWriteJSON(w, http.StatusOK, LeaseResponse{
		Granted: m.ha.primary, Epoch: m.ha.epoch, Holder: m.ha.holder,
	})
}

// LeaseTick advances the lease state machine once. On a primary it is
// a no-op report. On a standby it polls the peer: a grant renews the
// lease and teaches the holder; a refusal or failure counts a miss,
// and two consecutive misses promote this master to epoch+1 — within
// two lease intervals of primary silence. Exported so
// harnesses drive failover deterministically; StartLeaseLoop wraps it
// for the daemon.
func (m *Master) LeaseTick(ctx context.Context) HAStatus {
	if !m.ha.enabled() {
		return HAStatus{}
	}
	m.ha.mu.Lock()
	if m.ha.primary || m.ha.peer == nil {
		defer m.ha.mu.Unlock()
		return m.haStatusLocked()
	}
	req := LeaseRequest{ID: m.ha.cfg.ID, Epoch: m.ha.epoch}
	peer := m.ha.peer
	m.ha.mu.Unlock()

	var resp LeaseResponse
	err := peer.DoCtx(ctx, http.MethodPost, "/fleet/v1/lease", req, &resp)

	m.ha.mu.Lock()
	defer m.ha.mu.Unlock()
	if m.ha.primary {
		// Promoted concurrently (an agent-side epoch rejection demoted
		// and re-promoted us, or another tick raced); the poll result
		// is stale.
		return m.haStatusLocked()
	}
	if err != nil || !resp.Granted {
		if resp.Epoch > m.ha.epoch {
			m.ha.epoch = resp.Epoch
			m.ha.holder = resp.Holder
		}
		m.ha.missed++
		if m.ha.missed >= 2 || mutantEnabled("leasetick") {
			m.ha.promoted++
			m.becomePrimaryLocked(m.ha.epoch + 1)
		}
		return m.haStatusLocked()
	}
	m.ha.missed = 0
	if resp.Epoch > m.ha.epoch || (resp.Epoch == m.ha.epoch && m.ha.holder == "") {
		m.ha.epoch = resp.Epoch
		m.ha.holder = resp.Holder
	}
	return m.haStatusLocked()
}

// StartLeaseLoop runs LeaseTick every LeaseInterval until the returned
// stop function is called.
func (m *Master) StartLeaseLoop() (stop func()) {
	if !m.ha.enabled() {
		return func() {}
	}
	interval := m.ha.cfg.LeaseInterval
	if interval <= 0 {
		interval = time.Second
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
				ctx, cancel := context.WithTimeout(context.Background(), interval)
				m.LeaseTick(ctx)
				cancel()
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// haStatusLocked builds the status report. Caller holds ha.mu.
func (m *Master) haStatusLocked() HAStatus {
	ha := &m.ha
	st := HAStatus{
		Enabled:    true,
		Role:       "standby",
		Epoch:      ha.epoch,
		Holder:     ha.holder,
		Missed:     ha.missed,
		Promotions: ha.promoted,
		Demotions:  ha.demoted,
	}
	if ha.primary {
		st.Role = "primary"
	}
	return st
}

// HAStatusNow returns the current HA status (the /fleet/v1/ha
// payload).
func (m *Master) HAStatusNow() HAStatus {
	if !m.ha.enabled() {
		return HAStatus{}
	}
	m.ha.mu.Lock()
	defer m.ha.mu.Unlock()
	return m.haStatusLocked()
}

func (m *Master) handleHA(w http.ResponseWriter, r *http.Request) {
	fleetWriteJSON(w, http.StatusOK, m.HAStatusNow())
}
