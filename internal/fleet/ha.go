package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/persist"
	"repro/internal/server"
)

// High availability: lease-based multi-master with a replicated
// control-plane log.
//
// Two masters run at once — one primary holding the lease, one
// standby. The lease is pull-renewed: each LeaseTick the standby POSTs
// /fleet/v1/lease to its peer, and the grant doubles as replication —
// the response carries the primary's HA-log frames from the standby's
// watermark (the poll's From field is the ack), or a checkpoint when
// the watermark has gapped. The HA log records epoch changes and
// membership (registrations/deregistrations), so once the stream is
// drained the standby's mirror is byte-identical to the primary's
// folded state. Nothing is written to disk: a restarted master boots
// from StartPrimary and learns the current epoch from its peer's lease
// answers and the agents' epoch gates.
//
// Failover is epoch-counted, not wall-clocked: a standby that misses
// two consecutive lease polls promotes itself to epoch+1 — "within two
// lease intervals of primary silence" — and starts a fresh HA log
// whose stream identity is the new epoch. Every forward the primary
// sends is stamped with its epoch and ID; agents track the maximum
// epoch they have seen (learned from forwards and from heartbeat
// responses) and refuse stale-epoch forwards with 503 + the current
// epoch, which is also how a recovered old primary finds out it has
// been superseded: it demotes to standby and resyncs over the lease
// channel.
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

// haLogRing bounds the HA log's replay ring; control-plane records are
// tiny and a gapped standby resyncs from a checkpoint anyway.
const haLogRing = 1024

// HAMember is one logged agent registration.
type HAMember struct {
	ID  string `json:"id"`
	URL string `json:"url"`
	Gen uint64 `json:"gen"`
}

// HAState is the folded control-plane state: the lease position plus
// the logged member set, members sorted by ID so the encoding is
// canonical — byte-comparable across primary and standby.
type HAState struct {
	Epoch   uint64     `json:"epoch"`
	Holder  string     `json:"holder"`
	Members []HAMember `json:"members"`
}

// haRecord is one HA-log entry (JSON payload inside a CRC frame).
type haRecord struct {
	Kind   string   `json:"kind"` // "epoch", "member", "unmember"
	Epoch  uint64   `json:"epoch,omitempty"`
	Holder string   `json:"holder,omitempty"`
	Member HAMember `json:"member,omitempty"`
	ID     string   `json:"id,omitempty"`
}

// haCheckpoint is the HA log's resync payload.
type haCheckpoint struct {
	Next  uint64  `json:"next"`
	State HAState `json:"state"`
}

// apply folds one record into the state.
func (st *HAState) apply(rec haRecord) {
	switch rec.Kind {
	case "epoch":
		st.Epoch = rec.Epoch
		st.Holder = rec.Holder
	case "member":
		for i := range st.Members {
			if st.Members[i].ID == rec.Member.ID {
				st.Members[i] = rec.Member
				return
			}
		}
		st.Members = append(st.Members, rec.Member)
		sort.Slice(st.Members, func(i, j int) bool { return st.Members[i].ID < st.Members[j].ID })
	case "unmember":
		for i := range st.Members {
			if st.Members[i].ID == rec.ID {
				st.Members = append(st.Members[:i], st.Members[i+1:]...)
				return
			}
		}
	}
}

// canon renders the state canonically (members already sorted).
func (st HAState) canon() []byte {
	b, _ := json.Marshal(st)
	return b
}

// LeaseRequest is the standby's POST /fleet/v1/lease body: its
// identity, the highest epoch it knows, and its HA-log watermark (the
// ack — every record below From is applied on the standby).
type LeaseRequest struct {
	ID    string `json:"id"`
	Epoch uint64 `json:"epoch"`
	From  uint64 `json:"from"`
}

// LeaseResponse is the grant. Granted is false when the receiver is
// not primary (or has itself seen a higher epoch) — the poll still
// teaches the standby the receiver's epoch view.
type LeaseResponse struct {
	Granted bool   `json:"granted"`
	Epoch   uint64 `json:"epoch"`
	Holder  string `json:"holder"`
	// Exactly one of Batch/Checkpoint is set on a grant: frames from
	// the ack watermark, or a checkpoint when the watermark gapped.
	Batch      *persist.StreamBatch           `json:"batch,omitempty"`
	Checkpoint *persist.StreamCheckpointBatch `json:"checkpoint,omitempty"`
}

// HAStatus is the GET /fleet/v1/ha payload (and LeaseTick's report).
type HAStatus struct {
	Enabled bool   `json:"enabled"`
	Role    string `json:"role"` // "primary" | "standby"
	Epoch   uint64 `json:"epoch"`
	Holder  string `json:"holder"`
	// Missed is the standby's consecutive missed lease polls.
	Missed int `json:"missed"`
	// StreamNext is the primary's next HA-log sequence; MirrorNext the
	// standby's watermark. Drained replication means MirrorNext on the
	// standby equals StreamNext on the primary.
	StreamNext uint64 `json:"stream_next,omitempty"`
	MirrorNext uint64 `json:"mirror_next,omitempty"`
	Resyncs    int    `json:"resyncs"`
	Promotions int    `json:"promotions"`
	Demotions  int    `json:"demotions"`
	// State is the folded HA state's canonical encoding — the
	// byte-identity audit compares these across masters.
	State []byte `json:"state"`
	// RecoveredState is the mirror exactly as-at this master's last
	// promotion: what it inherited from the dead primary, before its
	// own epoch record. Empty if never promoted from standby.
	RecoveredState []byte `json:"recovered_state,omitempty"`
}

// haControl is the master's HA half, locked separately from the
// routing state (lock order: m.mu before ha.mu, never the reverse —
// the forward path stamps epochs under ha.mu alone).
type haControl struct {
	cfg  HAConfig
	peer *server.Client

	mu        sync.Mutex
	primary   bool
	epoch     uint64 // highest epoch seen; ours when primary
	holder    string
	missed    int
	state     HAState // primary: folded log; standby: replicated mirror
	log       *persist.Streamer
	mirror    *persist.Follower
	resyncs   int
	promoted  int
	demoted   int
	recovered []byte // mirror bytes as-at last promotion
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
	m.ha.mirror = persist.NewFollower(m.haMirrorApply, m.haMirrorRestore)
	if cfg.StartPrimary {
		m.ha.mu.Lock()
		m.becomePrimaryLocked(1)
		m.ha.mu.Unlock()
	}
}

// becomePrimaryLocked installs this master as the epoch's holder: a
// fresh HA log whose stream identity is the epoch (so any follower of
// the old log gaps into a resync) and the epoch record appended.
// Members inherited from the previous epoch (the mirror at promotion)
// are re-logged so the fresh log is self-contained — a standby
// replaying it from record 1 rebuilds the full state, not just the
// epoch line. Caller holds ha.mu.
func (m *Master) becomePrimaryLocked(epoch uint64) {
	ha := &m.ha
	ha.primary = true
	ha.epoch = epoch
	ha.holder = ha.cfg.ID
	ha.missed = 0
	ha.log = persist.NewStreamer(epoch, haLogRing, func() ([]byte, uint64, error) {
		// Called from ServeWAL/lease handling; ha.mu is NOT held here
		// (Checkpoint() is only invoked from handleLease, which
		// snapshots under ha.mu itself). Guard anyway for the HTTP
		// /ha checkpoint path.
		ha.mu.Lock()
		defer ha.mu.Unlock()
		return m.haCheckpointLocked()
	})
	inherited := ha.state.Members
	ha.state.Members = nil
	m.haAppendLocked(haRecord{Kind: "epoch", Epoch: epoch, Holder: ha.cfg.ID})
	for _, mem := range inherited {
		m.haAppendLocked(haRecord{Kind: "member", Member: mem})
	}
}

// haCheckpointLocked marshals the checkpoint payload. Caller holds
// ha.mu.
func (m *Master) haCheckpointLocked() ([]byte, uint64, error) {
	payload, err := json.Marshal(haCheckpoint{Next: m.ha.log.Next(), State: m.ha.state})
	return payload, m.ha.log.Next(), err
}

// haAppendLocked publishes one record to the HA log and folds it into
// the state. Caller holds ha.mu and must be primary.
func (m *Master) haAppendLocked(rec haRecord) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return
	}
	m.ha.log.Publish(payload)
	m.ha.state.apply(rec)
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

// haNoteMember logs a registration (primary only; standbys learn it
// over replication).
func (m *Master) haNoteMember(id, url string, gen uint64) {
	if !m.ha.enabled() {
		return
	}
	m.ha.mu.Lock()
	defer m.ha.mu.Unlock()
	if m.ha.primary {
		m.haAppendLocked(haRecord{Kind: "member", Member: HAMember{ID: id, URL: url, Gen: gen}})
	}
}

// haNoteUnmember logs a deregistration.
func (m *Master) haNoteUnmember(id string) {
	if !m.ha.enabled() {
		return
	}
	m.ha.mu.Lock()
	defer m.ha.mu.Unlock()
	if m.ha.primary {
		m.haAppendLocked(haRecord{Kind: "unmember", ID: id})
	}
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

// demoteLocked steps down to standby under a higher epoch. The mirror
// restarts unadopted: the next lease poll gaps and resyncs from the
// new primary's checkpoint. Caller holds ha.mu.
func (m *Master) demoteLocked(epoch uint64, holder string) {
	ha := &m.ha
	ha.primary = false
	ha.epoch = epoch
	ha.holder = holder
	ha.missed = 0
	ha.log = nil
	ha.demoted++
	ha.state = HAState{}
	ha.mirror = persist.NewFollower(m.haMirrorApply, m.haMirrorRestore)
}

// handleLease serves the standby's pull: grant + replication when this
// master is primary, a refusal teaching the caller our epoch view
// otherwise. A request carrying a higher epoch than ours is proof we
// were superseded — demote before answering.
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
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		fleetWriteError(w, http.StatusBadRequest, "decoding lease: %v", err)
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
	resp := LeaseResponse{Epoch: m.ha.epoch, Holder: m.ha.holder}
	if !m.ha.primary {
		fleetWriteJSON(w, http.StatusOK, resp)
		return
	}
	resp.Granted = true
	if batch, ok := m.ha.log.Batch(req.From, 0); ok {
		resp.Batch = &batch
	} else {
		payload, next, err := m.haCheckpointLocked()
		if err != nil {
			fleetWriteError(w, http.StatusInternalServerError, "lease checkpoint: %v", err)
			return
		}
		frame := persist.AppendFrame(nil, payload)
		resp.Checkpoint = &persist.StreamCheckpointBatch{
			StreamID: m.ha.log.ID(), Next: next, Frame: frame,
		}
	}
	fleetWriteJSON(w, http.StatusOK, resp)
}

// LeaseTick advances the lease state machine once. On a primary it is
// a no-op report. On a standby it polls the peer: a grant renews the
// lease and applies the replication it carried; a refusal or failure
// counts a miss, and two consecutive misses promote this master to
// epoch+1 — within two lease intervals of primary silence. Exported so
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
	req := LeaseRequest{ID: m.ha.cfg.ID, Epoch: m.ha.epoch, From: m.ha.mirror.Next()}
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
		if m.ha.missed >= 2 {
			m.ha.recovered = append([]byte(nil), m.ha.state.canon()...)
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
	switch {
	case resp.Checkpoint != nil:
		if err := m.ha.mirror.ApplyCheckpoint(resp.Checkpoint.StreamID, resp.Checkpoint.Next, resp.Checkpoint.Frame); err == nil {
			m.ha.resyncs++
		}
	case resp.Batch != nil:
		if _, err := m.ha.mirror.ApplyBatch(resp.Batch.StreamID, resp.Batch.From, resp.Batch.Frames); err == persist.ErrStreamGap {
			// Identity changed under us (new primary term): the next
			// poll's From restarts from the mirror and the primary will
			// answer with a checkpoint.
			m.ha.mirror = persist.NewFollower(m.haMirrorApply, m.haMirrorRestore)
			m.ha.state = HAState{}
		}
	}
	return m.haStatusLocked()
}

// haMirrorApply / haMirrorRestore are the standby mirror callbacks
// (named so a gapped mirror can be rebuilt). They assume ha.mu is held
// by the caller driving the Follower — LeaseTick always holds it.
func (m *Master) haMirrorApply(payload []byte) error {
	var rec haRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return err
	}
	m.ha.state.apply(rec)
	return nil
}

func (m *Master) haMirrorRestore(payload []byte) error {
	var ck haCheckpoint
	if err := json.Unmarshal(payload, &ck); err != nil {
		return err
	}
	m.ha.state = ck.State
	return nil
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
		Enabled:        true,
		Epoch:          ha.epoch,
		Holder:         ha.holder,
		Missed:         ha.missed,
		Resyncs:        ha.resyncs,
		Promotions:     ha.promoted,
		Demotions:      ha.demoted,
		State:          ha.state.canon(),
		RecoveredState: ha.recovered,
	}
	if ha.primary {
		st.Role = "primary"
		st.StreamNext = ha.log.Next()
	} else {
		st.Role = "standby"
		if ha.mirror != nil {
			st.MirrorNext = ha.mirror.Next()
		}
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
