package server

import (
	"context"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/resilience"
	"repro/internal/telemetry"
)

// DeadlineHeader carries the client's absolute request deadline as
// unix nanoseconds. The server turns it into a context deadline, so
// work whose client has already given up aborts before touching the
// cache instead of burning the write lock on an answer nobody reads.
const DeadlineHeader = "X-Landlord-Deadline"

// DegradedHeader marks responses served in degraded (read-only) mode,
// so clients and tests can tell a degraded hit from a healthy one.
const DegradedHeader = "X-Landlord-Degraded"

// EpochHeader carries the fleet lease epoch. A master stamps it on
// forwarded requests and on its own responses; agents use it to reject
// forwards from a demoted primary, and clients use it to tell which
// master term answered during a failover window.
const EpochHeader = "X-Landlord-Epoch"

// MasterHeader names the lease holder (master ID) that stamped
// EpochHeader, so an agent can detect two masters claiming the same
// epoch — the dual-primary signal the HA harness audits.
const MasterHeader = "X-Landlord-Master"

// ServeState is the server's overload/failure position, exported by
// the landlord_serve_state gauge and the state:* events in /v1/events.
type ServeState int32

const (
	// StateHealthy: full service.
	StateHealthy ServeState = iota
	// StateShedding: healthy durability, but admission control is
	// actively refusing load (429s are being served).
	StateShedding
	// StateDegraded: the WAL is failing; the server is read-only —
	// superset hits on untainted images and stats still work, anything
	// needing a durable mutation is refused with 503.
	StateDegraded
	// StateRecovering: a heal probe is in flight; still read-only.
	StateRecovering
)

// String renders the state for events and logs.
func (st ServeState) String() string {
	switch st {
	case StateShedding:
		return "shedding"
	case StateDegraded:
		return "degraded"
	case StateRecovering:
		return "recovering"
	default:
		return "healthy"
	}
}

// health is the server's serve-state machine. Transitions are driven
// by admission decisions (healthy↔shedding), WAL failures
// (→degraded), the probe loop (degraded→recovering→healthy) and any
// other checkpoint that heals the store (→healthy).
// Degraded-or-worse always wins over shedding: a shed decision never
// masks a durability failure.
type health struct {
	mu          sync.Mutex
	state       ServeState
	transitions int64
}

func (h *health) get() ServeState {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.state
}

// set moves to next and reports whether that was a change.
func (h *health) set(next ServeState) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.state == next {
		return false
	}
	h.state = next
	h.transitions++
	return true
}

// setIf moves from -> to atomically; other states are left alone.
func (h *health) setIf(from, to ServeState) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.state != from {
		return false
	}
	h.state = to
	h.transitions++
	return true
}

func (h *health) count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.transitions
}

// setAdmission installs server-side admission control: requests are
// refused with 429 + Retry-After before they queue on the inflight
// semaphore, so a saturated server stays responsive instead of
// stacking goroutines until max_inflight back-pressure turns into
// client timeouts.
func (s *Server) setAdmission(cfg resilience.ShedderConfig) {
	s.shedder = resilience.NewShedder(cfg)
	s.reg.GaugeFunc("landlord_shed_requests_total",
		"Requests refused by admission control, by reason", func() float64 {
			_, rate, queue := s.shedder.Counters()
			return float64(rate + queue)
		})
	s.reg.GaugeFunc("landlord_admitted_inflight",
		"Admitted requests not yet finished (bounded by shed_queue_depth)",
		func() float64 { return float64(s.shedder.Inflight()) })
}

// registerResilienceMetrics exposes the serve-state machine.
func (s *Server) registerResilienceMetrics() {
	s.reg.GaugeFunc("landlord_serve_state",
		"Serve state: 0 healthy, 1 shedding, 2 degraded, 3 recovering",
		func() float64 { return float64(s.health.get()) })
	s.reg.GaugeFunc("landlord_serve_state_transitions_total",
		"Serve-state machine transitions",
		func() float64 { return float64(s.health.count()) })
}

// ServeStateNow returns the current serve state (for the daemon's logs
// and tests).
func (s *Server) ServeStateNow() ServeState { return s.health.get() }

// transition moves the state machine and emits a synthetic state:*
// event into the /v1/events ring when the state actually changed.
func (s *Server) transition(next ServeState) {
	if s.health.set(next) {
		s.noteStateEvent(next)
	}
}

// noteStateEvent pushes a synthetic "state:<name>" event into the
// /v1/events ring, so operators replaying an incident see overload
// transitions inline with the request stream they shaped.
func (s *Server) noteStateEvent(next ServeState) {
	s.ring.Add(telemetry.Event{Op: "state:" + next.String()})
}

// noteShed records a shed decision: healthy flips to shedding (but a
// degraded server stays degraded — durability loss dominates).
func (s *Server) noteShed() {
	if s.health.setIf(StateHealthy, StateShedding) {
		s.noteStateEvent(StateShedding)
	}
}

// noteAdmit records a successful admission: shedding relaxes back to
// healthy.
func (s *Server) noteAdmit() {
	if s.health.setIf(StateShedding, StateHealthy) {
		s.noteStateEvent(StateHealthy)
	}
}

// noteDegraded flips to degraded from any state.
func (s *Server) noteDegraded() {
	st := s.health.get()
	if st != StateDegraded && st != StateRecovering {
		s.transition(StateDegraded)
	}
}

// Ready reports whether the server is serving at full capability:
// false while degraded or healing. Shedding still counts as ready —
// the server is refusing load by policy, not failing.
func (s *Server) Ready() bool {
	st := s.health.get()
	return st == StateHealthy || st == StateShedding
}

// handleReadyz is GET /v1/readyz: readiness. 503 while the server is
// degraded or mid-heal, 200 otherwise. Liveness (/v1/healthz) stays
// 200 through both — the process is alive and should not be restarted,
// it just should not receive fresh traffic.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	st := s.health.get()
	if s.Ready() {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready", "state": st.String()})
		return
	}
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "not ready", "state": st.String()})
}

// requestContext derives the handler context from the propagated
// deadline header, if any. Malformed values are ignored — a client bug
// should not turn into a dropped request.
func requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	if v := r.Header.Get(DeadlineHeader); v != "" {
		if ns, err := strconv.ParseInt(v, 10, 64); err == nil && ns > 0 {
			return context.WithDeadline(r.Context(), time.Unix(0, ns))
		}
	}
	return r.Context(), func() {}
}

// StartDegradedProbe runs the self-healing loop: every interval, if
// the store has a sticky error, checkpoint under the cache's write
// lock (ProbeDegradedNow). Returns a stop function (idempotent).
// interval <= 0 disables probing.
func (s *Server) StartDegradedProbe(interval time.Duration) (stop func()) {
	if s.store == nil || interval <= 0 {
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
				s.ProbeDegradedNow()
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// ProbeDegradedNow runs one heal probe if the store is failing: a
// checkpoint, which covers everything in memory and so heals the store
// when it can be written. It reports whether the probe healed a
// failing store, and the probe's error (nil = healthy). Safe to call
// at any time; a healthy store is a no-op.
func (s *Server) ProbeDegradedNow() (healed bool, err error) {
	if s.store == nil || s.store.Err() == nil {
		return false, nil
	}
	s.transition(StateRecovering)
	s.cmgr.WithExclusive(func(m *core.Manager) {
		_, err = s.checkpoint(m)
	})
	if err != nil {
		s.transition(StateDegraded)
		return false, err
	}
	return true, nil
}
