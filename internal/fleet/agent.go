package fleet

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/server"
	"repro/internal/telemetry"
)

const (
	metricHeartbeatRTT = "landlord_fleet_heartbeat_rtt_seconds"
	helpHeartbeatRTT   = "Agent heartbeat round-trip time to the master"
)

// AgentConfig tunes an Agent.
type AgentConfig struct {
	// ID is the agent's stable identity (its ring membership key). A
	// restarted agent keeps its ID — its keyspace slice — but bumps
	// Gen.
	ID string
	// AdvertiseURL is the base URL the master forwards requests to.
	AdvertiseURL string
	// MasterURLs lists the masters' base URLs: one, or every master in
	// an HA fleet. The agent registers with and heartbeats all of them,
	// which is what keeps the standby's membership, ring, and gossip
	// mirrors warm for promotion.
	MasterURLs []string
	// Gen is the process generation; it must differ across restarts so
	// the master resets its gossip mirror (<= 0 takes 1, which suits
	// tests that never restart).
	Gen uint64
	// Interval is the heartbeat period (<= 0 takes 1s).
	Interval time.Duration
	// HTTPClient talks to the masters and, on a drain, to the
	// successors (nil = http.DefaultClient).
	HTTPClient *http.Client
	// BeatTimeout bounds one register/heartbeat exchange (<= 0 takes
	// 2s).
	BeatTimeout time.Duration
}

func (cfg AgentConfig) withDefaults() AgentConfig {
	if cfg.Gen == 0 {
		cfg.Gen = 1
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.BeatTimeout <= 0 {
		cfg.BeatTimeout = 2 * time.Second
	}
	return cfg
}

// masterLink is the agent's control-plane state with one master:
// registration and the per-master delta-sync cursor (each master
// acknowledges directory revisions independently).
type masterLink struct {
	url        string
	client     *server.Client
	registered bool
	ackRev     uint64
	sendFull   bool
}

// Agent is the worker-side control loop: it registers its server with
// every configured master, heartbeats liveness, and gossips the
// server's image directory as delta-sync frames riding the heartbeat
// body. The data plane is untouched — the master forwards plain
// /v1/request calls to the server's own listener — except for the
// epoch gate (epoch.go) that Handler wraps around it in HA fleets.
type Agent struct {
	cfg   AgentConfig
	srv   *server.Server
	links []*masterLink
	rtt   *telemetry.Histogram
	gate  EpochGate

	mu    sync.Mutex
	dir   *Directory
	beats uint64
}

// NewAgent wires srv into a fleet as cfg describes. Call Start (or
// BeatNow from tests) to begin heartbeating.
func NewAgent(cfg AgentConfig, srv *server.Server) *Agent {
	cfg = cfg.withDefaults()
	a := &Agent{
		cfg: cfg,
		srv: srv,
		rtt: srv.Registry().Histogram(metricHeartbeatRTT, helpHeartbeatRTT,
			telemetry.DefaultLatencyBuckets()),
		dir: NewDirectory(DefaultDirJournal),
	}
	for _, url := range cfg.MasterURLs {
		cl := server.NewClient(url, cfg.HTTPClient)
		// The next beat is the retry, so neither a client-side retry nor
		// a breaker: one that opened while a master was down would fail
		// its first beats back fast for its cool-down.
		cl.MaxRetries = 0
		cl.SetBreaker(nil)
		a.links = append(a.links, &masterLink{url: url, client: cl})
	}
	return a
}

// Registered reports whether the last exchange left the agent
// registered with at least one master.
func (a *Agent) Registered() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, l := range a.links {
		if l.registered {
			return true
		}
	}
	return false
}

// Beats returns how many heartbeats have been acknowledged (summed
// across masters).
func (a *Agent) Beats() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.beats
}

// BeatNow runs one register-if-needed + heartbeat exchange with every
// master. It is the loop body of Start, exported so tests and
// harnesses can drive the control plane deterministically. The error
// is nil when at least one master acknowledged the beat.
func (a *Agent) BeatNow(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, a.cfg.BeatTimeout)
	defer cancel()

	a.mu.Lock()
	defer a.mu.Unlock()

	a.refreshDirLocked()

	var lastErr error
	acked := 0
	for _, l := range a.links {
		if err := a.beatLinkLocked(ctx, l); err != nil {
			lastErr = err
			continue
		}
		acked++
	}
	if acked == 0 {
		return lastErr
	}
	return nil
}

// beatLinkLocked runs one master's register-if-needed + heartbeat.
// Caller holds a.mu.
func (a *Agent) beatLinkLocked(ctx context.Context, l *masterLink) error {
	if !l.registered {
		if err := a.registerLocked(ctx, l); err != nil {
			return err
		}
	}
	err := a.beatLocked(ctx, l)
	if err == errUnknownAgent {
		// The master restarted (or declared us dead) and lost its soft
		// state: re-register and replay the full directory in the same
		// call so recovery does not cost an extra interval.
		l.registered = false
		if err := a.registerLocked(ctx, l); err != nil {
			return err
		}
		err = a.beatLocked(ctx, l)
	}
	return err
}

// errUnknownAgent is beatLocked's signal that the master does not know
// this agent and a re-register is required.
var errUnknownAgent = fmt.Errorf("fleet agent: master does not know us")

// registerLocked announces the agent to one master. On success the
// next heartbeat carries a Full directory frame: the master's mirror
// starts empty.
func (a *Agent) registerLocked(ctx context.Context, l *masterLink) error {
	req := RegisterRequest{ID: a.cfg.ID, URL: a.cfg.AdvertiseURL, Gen: a.cfg.Gen}
	var resp RegisterResponse
	if err := l.client.DoCtx(ctx, http.MethodPost, "/fleet/v1/register", req, &resp); err != nil {
		return fmt.Errorf("fleet agent %s: register: %w", a.cfg.ID, err)
	}
	l.registered = true
	l.sendFull = true
	l.ackRev = 0
	return nil
}

// beatLocked sends one heartbeat with the pending directory delta for
// one master.
func (a *Agent) beatLocked(ctx context.Context, l *masterLink) error {
	var delta DirDelta
	if l.sendFull {
		delta = a.dir.Full()
	} else {
		delta = a.dir.DeltaSince(l.ackRev)
	}
	req := HeartbeatRequest{ID: a.cfg.ID, Gen: a.cfg.Gen, Delta: delta}
	var resp HeartbeatResponse
	start := time.Now()
	if err := l.client.DoCtx(ctx, http.MethodPost, "/fleet/v1/heartbeat", heartbeatBody(&req), &resp); err != nil {
		return fmt.Errorf("fleet agent %s: heartbeat: %w", a.cfg.ID, err)
	}
	a.rtt.Observe(time.Since(start).Seconds())
	if resp.Unknown {
		return errUnknownAgent
	}
	// The heartbeat doubles as lease gossip: adopt a newer epoch from
	// whichever master answered.
	a.gate.Observe(resp.Epoch, resp.Holder)
	a.beats++
	if resp.Resync {
		l.sendFull = true
		return nil
	}
	l.sendFull = false
	l.ackRev = resp.AckRev
	return nil
}

// refreshDirLocked reconciles the gossip directory against the
// server's live image list, including each image's package keys so
// masters can route by superset affinity. Put is idempotent, so an
// unchanged cache advances no revisions and the next delta is empty.
func (a *Agent) refreshDirLocked() {
	imgs := a.srv.ImagesNow()
	pkgs := make(map[uint64][]string, len(imgs))
	for _, snap := range a.srv.SnapshotNow() {
		pkgs[snap.ID] = snap.Packages
	}
	want := make(map[uint64]DirEntry, len(imgs))
	for _, im := range imgs {
		want[im.ID] = DirEntry{ID: im.ID, Version: im.Version, Size: im.Size, Packages: pkgs[im.ID]}
	}
	for _, e := range a.dir.Full().Upserts {
		if _, ok := want[e.ID]; !ok {
			a.dir.Remove(e.ID)
		}
	}
	for _, e := range want {
		a.dir.Put(e)
	}
}

// Start runs the heartbeat loop until the returned stop function is
// called. Stop deregisters best-effort (a crash-stopped agent is
// instead aged out by the master's sweeper).
func (a *Agent) Start() (stop func()) {
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(a.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				a.BeatNow(context.Background()) // next tick retries on error
			}
		}
	}()
	return func() {
		once.Do(func() {
			close(done)
			a.Deregister()
		})
	}
}

// Deregister removes the agent from every master (graceful shutdown).
// Drain (handoff.go) is the warm variant.
func (a *Agent) Deregister() error {
	ctx, cancel := context.WithTimeout(context.Background(), a.cfg.BeatTimeout)
	defer cancel()
	a.mu.Lock()
	for _, l := range a.links {
		l.registered = false
	}
	a.mu.Unlock()
	var lastErr error
	for _, l := range a.links {
		if err := l.client.DoCtx(ctx, http.MethodPost, "/fleet/v1/deregister",
			DeregisterRequest{ID: a.cfg.ID}, nil); err != nil {
			lastErr = err
		}
	}
	return lastErr
}
