package check

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/pkggraph"
	"repro/internal/resilience"
	"repro/internal/server"
	"repro/internal/spec"
)

// NetChaosConfig parameterizes one network-fault chaos run: the HTTP
// server over a persistent store, a node of a memNet, driven through a
// client whose transport injects seeded connection resets, truncated
// bodies, latency, and blackholes — on top of the usual disk faults and
// crash/recovery cycles.
//
// The contract is the invariants: every request the client saw
// acknowledged is served as a hit after every crash and recovery, a
// shed (429) never moves the request counter, and a degraded server
// refuses what it cannot make durable. The fault schedule is seeded,
// but with faults on the report is not pinned: injected latency,
// blackhole deadlines, backoff and the shedder's refill run on the wall
// clock.
//
// The client writes its own bodies, a seeded half of them in shapes the
// server's scanner must hand to encoding/json (escaped keys, close
// first) or must take itself in spite of their looks (whitespace, close
// omitted), and every answer is audited: no valid spec is refused, the
// echoed package count and request bytes are the spec's, a re-sent
// acknowledged spec is a hit. A seeded quarter of the bodies ask the
// server to close a key list the client closed already: closure is
// idempotent, so the answer must still echo the list as sent, and the
// same list sent unclosed must hit the image just answered — the only
// audit of the server's multi-package closure. With a clean network, no
// disk faults and no crashes the run is a function of the seed: the
// reqscan and closuredrop mutant stages run it twice and require the
// same failure at the same step.
type NetChaosConfig struct {
	Seed  int64
	Steps int // client requests to issue
	Alpha float64
	// Dir roots the persistent store (required).
	Dir string
	// Net is the transport fault plan; zero probabilities mean a clean
	// network.
	Net resilience.ChaosPlan
	// DiskFaults arms a seeded FaultPlan each process life.
	DiskFaults bool
	// CrashEvery is the mean gap, in requests, between crash/recovery
	// cycles (0 disables; a final crash always runs).
	CrashEvery int
}

// NetChaosReport summarizes one run's observed traffic.
type NetChaosReport struct {
	Steps        int
	Acked        int   // client-visible 200s on /v1/request
	Sheds        int   // 429s observed
	Degraded     int   // 503s observed while the store was failing
	CircuitFast  int   // calls failed fast by the client breaker
	NetErrors    int   // calls lost to injected transport faults
	NetInjected  int64 // faults the transport injected
	DiskInjected int   // faults the filesystem injected
	Crashes      int
	Heals        int
}

// NetChaosDefault is the canonical network-chaos configuration for a
// seed: moderate fault rates on every class, disk faults armed, a
// crash roughly every 60 requests.
func NetChaosDefault(seed int64, dir string) NetChaosConfig {
	return NetChaosConfig{
		Seed: seed, Steps: 240, Alpha: 0.6, Dir: dir,
		Net: resilience.ChaosPlan{
			Seed:         seed + 3,
			ResetBeforeP: 0.05,
			ResetAfterP:  0.03,
			BlackholeP:   0.01,
			TruncateP:    0.03,
			LatencyP:     0.15,
			MaxLatency:   2 * time.Millisecond,
		},
		DiskFaults: true,
		CrashEvery: 60,
	}
}

// ackedReq is one acknowledged request: the durability contract says
// its spec must be served as a hit by every later audit.
type ackedReq struct {
	keys  []string
	step  int
	agent string // the fleet agent that acked it (fleet harnesses)
}

// ackLog holds the acknowledged requests in the order first acked, so
// the first loss an audit reports is a function of the schedule; a
// spec acked again updates its entry in place.
type ackLog struct {
	acks []ackedReq
	at   map[string]int // joined keys -> index in acks
}

// add records a, returning the entry it replaced, if any.
func (l *ackLog) add(a ackedReq) (prev ackedReq, again bool) {
	joined := strings.Join(a.keys, ",")
	if i, ok := l.at[joined]; ok {
		prev, l.acks[i] = l.acks[i], a
		return prev, true
	}
	if l.at == nil {
		l.at = make(map[string]int)
	}
	l.at[joined] = len(l.acks)
	l.acks = append(l.acks, a)
	return ackedReq{}, false
}

// RunNetChaos executes the network chaos schedule and audits the
// acked-request invariant after every crash. It returns a nil Failure
// on a clean run.
func RunNetChaos(cfg NetChaosConfig) (NetChaosReport, *Failure) {
	if cfg.Dir == "" {
		return NetChaosReport{}, failf(cfg.Seed, 0, "netchaos: Dir is required")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	// Body shapes draw from their own source: the fault schedule above
	// stays what it was for a seed.
	shapes := rand.New(rand.NewSource(cfg.Seed + 2))
	repo := SmallRepo(cfg.Seed)
	stream := NewStream(repo, cfg.Seed+1)
	mcfg := core.Config{Alpha: cfg.Alpha} // unlimited capacity: acked specs can never be evicted

	var rep NetChaosReport
	var (
		ffs    *FaultFS
		srv    *server.Server
		client *server.Client // through the chaos transport
		audit  *server.Client // clean path for invariant audits
	)
	var acked ackLog

	// dump attaches the server's trace ring to a failure so CI can
	// upload where-the-time-went context alongside the repro seed.
	dump := func(f *Failure) *Failure {
		if f != nil && srv != nil && srv.TraceRing() != nil {
			f.TraceDump = srv.TraceRing().Dump(0)
		}
		return f
	}

	net := newMemNet()
	chaos := resilience.NewChaosTransport(net.transport("client"), cfg.Net)

	// bootLife opens the store and recovers the server under one fault
	// plan. An error here can be an injected boot-time fault, which the
	// caller retries with a clean plan. Admission control is generous
	// enough that steady traffic flows, tight enough that bursts (the
	// audit loop, retry storms) shed.
	bootLife := func(plan FaultPlan) error {
		ffs = NewFaultFS(plan)
		var err error
		srv, _, err = server.Open(repo, server.Config{
			Core:     mcfg,
			StateDir: cfg.Dir,
			Persist: persist.Options{
				FS:           ffs,
				SyncPolicy:   persist.FsyncAlways,
				SegmentBytes: 16 << 10,
			},
			CheckpointEvery: 25,
			Admission:       resilience.ShedderConfig{Rate: 2000, Burst: 64},
		})
		return err
	}

	boot := func(step int) *Failure {
		var plan FaultPlan
		if cfg.DiskFaults {
			plan = simPlan(rng)
		}
		if err := bootLife(plan); err != nil {
			// The armed fault fired during boot (open, replay, or the
			// post-replay checkpoint). A fault-free reboot must succeed:
			// the WAL on disk is still a recoverable history.
			rep.DiskInjected += ffs.Injected()
			if err := bootLife(FaultPlan{}); err != nil {
				return failf(cfg.Seed, step, "netchaos: clean recovery failed: %v", err)
			}
		}
		net.register("server", srv.Handler())

		client = server.NewClient(nodeURL("server"), &http.Client{Transport: chaos})
		client.MaxRetries = 3
		client.RetryBase = time.Millisecond
		client.RetryCap = 4 * time.Millisecond
		client.SetJitter(rng.Float64)
		client.SetBreaker(resilience.NewBreaker(resilience.BreakerConfig{
			Failures: 5, OpenFor: 5 * time.Millisecond,
		}))
		client.SetRetryBudget(resilience.NewRetryBudget(0.5, 20))

		audit = server.NewClient(nodeURL("server"), net.client("audit"))
		audit.RetryBase = time.Millisecond
		audit.RetryCap = 4 * time.Millisecond
		return nil
	}

	// auditAcked re-requests every acknowledged spec through the clean
	// client: each must be served as a hit — the image it was acked
	// against (or a superset) survived the crash.
	auditAcked := func(step int) *Failure {
		if err := audit.Ready(); err != nil {
			return failf(cfg.Seed, step, "netchaos: server not ready after recovery: %v", err)
		}
		for _, a := range acked.acks {
			res, err := requestNoShed(audit, a.keys)
			if err != nil {
				return failf(cfg.Seed, step, "netchaos: acked request from step %d unservable after recovery: %v", a.step, err)
			}
			if res.Op != "hit" {
				return failf(cfg.Seed, step,
					"netchaos: acked request from step %d lost: post-recovery op %q (spec %s)",
					a.step, res.Op, strings.Join(a.keys, ","))
			}
		}
		return nil
	}

	crash := func(step int) *Failure {
		mode := CrashKill
		if rng.Float64() < 0.5 {
			mode = CrashPower
		}
		if err := ffs.Crash(mode, rng.Int63n(64)); err != nil {
			return failf(cfg.Seed, step, "netchaos: crashing: %v", err)
		}
		net.unregister("server")
		rep.Crashes++
		rep.DiskInjected += ffs.Injected()
		if f := boot(step); f != nil {
			return f
		}
		return auditAcked(step)
	}

	if f := boot(0); f != nil {
		return rep, dump(f)
	}
	defer func() { srv.Close() }()

	event := func(mean int) bool {
		return mean > 0 && rng.Float64() < 1/float64(mean)
	}

	for step := 0; step < cfg.Steps; step++ {
		if event(cfg.CrashEvery) {
			if f := crash(step); f != nil {
				return rep, dump(f)
			}
		}
		// Self-healing: when the store has gone sticky (injected disk
		// fault), probe. FaultFS faults are one-shot, so a heal usually
		// lands; a heal that hits another armed fault stays degraded and
		// is retried next time.
		if healed, _ := srv.ProbeDegradedNow(); healed {
			rep.Heals++
			if !srv.Ready() {
				return rep, dump(failf(cfg.Seed, step, "netchaos: healed server not ready"))
			}
		}

		if step%10 == 9 {
			// Exercise the idempotent retry path too.
			if _, err := statsCtx(client); err != nil {
				classify(err, &rep)
			}
			continue
		}

		sp := stream.Next()
		shapeDraw, closed := shapes.Intn(8), shapes.Intn(4) == 0
		if closed {
			sp = spec.WithClosure(repo, sp.IDs())
		}
		keys := keysOf(repo, sp)
		body, shape := encodeRequest(shapeDraw, closed, keys)
		before := srv.StatsNow().Requests
		ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
		var res server.RequestResponse
		err := client.DoCtx(ctx, http.MethodPost, "/v1/request", body, &res)
		cancel()
		rep.Steps++
		if err != nil {
			if isStatus(err, http.StatusTooManyRequests) {
				// Shed invariant: a 429 never moves the request counter.
				if after := srv.StatsNow().Requests; after != before {
					return rep, dump(failf(cfg.Seed, step,
						"netchaos: shed request mutated the cache (requests %d -> %d)", before, after))
				}
			}
			if isStatus(err, http.StatusBadRequest) || isStatus(err, http.StatusRequestEntityTooLarge) {
				// Every spec the stream draws is valid, in any shape.
				return rep, dump(failf(cfg.Seed, step,
					"netchaos: valid spec refused (%s body): %v", shape, err))
			}
			classify(err, &rep)
			continue
		}
		if want := repo.SetSize(sp.IDs()); res.Packages != len(keys) || res.RequestBytes != want {
			return rep, dump(failf(cfg.Seed, step,
				"netchaos: spec of %d packages, %d bytes echoed as %d packages, %d bytes (%s body)",
				len(keys), want, res.Packages, res.RequestBytes, shape))
		}
		if res.Op != "hit" && res.Op != "merge" && res.Op != "insert" {
			return rep, dump(failf(cfg.Seed, step, "netchaos: 200 with op %q (%s body)", res.Op, shape))
		}
		// Capacity is unlimited, so an acknowledged spec stays covered:
		// sent again it can only be a hit.
		if prev, again := acked.add(ackedReq{keys: keys, step: step}); again && res.Op != "hit" {
			return rep, dump(failf(cfg.Seed, step,
				"netchaos: spec acked at step %d answered %q when re-sent, want hit (%s body)", prev.step, res.Op, shape))
		}
		rep.Acked++
		if closed {
			// The server closed a closed list: the same keys unclosed name
			// the same spec, so they hit the image it was answered with.
			again, err := requestNoShed(audit, keys)
			if err != nil {
				return rep, dump(failf(cfg.Seed, step, "netchaos: acked spec unservable when re-sent unclosed: %v", err))
			}
			if again.Op != "hit" || again.ImageID != res.ImageID || again.Packages != res.Packages || again.RequestBytes != res.RequestBytes {
				return rep, dump(failf(cfg.Seed, step,
					"netchaos: %s body answered image %d (%d packages, %d bytes); re-sent unclosed: %s on image %d (%d packages, %d bytes)",
					shape, res.ImageID, res.Packages, res.RequestBytes, again.Op, again.ImageID, again.Packages, again.RequestBytes))
			}
		}
	}

	// Final crash: every run ends with a recovery audit.
	if f := crash(cfg.Steps); f != nil {
		return rep, dump(f)
	}
	rep.NetInjected = chaos.Injected()
	rep.DiskInjected += ffs.Injected()
	return rep, nil
}

// encodeRequest renders a request for keys in the shape drawn (of 8;
// half the draws are the canonical body Client itself sends), asking
// the server to close the list or not, and names the shape.
func encodeRequest(shape int, closed bool, keys []string) ([]byte, string) {
	quoted := make([]string, len(keys))
	for i, k := range keys {
		q, _ := json.Marshal(k) // a string always marshals
		quoted[i] = string(q)
	}
	list := strings.Join(quoted, ",")
	flag, suffix := "false", ""
	if closed {
		flag, suffix = "true", "+close"
		if shape == 3 {
			shape = 4 // an omitted close means false: send the canonical body
		}
	}
	switch shape {
	case 0:
		return []byte(`{"packages":[` + strings.ReplaceAll(list, "/", `\/`) + `],"close":` + flag + `}`), "escaped" + suffix
	case 1:
		return []byte("{ \"packages\" : [\n\t" + strings.Join(quoted, " ,\n\t") + "\n] ,\r\n \"close\" : " + flag + " }\n"), "whitespace" + suffix
	case 2:
		return []byte(`{"close":` + flag + `,"packages":[` + list + `]}`), "close-first" + suffix
	case 3:
		return []byte(`{"packages":[` + list + `]}`), "close-omitted"
	default:
		return []byte(`{"packages":[` + list + `],"close":` + flag + `}`), "canonical" + suffix
	}
}

// requestNoShed submits through the audit client, absorbing admission
// 429s (the shedder's token bucket refills within milliseconds; a
// bounded number of polite retries always lands).
func requestNoShed(c *server.Client, keys []string) (server.RequestResponse, error) {
	var res server.RequestResponse
	var err error
	for i := 0; i < 50; i++ {
		res, err = c.Request(keys, false)
		if !isStatus(err, http.StatusTooManyRequests) {
			return res, err
		}
		time.Sleep(time.Millisecond)
	}
	return res, err
}

// statsCtx fetches /v1/stats under a bounded deadline.
func statsCtx(c *server.Client) (server.StatsResponse, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	var out server.StatsResponse
	err := c.DoCtx(ctx, http.MethodGet, "/v1/stats", nil, &out)
	return out, err
}

// classify buckets a failed call for the report.
func classify(err error, rep *NetChaosReport) {
	switch {
	case server.IsCircuitOpen(err):
		rep.CircuitFast++
	case isStatus(err, http.StatusTooManyRequests):
		rep.Sheds++
	case isStatus(err, http.StatusServiceUnavailable):
		rep.Degraded++
	default:
		rep.NetErrors++
	}
}

// isStatus reports whether err is a *server.StatusError with the given
// code.
func isStatus(err error, status int) bool {
	var se *server.StatusError
	return errors.As(err, &se) && se.Status == status
}

// keysOf renders a spec as the package keys the HTTP API accepts.
func keysOf(repo *pkggraph.Repo, s spec.Spec) []string {
	ids := s.IDs()
	keys := make([]string, 0, len(ids))
	for _, id := range ids {
		keys = append(keys, repo.Package(id).Key())
	}
	return keys
}
