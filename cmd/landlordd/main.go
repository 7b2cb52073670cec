// Command landlordd runs LANDLORD as a site-wide HTTP service — the
// batch-system-plugin deployment of Section V. Submitters POST job
// specifications to /v1/request and receive the image to run in;
// /v1/stats, /v1/images, /v1/prune, /v1/snapshot, /v1/events and
// /metrics expose operations.
//
//	landlordd -config site.json &
//	landlordd -addr :8080 -alpha 0.8 -capacity-gb 2048 &
//	curl -s localhost:8080/v1/stats
//	curl -s -X POST localhost:8080/v1/request \
//	     -d '{"packages":["app-0001/1.6.0/x86_64-centos7-gcc8-opt"],"close":true}'
//
// Flags override the config file. With -config, the site's prune
// schedule (prune_every_requests expressed as a time interval here) is
// run by a background maintenance loop. -pprof additionally mounts the
// runtime profiler under /debug/pprof/. The daemon drains in-flight
// requests on SIGINT/SIGTERM and logs a final cache snapshot before
// exiting.
//
// With -state-dir (or state_dir in the config), cache state is durable
// (internal/persist): every mutation is write-ahead logged, the state
// is checkpointed on shutdown and on POST /v1/checkpoint, and startup
// recovers the previous state — serving 503 until recovery completes —
// so a crashed or restarted daemon does not re-pay the image build I/O
// its cache already absorbed.
//
// Overload and failure protection (internal/resilience) is config
// driven: shed_rate/shed_burst/shed_queue_depth arm token-bucket +
// queue-depth admission control (429 + Retry-After before the cache
// lock is touched), and degraded_probe_interval_ms schedules the
// self-heal probe that brings a daemon whose WAL has gone sticky back
// from read-only degraded mode. /v1/healthz is pure liveness (always
// 200); /v1/readyz reports readiness and 503s while degraded or
// recovering.
//
// -mode selects the fleet deployment role (internal/fleet):
// "standalone" (default) serves the local cache directly; "master"
// runs only the routing control plane, forwarding /v1/request to
// registered agents by the rendezvous hash of the spec signature; "agent"
// serves the local cache and registers with -master-url, advertising
// -advertise and heartbeating its image directory:
//
//	landlordd -mode master -addr :8080 -quorum 2 &
//	landlordd -mode agent -addr :8081 -master-url http://localhost:8080 \
//	          -advertise http://localhost:8081 &
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/config"
	"repro/internal/fleet"
	"repro/internal/pkggraph"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// maintenanceInterval converts a request-count prune schedule into a
// wall-clock one: one pass per minute per thousand scheduled requests,
// clamped to [1 minute, 1 hour] so misconfigured sites neither spin
// nor starve.
func maintenanceInterval(pruneEveryRequests int) time.Duration {
	d := time.Duration(pruneEveryRequests) * time.Minute / 1000
	if d < time.Minute {
		return time.Minute
	}
	if d > time.Hour {
		return time.Hour
	}
	return d
}

// statsLogLine renders the periodic (and final) cache-utilization
// self-log entry.
func statsLogLine(st server.StatsResponse) string {
	return fmt.Sprintf("requests=%d hits=%d merges=%d inserts=%d deletes=%d splits=%d images=%d cached=%s unique=%s written=%s cache_eff=%.3f container_eff=%.3f",
		st.Requests, st.Hits, st.Merges, st.Inserts, st.Deletes, st.Splits,
		st.Images, stats.FormatBytes(st.TotalData), stats.FormatBytes(st.UniqueData),
		stats.FormatBytes(st.BytesWritten), st.CacheEfficiency, st.ContainerEfficiency)
}

// mountPprof attaches the runtime profiler's handlers to mux. They are
// mounted explicitly (not via the net/http/pprof side-effect import)
// so the service mux — not http.DefaultServeMux — serves them, and
// only when -pprof is set.
func mountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// siteFlag is a command-line override of one config.Site field: set
// parses the flag's value into the field.
type siteFlag struct {
	name, usage string
	set         func(s *config.Site, v string) error
}

// siteFlags are the flags that override the config file, one per Site
// field. A flag left off the command line leaves the file's value.
var siteFlags = []siteFlag{
	{"addr", "listen address", func(s *config.Site, v string) error { s.Addr = v; return nil }},
	{"alpha", "merge threshold", func(s *config.Site, v string) (err error) {
		s.Alpha = new(float64)
		*s.Alpha, err = strconv.ParseFloat(v, 64)
		return err
	}},
	{"capacity-gb", "cache capacity in GB, 0 = unlimited", func(s *config.Site, v string) (err error) {
		s.CapacityGB, err = strconv.ParseFloat(v, 64)
		return err
	}},
	{"repo-seed", "seed for the synthetic repository", func(s *config.Site, v string) (err error) {
		s.RepoSeed, err = strconv.ParseInt(v, 10, 64)
		return err
	}},
	{"repo-file", "load the repository from this JSONL file", func(s *config.Site, v string) error { s.RepoFile = v; return nil }},
	{"state-dir", "durable state directory: WAL + checkpoints", func(s *config.Site, v string) error { s.StateDir = v; return nil }},
	{"mode", "deployment mode: standalone, master, or agent", func(s *config.Site, v string) error { s.Mode = v; return nil }},
	{"master-url", "master base URL for agent mode", func(s *config.Site, v string) error { s.MasterURL = v; return nil }},
	{"master-urls", "comma-separated master base URLs for an HA fleet, agent mode", func(s *config.Site, v string) error {
		s.MasterURLs = strings.Split(v, ",")
		return nil
	}},
	{"advertise", "URL the master reaches this agent at, agent mode", func(s *config.Site, v string) error { s.Advertise = v; return nil }},
	{"agent-id", "fleet name for this agent, agent mode", func(s *config.Site, v string) error { s.AgentID = v; return nil }},
	{"quorum", "agents required before the master reports ready", func(s *config.Site, v string) (err error) {
		s.FleetQuorum, err = strconv.Atoi(v)
		return err
	}},
	{"heartbeat-ms", "agent heartbeat cadence in ms", func(s *config.Site, v string) (err error) {
		s.HeartbeatIntervalMS, err = strconv.Atoi(v)
		return err
	}},
	{"master-id", "lease identity enabling master high availability", func(s *config.Site, v string) error { s.MasterID = v; return nil }},
	{"standby-of", "primary base URL this master is a warm standby of", func(s *config.Site, v string) error { s.StandbyOf = v; return nil }},
	{"peer-url", "standby base URL this primary renews its lease with", func(s *config.Site, v string) error { s.PeerURL = v; return nil }},
	{"lease-ms", "lease renewal cadence in ms for HA masters", func(s *config.Site, v string) (err error) {
		s.LeaseIntervalMS, err = strconv.Atoi(v)
		return err
	}},
}

// runFlags are the flags that shape the process rather than the site.
type runFlags struct {
	pprof      bool
	statsEvery time.Duration
	drain      time.Duration
}

// parseArgs reads the command line: the site file named by -config (or
// the defaults), with every site flag given applied over it in command
// line order. The caller validates the result.
func parseArgs(args []string) (config.Site, runFlags, error) {
	fs := flag.NewFlagSet("landlordd", flag.ExitOnError)
	configPath := fs.String("config", "", "site configuration file (JSON; flags override)")
	var rf runFlags
	fs.BoolVar(&rf.pprof, "pprof", false, "serve runtime profiles under /debug/pprof/")
	fs.DurationVar(&rf.statsEvery, "stats-interval", 5*time.Minute, "cache-utilization self-log interval (0 disables)")
	fs.DurationVar(&rf.drain, "drain", 10*time.Second, "graceful-shutdown drain window")
	// A value is parsed when the flag is read, so a bad one is refused
	// with the usage text; a value that parsed there parses again below.
	var given []func(*config.Site)
	for _, f := range siteFlags {
		fs.Func(f.name, f.usage+" (overrides config)", func(v string) error {
			if err := f.set(&config.Site{}, v); err != nil {
				return err
			}
			given = append(given, func(s *config.Site) { f.set(s, v) })
			return nil
		})
	}
	if err := fs.Parse(args); err != nil {
		return config.Site{}, rf, err
	}
	site := config.Default()
	if *configPath != "" {
		loaded, err := config.Load(*configPath)
		if err != nil {
			return config.Site{}, rf, err
		}
		site = loaded
	}
	for _, set := range given {
		set(&site)
	}
	return site, rf, nil
}

func main() {
	site, rf, err := parseArgs(os.Args[1:])
	if err == nil {
		err = site.Validate()
	}
	if err == nil {
		err = run(site, rf)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "landlordd: %v\n", err)
		os.Exit(1)
	}
}

// node is what one daemon role serves once it has booted.
type node struct {
	handler http.Handler
	// start runs once the handler is live; ctx ends at the shutdown
	// signal.
	start func(ctx context.Context)
	// leave runs at shutdown before the listener drains, seal after.
	leave, seal func()
}

// run is the daemon's one skeleton for every mode: bind and answer 503
// while the role boots (a restarting cache replays its WAL meanwhile),
// serve the role's handler until SIGINT/SIGTERM, then leave, drain the
// listener and seal.
func run(site config.Site, rf runFlags) error {
	// A master has no repository, no cache and no persistence — just the
	// routing control plane.
	boot := func(site config.Site) (*node, error) { return bootMaster(site), nil }
	if site.FleetMode() != config.ModeMaster {
		repo, err := site.OpenRepo()
		if err != nil {
			return err
		}
		boot = func(site config.Site) (*node, error) { return bootCache(site, repo, rf) }
	}

	var handler atomic.Pointer[http.Handler]
	recovering := server.RecoveringHandler()
	handler.Store(&recovering)
	httpSrv := &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			(*handler.Load()).ServeHTTP(w, r)
		}),
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ln, err := net.Listen("tcp", site.Addr)
	if err != nil {
		return err
	}
	log.Printf("landlordd: listening on %s", ln.Addr())
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	site.Addr = ln.Addr().String()
	n, err := boot(site)
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.Handle("/", n.handler)
	if rf.pprof {
		mountPprof(mux)
	}
	var live http.Handler = mux
	handler.Store(&live)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	n.start(ctx)
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second signal kills immediately
	log.Printf("landlordd: shutdown signal received, draining (up to %v)", rf.drain)
	n.leave()
	drainCtx, cancel := context.WithTimeout(context.Background(), rf.drain)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		log.Printf("landlordd: drain incomplete: %v", err)
	}
	n.seal()
	return nil
}

// every runs fn on a ticker of period d until ctx ends.
func every(ctx context.Context, d time.Duration, fn func()) {
	go func() {
		ticker := time.NewTicker(d)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				fn()
			}
		}
	}()
}

// bootCache assembles the cache node (server.Open: recovery, max
// inflight, admission, heal probe) and, in agent mode, the fleet agent
// riding alongside it.
func bootCache(site config.Site, repo *pkggraph.Repo, rf runFlags) (*node, error) {
	srv, rep, err := server.Open(repo, site.ServerConfig(repo))
	if err != nil {
		return nil, err
	}
	if rep != nil {
		for _, warn := range rep.Warnings {
			log.Printf("landlordd: recovery warning: %s", warn)
		}
		log.Printf("landlordd: recovered state from %s: %s", site.StateDir, rep)
	}
	if site.MaxInflight > 0 {
		log.Printf("landlordd: bounding concurrent cache requests at %d (max_inflight)", site.MaxInflight)
	}
	if site.ShedRate > 0 || site.ShedQueueDepth > 0 {
		log.Printf("landlordd: admission control on (shed_rate=%g shed_burst=%d shed_queue_depth=%d)",
			site.ShedRate, site.ShedBurst, site.ShedQueueDepth)
	}
	if site.StateDir != "" && site.DegradedProbeInterval() > 0 {
		log.Printf("landlordd: degraded-mode heal probe every %v", site.DegradedProbeInterval())
	}

	// Agent mode: the cache daemon is unchanged; the fleet agent rides
	// alongside, registering with every master once the handler is live
	// and heartbeating the image directory from then on. The agent's
	// handler wraps the server's with the epoch gate, so forwards from a
	// superseded master are refused instead of applied.
	n := &node{handler: srv.Handler(), leave: func() {}}
	var fleetAgent *fleet.Agent
	stopFleet := func() {}
	if site.FleetMode() == config.ModeAgent {
		fleetAgent = newFleetAgent(site, srv)
		n.handler = fleetAgent.Handler()
		// Leave the fleet first, warm: the handoff plan pushes this
		// agent's resident specs to its rendezvous successors, then
		// deregistration moves the keyspace to the survivors — all before
		// the listener closes, so no master forwards into a draining
		// daemon and the departing cache's heat survives it.
		n.leave = func() {
			drainFleetAgent(fleetAgent, rf.drain)
			stopFleet()
		}
	}

	n.start = func(ctx context.Context) {
		if fleetAgent != nil {
			stopFleet = startFleetAgent(site, fleetAgent)
		}
		// One maintenance loop. Runtime metrics (goroutines, heap, GC
		// pauses, uptime) are polled here rather than at scrape time, so
		// a slow collector can never stall /metrics; the prune pass rides
		// the same tick and is config-gated. Eviction is not maintenance:
		// every merge or insert evicts on its own request path until the
		// cache fits its capacity.
		interval := maintenanceInterval(site.PruneEveryRequests)
		if site.PruneEveryRequests > 0 {
			log.Printf("landlordd: maintenance pass every %v (prune_every_requests=%d)",
				interval, site.PruneEveryRequests)
		}
		runtimeMetrics := telemetry.NewRuntimeCollector(srv.Registry())
		every(ctx, interval, func() {
			runtimeMetrics.Poll()
			if site.PruneEveryRequests > 0 {
				if splits := srv.PruneNow(site.PruneUtilization, site.PruneMinServed); splits > 0 {
					log.Printf("landlordd: maintenance pass split %d image(s)", splits)
				}
			}
		})
		if rf.statsEvery > 0 {
			every(ctx, rf.statsEvery, func() {
				log.Printf("landlordd: cache %s", statsLogLine(srv.StatsNow()))
			})
		}
		log.Printf("landlordd: serving %d-package repository (%s) on %s (alpha=%.2f, pprof=%v)",
			repo.Len(), stats.FormatBytes(repo.TotalSize()), site.Addr, *site.Alpha, rf.pprof)
	}

	// Seal the durable state: Close checkpoints the drained cache, so
	// the next start recovers instantly from a compact log.
	n.seal = func() {
		info, err := srv.Close()
		switch {
		case err != nil:
			log.Printf("landlordd: %v", err)
		case site.StateDir != "":
			log.Printf("landlordd: checkpointed %d image(s) as seq %d (%s)",
				info.Images, info.Seq, stats.FormatBytes(info.Bytes))
		}
		log.Printf("landlordd: final %s", statsLogLine(srv.StatsNow()))
	}
	return n, nil
}
