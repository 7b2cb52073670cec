package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/config"
	"repro/internal/fleet"
	"repro/internal/persist"
	"repro/internal/pkggraph"
	"repro/internal/server"
	"repro/internal/stats"
)

// node is one durable cache daemon on a loopback listener, assembled
// the way cmd/landlordd's main does: bind first and answer 503 while
// recovering, recover the state directory, then swap in the live mux.
// The daemon's wall-clock tickers (maintenance, stats log) are left
// out: none fires within a run and a timer inside a timed phase would
// only add noise.
type node struct {
	site      config.Site
	url       string
	httpSrv   *http.Server
	srv       *server.Server
	store     *persist.Store
	agent     *fleet.Agent
	stopProbe func()
}

// startNode boots a daemon for site on site.Addr. An agent-mode site
// gets its advertise URL from the bound address.
func startNode(site config.Site, repo *pkggraph.Repo) (*node, error) {
	ln, err := net.Listen("tcp", site.Addr)
	if err != nil {
		return nil, err
	}
	n := &node{url: "http://" + ln.Addr().String()}
	site.Addr = ln.Addr().String() // a restart re-binds the same port
	if site.FleetMode() == config.ModeAgent {
		site.Advertise = n.url
	}
	if err := site.Validate(); err != nil {
		ln.Close()
		return nil, err
	}
	n.site = site

	var handler atomic.Pointer[http.Handler]
	recovering := server.RecoveringHandler()
	handler.Store(&recovering)
	n.httpSrv = &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			(*handler.Load()).ServeHTTP(w, r)
		}),
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	go n.httpSrv.Serve(ln) // returns when crash/close closes the server

	n.store, err = persist.Open(site.StateDir, site.PersistOptions())
	if err != nil {
		n.httpSrv.Close()
		return nil, err
	}
	n.srv, _, err = server.NewPersistent(repo, site.CoreConfig(repo), n.store, site.CheckpointEveryRequests)
	if err != nil {
		n.httpSrv.Close()
		return nil, err
	}
	n.stopProbe = func() {}
	if site.DegradedProbeInterval() > 0 {
		n.stopProbe = n.srv.StartDegradedProbe(site.DegradedProbeInterval())
	}
	mux := http.NewServeMux()
	if site.FleetMode() == config.ModeAgent {
		n.agent = fleet.NewAgent(site.FleetAgentConfig(uint64(time.Now().UnixNano())), n.srv)
		mux.Handle("/", n.agent.Handler())
	} else {
		mux.Handle("/", n.srv.Handler())
	}
	var live http.Handler = mux
	handler.Store(&live)
	return n, nil
}

// crash drops the daemon the way kill -9 would as far as one process
// can: listener and connections closed, no final checkpoint, the store
// neither synced nor closed.
func (n *node) crash() {
	n.stopProbe()
	n.httpSrv.Close()
}

// close shuts the daemon down and seals its WAL.
func (n *node) close() {
	n.crash()
	n.store.Close()
}

// topology is the serving stack one workload runs against.
type topology struct {
	nodes  []*node
	master *fleet.Master
	// masterSrv serves master.Handler() on loopback (fleet only).
	masterSrv *http.Server
	// url is where clients send /v1/request: the master in a fleet,
	// otherwise the daemon.
	url string
}

// nodeSite builds the i-th daemon's configuration under dir.
func (w *workload) nodeSite(repo *pkggraph.Repo, dir string, i int, masterURL string) config.Site {
	site := config.Default()
	site.Addr = "127.0.0.1:0"
	site.StateDir = filepath.Join(dir, fmt.Sprintf("node-%d", i))
	w.site(&site)
	if w.capacityX > 0 {
		site.CapacityGB = w.capacityX * float64(repo.TotalSize()) / float64(stats.GB)
	}
	if w.fleet {
		site.MasterURL = masterURL
		site.AgentID = fmt.Sprintf("agent-%d", i+1)
	}
	return site
}

// bootTopology starts the workload's deployment with its state under
// dir. withMaster=false starts a fleet's agents alone, for the traced
// pass's direct-agent ring.
func bootTopology(w *workload, repo *pkggraph.Repo, dir string, withMaster bool) (*topology, error) {
	t := &topology{}
	agents := 1
	masterURL := "http://127.0.0.1:1" // agents started alone never beat
	if w.fleet {
		agents = 2
		if withMaster {
			ms := masterSite()
			if err := ms.Validate(); err != nil {
				return nil, err
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			t.master = fleet.NewMaster(ms.FleetMasterConfig())
			mux := http.NewServeMux()
			mux.Handle("/", t.master.Handler())
			t.masterSrv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second, IdleTimeout: 2 * time.Minute}
			go t.masterSrv.Serve(ln)
			masterURL = "http://" + ln.Addr().String()
			t.url = masterURL
		}
	}
	for i := 0; i < agents; i++ {
		n, err := startNode(w.nodeSite(repo, dir, i, masterURL), repo)
		if err != nil {
			t.close()
			return nil, err
		}
		t.nodes = append(t.nodes, n)
	}
	if t.url == "" {
		t.url = t.nodes[0].url
	}
	return t, t.beat()
}

// beat runs one register-if-needed + heartbeat exchange per agent, the
// control-plane step the daemon's ticker would take. Runs call it
// between phases, so no heartbeat timer fires inside a timed phase and
// the master's directory mirrors advance at the same stream positions
// every run.
func (t *topology) beat() error {
	if t.master == nil {
		return nil
	}
	for _, n := range t.nodes {
		if err := n.agent.BeatNow(context.Background()); err != nil {
			return err
		}
	}
	return nil
}

// maintain is the between-phases stand-in for the daemon's maintenance
// ticker: heartbeats in a fleet, the eviction balancer on a sharded
// site.
func (t *topology) maintain() error {
	for _, n := range t.nodes {
		if n.site.Shards() > 1 {
			n.srv.RebalanceNow()
		}
	}
	return t.beat()
}

func (t *topology) close() {
	if t.masterSrv != nil {
		t.masterSrv.Close()
	}
	for _, n := range t.nodes {
		n.close()
	}
}

// copyDir copies the regular files of src (one level, which is all a
// state directory holds) into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
