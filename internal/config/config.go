// Package config loads the site configuration file used by the
// landlordd daemon: cache policy (α, capacity, conflict handling),
// repository source, and maintenance schedule. A site operator tunes
// exactly the knobs the paper ends on — "LANDLORD provides a good deal
// of flexibility to match the properties of a given execution site and
// workload(s)" — without recompiling.
package config

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/persist"
	"repro/internal/pkggraph"
	"repro/internal/resilience"
	"repro/internal/server"
	"repro/internal/spec"
	"repro/internal/stats"
)

// Daemon deployment modes (the "mode" config field / -mode flag).
const (
	ModeStandalone = "standalone" // single daemon serving its own cache (default)
	ModeMaster     = "master"     // fleet control plane: routes to agents, no local cache
	ModeAgent      = "agent"      // serves its cache and registers with a master
)

// Site is the daemon configuration.
type Site struct {
	// Addr is the listen address (default ":8080").
	Addr string `json:"addr"`

	// Alpha is the merge threshold (default 0.8, the paper's
	// recommended starting point).
	Alpha *float64 `json:"alpha,omitempty"`
	// CapacityGB caps the cache in gigabytes (0 = unlimited).
	CapacityGB float64 `json:"capacity_gb"`
	// MinHash enables the candidate prefilter (default true).
	MinHash *bool `json:"minhash,omitempty"`
	// CacheShards partitions the cache into this many independently
	// locked shards (default 1). Requests route to a shard by the hash
	// of their package keys; the capacity splits across shards and the
	// eviction balancer reshapes the split at maintenance points. Keep
	// it stable across restarts of a durable site: reloading a cache
	// under a different shard count re-homes only newly inserted
	// images, costing hit locality on the old ones.
	CacheShards *int `json:"cache_shards,omitempty"`

	// RepoFile loads the repository from a JSONL file; when empty, the
	// default synthetic repository is generated from RepoSeed.
	RepoFile string `json:"repo_file"`
	RepoSeed int64  `json:"repo_seed"`

	// SingleVersionFamilies lists package families that must not
	// appear in two versions within one image (spec.SingleVersionPolicy).
	// Empty means no conflict checking (the CVMFS case).
	SingleVersionFamilies []string `json:"single_version_families"`

	// MaxInflight bounds how many cache requests the server processes
	// concurrently; excess requests queue. 0 (the default) leaves
	// concurrency bounded only by the HTTP server's connection
	// handling.
	MaxInflight int `json:"max_inflight"`

	// PruneEveryRequests runs a split pass every N requests
	// (0 disables).
	PruneEveryRequests int `json:"prune_every_requests"`
	// PruneUtilization and PruneMinServed parameterize the pass.
	PruneUtilization float64 `json:"prune_utilization"`
	PruneMinServed   int     `json:"prune_min_served"`

	// StateDir enables durable cache state: a write-ahead log plus
	// checkpoints under this directory, recovered at startup. Empty
	// disables persistence (the cache restarts cold). A master has no
	// cache and writes nothing, so master mode refuses it.
	StateDir string `json:"state_dir"`
	// Fsync is the WAL flush policy: "always", "interval" (default),
	// or "never". See internal/persist for the trade-offs.
	Fsync string `json:"fsync"`
	// FsyncIntervalMS bounds staleness under the "interval" policy
	// (default 100ms).
	FsyncIntervalMS int `json:"fsync_interval_ms"`
	// CheckpointEveryRequests compacts the WAL into a checkpoint every
	// N requests. 0 (the default) compacts by size instead: once the
	// WAL tail (bytes written since the last checkpoint, plus the tail a
	// restart replayed) reaches one segment (WALSegmentMB) or the last
	// checkpoint's size, whichever is larger. Shutdown and POST
	// /v1/checkpoint checkpoint in both cases.
	CheckpointEveryRequests int `json:"checkpoint_every_requests"`
	// WALSegmentMB rotates WAL segments at this size (default 4 MB).
	WALSegmentMB int `json:"wal_segment_mb"`

	// Admission control (internal/resilience): requests beyond the
	// token-bucket rate or the queue depth are refused with 429 +
	// Retry-After before they consume a connection or the cache lock.
	// ShedRate is admitted requests/second (0 disables rate shedding);
	// ShedBurst the bucket burst (default: the rate); ShedQueueDepth
	// the maximum concurrently admitted requests (0 = unbounded).
	ShedRate       float64 `json:"shed_rate"`
	ShedBurst      int     `json:"shed_burst"`
	ShedQueueDepth int     `json:"shed_queue_depth"`

	// DegradedProbeIntervalMS is how often a daemon whose WAL has gone
	// sticky attempts a heal probe (fresh segment + full checkpoint).
	// Only meaningful with StateDir; 0 disables self-healing (default
	// 1000ms).
	DegradedProbeIntervalMS int `json:"degraded_probe_interval_ms"`

	// The master's per-agent forward breakers (master mode): consecutive
	// failures to open, cool-down, half-open probe count. Zero values
	// take the internal/resilience defaults.
	BreakerFailures int `json:"breaker_failures"`
	BreakerOpenMS   int `json:"breaker_open_ms"`
	BreakerProbes   int `json:"breaker_probes"`

	// Fleet deployment (internal/fleet). Mode selects the daemon role:
	// "" or "standalone" serves the local cache directly; "master"
	// runs the routing control plane only (no repository, no cache) and
	// forwards /v1/request to registered agents by consistent-hashed
	// spec signature; "agent" serves the local cache and additionally
	// registers with MasterURL, heartbeating its image directory.
	Mode string `json:"mode"`
	// MasterURL is the master's base URL (agent mode only).
	MasterURL string `json:"master_url"`
	// Advertise is the URL the master should reach this agent at
	// (agent mode only; required, since the listen address is usually
	// a wildcard the master cannot dial).
	Advertise string `json:"advertise"`
	// AgentID names this agent in the fleet (default: Advertise).
	AgentID string `json:"agent_id"`
	// FleetQuorum is how many healthy agents the master's /v1/readyz
	// requires before reporting ready (default 1).
	FleetQuorum int `json:"fleet_quorum"`
	// FleetVNodes is the consistent-hash ring's virtual nodes per
	// agent (0 = the fleet default).
	FleetVNodes int `json:"fleet_vnodes"`
	// HeartbeatIntervalMS is the agent's register/heartbeat cadence
	// (default 1000ms). The master's suspect/dead timers scale from
	// it: suspect after 3 missed beats, dead after 10.
	HeartbeatIntervalMS int `json:"heartbeat_interval_ms"`
	// ForwardTimeoutMS caps each forwarded request attempt at the
	// master (0 = the fleet default).
	ForwardTimeoutMS int `json:"forward_timeout_ms"`

	// MasterURLs lists every master's base URL for an HA fleet (agent
	// mode): the agent registers with and heartbeats all of them, so
	// whichever master holds the lease always has a live membership
	// view, and the agent learns a failover from whichever master still
	// reaches it. Empty means MasterURL alone.
	MasterURLs []string `json:"master_urls"`

	// High availability (master mode; internal/fleet ha.go). MasterID
	// names this master in the lease protocol and enables HA when set:
	// forwards are stamped X-Landlord-Epoch/-Master, and the master
	// serves /fleet/v1/lease. StandbyOf makes this master a warm
	// standby of the given primary's base URL — it polls the primary's
	// lease for its epoch and holder, routes from the agents' own beats,
	// and promotes after two silent lease intervals. PeerURL points a
	// primary at its standby so a deposed primary demotes into polling
	// it; StandbyOf and PeerURL are mutually exclusive. Nothing is kept
	// on disk: a restarted master learns the current epoch from its
	// peer and the agents.
	MasterID        string `json:"master_id"`
	StandbyOf       string `json:"standby_of"`
	PeerURL         string `json:"peer_url"`
	LeaseIntervalMS int    `json:"lease_interval_ms"`
}

// Default returns the configuration the daemon uses with no file.
func Default() Site {
	alpha := 0.8
	minhash := true
	return Site{
		Addr:                    ":8080",
		Alpha:                   &alpha,
		RepoSeed:                1,
		MinHash:                 &minhash,
		DegradedProbeIntervalMS: 1000,
	}
}

// Load reads and validates a configuration file. Missing optional
// fields take their defaults.
func Load(path string) (Site, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Site{}, err
	}
	site, err := Parse(data)
	if err != nil {
		return Site{}, fmt.Errorf("config: %s: %w", path, err)
	}
	return site, nil
}

// Parse decodes and validates a configuration from raw bytes. Missing
// optional fields take their defaults.
func Parse(data []byte) (Site, error) {
	site := Default()
	if err := json.Unmarshal(data, &site); err != nil {
		return Site{}, fmt.Errorf("parsing: %w", err)
	}
	if err := site.Validate(); err != nil {
		return Site{}, err
	}
	return site, nil
}

// Validate checks field ranges.
func (s Site) Validate() error {
	if s.Addr == "" {
		return fmt.Errorf("addr must not be empty")
	}
	if s.Alpha != nil && (*s.Alpha < 0 || *s.Alpha > 1) {
		return fmt.Errorf("alpha %v out of range [0,1]", *s.Alpha)
	}
	if s.CapacityGB < 0 {
		return fmt.Errorf("capacity_gb must be non-negative")
	}
	if s.CacheShards != nil && *s.CacheShards < 1 {
		return fmt.Errorf("cache_shards must be at least 1 (got %d)", *s.CacheShards)
	}
	if s.MaxInflight < 0 {
		return fmt.Errorf("max_inflight must be non-negative")
	}
	if s.PruneEveryRequests < 0 {
		return fmt.Errorf("prune_every_requests must be non-negative")
	}
	if s.PruneEveryRequests > 0 {
		if s.PruneUtilization <= 0 || s.PruneUtilization >= 1 {
			return fmt.Errorf("prune_utilization %v out of range (0,1)", s.PruneUtilization)
		}
		if s.PruneMinServed < 1 {
			return fmt.Errorf("prune_min_served must be >= 1 when pruning")
		}
	}
	if _, err := persist.ParseFsyncPolicy(s.Fsync); err != nil {
		return fmt.Errorf("fsync: %w", err)
	}
	if s.FsyncIntervalMS < 0 {
		return fmt.Errorf("fsync_interval_ms must be non-negative")
	}
	if s.CheckpointEveryRequests < 0 {
		return fmt.Errorf("checkpoint_every_requests must be non-negative")
	}
	if s.WALSegmentMB < 0 {
		return fmt.Errorf("wal_segment_mb must be non-negative")
	}
	if s.ShedRate < 0 {
		return fmt.Errorf("shed_rate must be non-negative")
	}
	if s.ShedBurst < 0 {
		return fmt.Errorf("shed_burst must be non-negative")
	}
	if s.ShedQueueDepth < 0 {
		return fmt.Errorf("shed_queue_depth must be non-negative")
	}
	if s.ShedBurst > 0 && s.ShedRate <= 0 {
		return fmt.Errorf("shed_burst without shed_rate has no effect; set shed_rate")
	}
	if s.DegradedProbeIntervalMS < 0 {
		return fmt.Errorf("degraded_probe_interval_ms must be non-negative")
	}
	if s.BreakerFailures < 0 || s.BreakerOpenMS < 0 || s.BreakerProbes < 0 {
		return fmt.Errorf("breaker_* values must be non-negative")
	}
	switch s.FleetMode() {
	case ModeStandalone:
		if s.MasterURL != "" {
			return fmt.Errorf("master_url requires mode %q", ModeAgent)
		}
	case ModeMaster:
		if s.MasterURL != "" {
			return fmt.Errorf("master_url requires mode %q", ModeAgent)
		}
		if s.StateDir != "" {
			return fmt.Errorf("state_dir has no effect in mode %q (a master keeps no durable state)", ModeMaster)
		}
	case ModeAgent:
		if s.MasterURL == "" && len(s.MasterURLs) == 0 {
			return fmt.Errorf("mode %q requires master_url or master_urls", ModeAgent)
		}
		if s.Advertise == "" {
			return fmt.Errorf("mode %q requires advertise (the URL the master dials back)", ModeAgent)
		}
	default:
		return fmt.Errorf("mode %q unknown (want %q, %q or %q)", s.Mode, ModeStandalone, ModeMaster, ModeAgent)
	}
	if s.FleetQuorum < 0 {
		return fmt.Errorf("fleet_quorum must be non-negative")
	}
	if s.FleetVNodes < 0 {
		return fmt.Errorf("fleet_vnodes must be non-negative")
	}
	if s.HeartbeatIntervalMS < 0 {
		return fmt.Errorf("heartbeat_interval_ms must be non-negative")
	}
	if s.ForwardTimeoutMS < 0 {
		return fmt.Errorf("forward_timeout_ms must be non-negative")
	}
	if len(s.MasterURLs) > 0 && s.FleetMode() != ModeAgent {
		return fmt.Errorf("master_urls requires mode %q", ModeAgent)
	}
	for _, u := range s.MasterURLs {
		if u == "" {
			return fmt.Errorf("master_urls must not contain empty entries")
		}
	}
	if (s.MasterID != "" || s.StandbyOf != "" || s.PeerURL != "") && s.FleetMode() != ModeMaster {
		return fmt.Errorf("master_id/standby_of/peer_url require mode %q", ModeMaster)
	}
	if s.StandbyOf != "" && s.PeerURL != "" {
		return fmt.Errorf("standby_of and peer_url are mutually exclusive (a standby's peer is its primary)")
	}
	if (s.StandbyOf != "" || s.PeerURL != "") && s.MasterID == "" {
		return fmt.Errorf("standby_of/peer_url require master_id (the lease identity)")
	}
	if s.LeaseIntervalMS < 0 {
		return fmt.Errorf("lease_interval_ms must be non-negative")
	}
	if s.LeaseIntervalMS > 0 && s.MasterID == "" {
		return fmt.Errorf("lease_interval_ms requires master_id (high availability off)")
	}
	return nil
}

// FleetMode normalizes the deployment mode ("" means standalone).
func (s Site) FleetMode() string {
	if s.Mode == "" {
		return ModeStandalone
	}
	return s.Mode
}

// HeartbeatInterval is the agent beat cadence (default 1s).
func (s Site) HeartbeatInterval() time.Duration {
	if s.HeartbeatIntervalMS <= 0 {
		return time.Second
	}
	return time.Duration(s.HeartbeatIntervalMS) * time.Millisecond
}

// FleetMasterConfig assembles the master control-plane configuration.
// Suspect/dead timers derive from the heartbeat cadence — an agent is
// suspect after 3 missed beats and dead (removed from the ring) after
// 10 — so operators tune one knob, not three that can disagree.
func (s Site) FleetMasterConfig() fleet.MasterConfig {
	beat := s.HeartbeatInterval()
	return fleet.MasterConfig{
		Quorum:         s.FleetQuorum,
		VNodes:         s.FleetVNodes,
		SuspectAfter:   3 * beat,
		DeadAfter:      10 * beat,
		ForwardTimeout: time.Duration(s.ForwardTimeoutMS) * time.Millisecond,
		Breaker:        s.BreakerConfig(),
		HA:             s.FleetHAConfig(),
	}
}

// HAEnabled reports whether this master participates in the lease
// protocol (master_id set).
func (s Site) HAEnabled() bool { return s.MasterID != "" }

// LeaseInterval is the master lease tick cadence (default 1s). The
// failover detection window is two intervals.
func (s Site) LeaseInterval() time.Duration {
	if s.LeaseIntervalMS <= 0 {
		return time.Second
	}
	return time.Duration(s.LeaseIntervalMS) * time.Millisecond
}

// FleetHAConfig assembles the lease half of a master. Zero
// (HA off) when MasterID is unset. A standby's peer is its primary
// (standby_of); a primary's peer is its standby (peer_url), which a
// deposed primary demotes into polling.
func (s Site) FleetHAConfig() fleet.HAConfig {
	if s.MasterID == "" {
		return fleet.HAConfig{}
	}
	peer := s.PeerURL
	if s.StandbyOf != "" {
		peer = s.StandbyOf
	}
	return fleet.HAConfig{
		ID:            s.MasterID,
		PeerURL:       peer,
		StartPrimary:  s.StandbyOf == "",
		LeaseInterval: s.LeaseInterval(),
	}
}

// FleetAgentConfig assembles the agent-side fleet configuration. gen
// must be fresh per process start (e.g. startup time in nanoseconds)
// so the master detects restarts and resets its directory mirror.
func (s Site) FleetAgentConfig(gen uint64) fleet.AgentConfig {
	id := s.AgentID
	if id == "" {
		id = s.Advertise
	}
	masters := s.MasterURLs
	if len(masters) == 0 && s.MasterURL != "" {
		masters = []string{s.MasterURL}
	}
	return fleet.AgentConfig{
		ID:           id,
		AdvertiseURL: s.Advertise,
		MasterURLs:   masters,
		Gen:          gen,
		Interval:     s.HeartbeatInterval(),
	}
}

// ServerConfig assembles the cache node server.Open builds: the cache,
// the state directory and its durability options, the checkpoint
// cadence, the max-inflight bound, admission control (armed by
// shed_rate or shed_queue_depth) and the heal-probe cadence.
func (s Site) ServerConfig(repo *pkggraph.Repo) server.Config {
	return server.Config{
		Core:            s.CoreConfig(repo),
		StateDir:        s.StateDir,
		Persist:         s.PersistOptions(),
		CheckpointEvery: s.CheckpointEveryRequests,
		MaxInflight:     s.MaxInflight,
		Admission: resilience.ShedderConfig{
			Rate:       s.ShedRate,
			Burst:      s.ShedBurst,
			QueueDepth: s.ShedQueueDepth,
		},
		ProbeInterval: s.DegradedProbeInterval(),
	}
}

// DegradedProbeInterval is the heal-probe cadence (0 = disabled).
func (s Site) DegradedProbeInterval() time.Duration {
	return time.Duration(s.DegradedProbeIntervalMS) * time.Millisecond
}

// BreakerConfig assembles the master's per-agent forward-breaker
// configuration; zero fields take the resilience defaults.
func (s Site) BreakerConfig() resilience.BreakerConfig {
	return resilience.BreakerConfig{
		Failures: s.BreakerFailures,
		OpenFor:  time.Duration(s.BreakerOpenMS) * time.Millisecond,
		Probes:   s.BreakerProbes,
	}
}

// PersistOptions assembles the durability options for the state
// directory. Only meaningful when StateDir is set.
func (s Site) PersistOptions() persist.Options {
	policy, _ := persist.ParseFsyncPolicy(s.Fsync) // Validate caught bad values
	return persist.Options{
		SegmentBytes: int64(s.WALSegmentMB) << 20,
		SyncPolicy:   policy,
		SyncInterval: time.Duration(s.FsyncIntervalMS) * time.Millisecond,
	}
}

// OpenRepo loads or generates the configured repository.
func (s Site) OpenRepo() (*pkggraph.Repo, error) {
	if s.RepoFile != "" {
		return pkggraph.LoadFile(s.RepoFile)
	}
	return pkggraph.Generate(pkggraph.DefaultGenConfig(), s.RepoSeed)
}

// Shards returns the configured cache shard count (default 1).
func (s Site) Shards() int {
	if s.CacheShards == nil || *s.CacheShards < 1 {
		return 1
	}
	return *s.CacheShards
}

// CoreConfig assembles the manager configuration for the repository.
func (s Site) CoreConfig(repo *pkggraph.Repo) core.Config {
	cfg := core.Config{
		Capacity: int64(s.CapacityGB * float64(stats.GB)),
		Shards:   s.Shards(),
	}
	if s.Alpha != nil {
		cfg.Alpha = *s.Alpha
	} else {
		cfg.Alpha = 0.8
	}
	if s.MinHash == nil || *s.MinHash {
		cfg.MinHash = core.DefaultMinHash()
	}
	if len(s.SingleVersionFamilies) > 0 {
		cfg.Conflicts = spec.NewSingleVersionPolicy(repo, s.SingleVersionFamilies...)
	}
	return cfg
}
