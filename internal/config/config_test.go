package config

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/persist"
)

func writeConfig(t *testing.T, text string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "site.json")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestDefault(t *testing.T) {
	s := Default()
	if err := s.Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	if s.Addr != ":8080" || *s.Alpha != 0.8 || !*s.MinHash {
		t.Fatalf("unexpected defaults: %+v", s)
	}
}

func TestLoadOverridesAndDefaults(t *testing.T) {
	path := writeConfig(t, `{
		"alpha": 0.65,
		"capacity_gb": 2048,
		"repo_seed": 7,
		"prune_every_requests": 100,
		"prune_utilization": 0.6,
		"prune_min_served": 3
	}`)
	s, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if *s.Alpha != 0.65 || s.CapacityGB != 2048 || s.RepoSeed != 7 {
		t.Fatalf("overrides lost: %+v", s)
	}
	if s.Addr != ":8080" {
		t.Fatalf("default addr lost: %q", s.Addr)
	}
	if s.MinHash == nil || !*s.MinHash {
		t.Fatal("default minhash lost")
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
	if _, err := Load(writeConfig(t, "{broken")); err == nil {
		t.Error("malformed JSON accepted")
	}
	if _, err := Load(writeConfig(t, `{"alpha": 3}`)); err == nil {
		t.Error("bad alpha accepted")
	}
	if _, err := Load(writeConfig(t, `{"capacity_gb": -1}`)); err == nil {
		t.Error("negative capacity accepted")
	}
	if _, err := Load(writeConfig(t, `{"addr": ""}`)); err == nil {
		t.Error("empty addr accepted")
	}
	if _, err := Load(writeConfig(t, `{"prune_every_requests": 10}`)); err == nil {
		t.Error("pruning without utilization accepted")
	}
	if _, err := Load(writeConfig(t, `{"prune_every_requests": 10, "prune_utilization": 0.5}`)); err == nil {
		t.Error("pruning without min_served accepted")
	}
	if _, err := Load(writeConfig(t, `{"fsync": "sometimes"}`)); err == nil {
		t.Error("unknown fsync policy accepted")
	}
	if _, err := Load(writeConfig(t, `{"fsync_interval_ms": -5}`)); err == nil {
		t.Error("negative fsync interval accepted")
	}
	if _, err := Load(writeConfig(t, `{"checkpoint_every_requests": -1}`)); err == nil {
		t.Error("negative checkpoint threshold accepted")
	}
	if _, err := Load(writeConfig(t, `{"wal_segment_mb": -1}`)); err == nil {
		t.Error("negative segment size accepted")
	}
	if _, err := Load(writeConfig(t, `{"max_inflight": -4}`)); err == nil {
		t.Error("negative max_inflight accepted")
	}
	if _, err := Load(writeConfig(t, `{"shed_rate": -1}`)); err == nil {
		t.Error("negative shed_rate accepted")
	}
	if _, err := Load(writeConfig(t, `{"shed_burst": -1}`)); err == nil {
		t.Error("negative shed_burst accepted")
	}
	if _, err := Load(writeConfig(t, `{"shed_queue_depth": -1}`)); err == nil {
		t.Error("negative shed_queue_depth accepted")
	}
	if _, err := Load(writeConfig(t, `{"shed_burst": 10}`)); err == nil {
		t.Error("shed_burst without shed_rate accepted")
	}
	if _, err := Load(writeConfig(t, `{"degraded_probe_interval_ms": -1}`)); err == nil {
		t.Error("negative degraded_probe_interval_ms accepted")
	}
	if _, err := Load(writeConfig(t, `{"breaker_open_ms": -1}`)); err == nil {
		t.Error("negative breaker_open_ms accepted")
	}
	if _, err := Load(writeConfig(t, `{"mode": "overlord"}`)); err == nil {
		t.Error("unknown mode accepted")
	}
	if _, err := Load(writeConfig(t, `{"mode": "agent"}`)); err == nil {
		t.Error("agent mode without master_url accepted")
	}
	if _, err := Load(writeConfig(t, `{"mode": "agent", "master_url": "http://m:8080"}`)); err == nil {
		t.Error("agent mode without advertise accepted")
	}
	if _, err := Load(writeConfig(t, `{"master_url": "http://m:8080"}`)); err == nil {
		t.Error("master_url in standalone mode accepted")
	}
	if _, err := Load(writeConfig(t, `{"mode": "master", "state_dir": "/var/lib/landlord"}`)); err == nil {
		t.Error("state_dir in master mode accepted")
	}
	if _, err := Load(writeConfig(t, `{"mode": "master", "fleet_quorum": -1}`)); err == nil {
		t.Error("negative fleet_quorum accepted")
	}
	if _, err := Load(writeConfig(t, `{"mode": "master", "fleet_vnodes": -1}`)); err == nil {
		t.Error("negative fleet_vnodes accepted")
	}
	if _, err := Load(writeConfig(t, `{"heartbeat_interval_ms": -1}`)); err == nil {
		t.Error("negative heartbeat_interval_ms accepted")
	}
	if _, err := Load(writeConfig(t, `{"forward_timeout_ms": -1}`)); err == nil {
		t.Error("negative forward_timeout_ms accepted")
	}
}

// TestCacheShardsValidation pins the cache_shards contract: nil
// defaults to 1, valid counts pass through, and counts below 1 are
// rejected with exactly the documented message (operators grep for
// it; DESIGN.md §11 quotes it).
func TestCacheShardsValidation(t *testing.T) {
	if got := Default().Shards(); got != 1 {
		t.Fatalf("default shard count = %d, want 1", got)
	}
	s, err := Load(writeConfig(t, `{"cache_shards": 16}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Shards() != 16 {
		t.Fatalf("cache_shards lost: %d", s.Shards())
	}
	if got := s.CoreConfig(nil).Shards; got != 16 {
		t.Fatalf("CoreConfig shards = %d, want 16", got)
	}
	for _, n := range []int{0, -4} {
		bad := Default()
		bad.CacheShards = &n
		err := bad.Validate()
		if err == nil {
			t.Fatalf("cache_shards=%d accepted", n)
		}
		want := fmt.Sprintf("cache_shards must be at least 1 (got %d)", n)
		if err.Error() != want {
			t.Errorf("cache_shards=%d error = %q, want %q", n, err, want)
		}
	}
}

func TestFleetConfig(t *testing.T) {
	// Defaults: standalone, 1s heartbeat-derived timers.
	d := Default()
	if d.FleetMode() != ModeStandalone {
		t.Fatalf("default mode = %q", d.FleetMode())
	}
	if d.HeartbeatInterval() != time.Second {
		t.Fatalf("default heartbeat = %v", d.HeartbeatInterval())
	}

	s, err := Load(writeConfig(t, `{
		"mode": "master",
		"fleet_quorum": 2,
		"fleet_vnodes": 64,
		"heartbeat_interval_ms": 500,
		"forward_timeout_ms": 1500,
		"breaker_failures": 4
	}`))
	if err != nil {
		t.Fatal(err)
	}
	mc := s.FleetMasterConfig()
	if mc.Quorum != 2 || mc.VNodes != 64 {
		t.Fatalf("master config: %+v", mc)
	}
	if mc.SuspectAfter != 1500*time.Millisecond || mc.DeadAfter != 5*time.Second {
		t.Fatalf("heartbeat-derived timers wrong: suspect=%v dead=%v", mc.SuspectAfter, mc.DeadAfter)
	}
	if mc.ForwardTimeout != 1500*time.Millisecond || mc.Breaker.Failures != 4 {
		t.Fatalf("master config: %+v", mc)
	}

	a, err := Load(writeConfig(t, `{
		"mode": "agent",
		"master_url": "http://master:8080",
		"advertise": "http://agent1:8081"
	}`))
	if err != nil {
		t.Fatal(err)
	}
	ac := a.FleetAgentConfig(42)
	if ac.ID != "http://agent1:8081" {
		t.Fatalf("agent id should default to advertise: %+v", ac)
	}
	if len(ac.MasterURLs) != 1 || ac.MasterURLs[0] != "http://master:8080" || ac.Gen != 42 || ac.Interval != time.Second {
		t.Fatalf("agent config: %+v", ac)
	}
	a.AgentID = "agent-1"
	if got := a.FleetAgentConfig(1).ID; got != "agent-1" {
		t.Fatalf("explicit agent_id lost: %q", got)
	}
}

func TestHAConfig(t *testing.T) {
	// A standby master: mirrors the named primary, promotes on silence.
	s, err := Load(writeConfig(t, `{
		"mode": "master",
		"master_id": "master-b",
		"standby_of": "http://master-a:8080",
		"lease_interval_ms": 250
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if !s.HAEnabled() {
		t.Fatal("master_id set but HAEnabled false")
	}
	hc := s.FleetHAConfig()
	if hc.ID != "master-b" || hc.PeerURL != "http://master-a:8080" || hc.StartPrimary {
		t.Fatalf("standby HA config: %+v", hc)
	}
	if hc.LeaseInterval != 250*time.Millisecond {
		t.Fatalf("standby HA config: %+v", hc)
	}
	if s.FleetMasterConfig().HA.ID != "master-b" {
		t.Fatal("FleetMasterConfig does not carry the HA config")
	}

	// A primary names its standby via peer_url and starts holding the
	// lease at epoch 1.
	p, err := Load(writeConfig(t, `{
		"mode": "master",
		"master_id": "master-a",
		"peer_url": "http://master-b:8080"
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if hp := p.FleetHAConfig(); !hp.StartPrimary || hp.PeerURL != "http://master-b:8080" {
		t.Fatalf("primary HA config: %+v", hp)
	}
	if p.LeaseInterval() != time.Second {
		t.Fatalf("default lease interval = %v", p.LeaseInterval())
	}

	// HA off: the zero HAConfig disables the lease protocol entirely.
	if hc := Default().FleetHAConfig(); hc.ID != "" {
		t.Fatalf("HA config without master_id: %+v", hc)
	}

	// An HA-fleet agent heartbeats every master.
	ag, err := Load(writeConfig(t, `{
		"mode": "agent",
		"master_urls": ["http://master-a:8080", "http://master-b:8080"],
		"advertise": "http://agent1:8081"
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if urls := ag.FleetAgentConfig(1).MasterURLs; len(urls) != 2 || urls[1] != "http://master-b:8080" {
		t.Fatalf("agent master_urls lost: %v", urls)
	}

	// Validation rejects inconsistent HA wiring.
	for _, bad := range []string{
		`{"mode": "master", "standby_of": "http://a"}`,                                           // no identity
		`{"mode": "master", "master_id": "m", "standby_of": "http://a", "peer_url": "http://b"}`, // both peers
		`{"mode": "standalone", "master_id": "m"}`,                                               // wrong mode
		`{"mode": "master", "master_urls": ["http://a"]}`,                                        // wrong mode
		`{"mode": "agent", "advertise": "http://x", "master_urls": [""]}`,                        // empty entry
		`{"mode": "master", "lease_interval_ms": 100}`,                                           // lease without HA
	} {
		if _, err := Parse([]byte(bad)); err == nil {
			t.Errorf("config accepted: %s", bad)
		}
	}
}

func TestResilienceConfig(t *testing.T) {
	s, err := Load(writeConfig(t, `{
		"shed_rate": 500,
		"shed_burst": 100,
		"shed_queue_depth": 64,
		"degraded_probe_interval_ms": 250,
		"breaker_failures": 4,
		"breaker_open_ms": 2000,
		"breaker_probes": 2
	}`))
	if err != nil {
		t.Fatal(err)
	}
	sc := s.ServerConfig(nil).Admission
	if sc.Rate != 500 || sc.Burst != 100 || sc.QueueDepth != 64 {
		t.Fatalf("admission config: %+v", sc)
	}
	if got := s.ServerConfig(nil).ProbeInterval; got != 250*time.Millisecond {
		t.Errorf("probe interval = %v, want 250ms", got)
	}
	bc := s.BreakerConfig()
	if bc.Failures != 4 || bc.OpenFor != 2*time.Second || bc.Probes != 2 {
		t.Fatalf("breaker config: %+v", bc)
	}

	// Defaults: no shedding, probe on at 1s, zero-value client knobs
	// defer to internal/resilience defaults.
	d := Default()
	if sc := d.ServerConfig(nil).Admission; sc.Rate != 0 || sc.QueueDepth != 0 {
		t.Errorf("default config sheds: %+v", sc)
	}
	if d.DegradedProbeInterval() != time.Second {
		t.Errorf("default probe interval = %v, want 1s", d.DegradedProbeInterval())
	}
	if bc := d.BreakerConfig(); bc.Failures != 0 || bc.OpenFor != 0 || bc.Probes != 0 {
		t.Errorf("default breaker config not zero: %+v", bc)
	}
}

// TestRetiredRetryBudgetStillLoads: retry_budget configured nothing
// and is gone from Site, but a site file that still sets it — to any
// value — must keep loading, with the rest of the file applied.
func TestRetiredRetryBudgetStillLoads(t *testing.T) {
	for _, v := range []string{"0.2", "1.5"} {
		s, err := Load(writeConfig(t, `{"retry_budget": `+v+`, "max_inflight": 4}`))
		if err != nil {
			t.Fatalf("retry_budget %s: %v", v, err)
		}
		if s.MaxInflight != 4 {
			t.Errorf("retry_budget %s: max_inflight = %d, want 4", v, s.MaxInflight)
		}
	}
}

func TestMaxInflight(t *testing.T) {
	s, err := Load(writeConfig(t, `{"max_inflight": 32}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.MaxInflight != 32 {
		t.Fatalf("max_inflight = %d, want 32", s.MaxInflight)
	}
	if Default().MaxInflight != 0 {
		t.Fatal("default max_inflight should be 0 (unbounded)")
	}
}

func TestPersistOptions(t *testing.T) {
	path := writeConfig(t, `{
		"state_dir": "/var/lib/landlord",
		"fsync": "always",
		"fsync_interval_ms": 250,
		"checkpoint_every_requests": 5000,
		"wal_segment_mb": 8
	}`)
	s, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.StateDir != "/var/lib/landlord" || s.CheckpointEveryRequests != 5000 {
		t.Fatalf("persistence fields lost: %+v", s)
	}
	opts := s.PersistOptions()
	if opts.SyncPolicy != persist.FsyncAlways {
		t.Errorf("sync policy = %v, want always", opts.SyncPolicy)
	}
	if opts.SegmentBytes != 8<<20 {
		t.Errorf("segment bytes = %d, want %d", opts.SegmentBytes, 8<<20)
	}
	if opts.SyncInterval != 250*time.Millisecond {
		t.Errorf("sync interval = %v, want 250ms", opts.SyncInterval)
	}

	// Defaults: empty fsync parses to the interval policy, zero sizes
	// defer to the store's defaults.
	opts = Default().PersistOptions()
	if opts.SyncPolicy != persist.FsyncInterval || opts.SegmentBytes != 0 {
		t.Errorf("default options = %+v", opts)
	}
}

// TestExampleSiteConfig pins the shipped example config: it must parse
// and validate, and it must exercise every durability knob.
func TestExampleSiteConfig(t *testing.T) {
	s, err := Load(filepath.Join("..", "..", "examples", "site.json"))
	if err != nil {
		t.Fatalf("examples/site.json: %v", err)
	}
	if s.StateDir == "" || s.Fsync == "" || s.CheckpointEveryRequests == 0 || s.WALSegmentMB == 0 {
		t.Errorf("example config leaves durability keys unset: %+v", s)
	}
	if s.PruneEveryRequests == 0 {
		t.Error("example config should demonstrate the prune schedule")
	}
}

// TestExampleFleetConfigs pins the shipped fleet example configs: the
// master must demonstrate the quorum knob, the agent the full
// master_url/advertise/agent_id triple.
func TestExampleFleetConfigs(t *testing.T) {
	m, err := Load(filepath.Join("..", "..", "examples", "master.json"))
	if err != nil {
		t.Fatalf("examples/master.json: %v", err)
	}
	if m.FleetMode() != ModeMaster || m.FleetQuorum < 2 {
		t.Errorf("example master config should demand a quorum: %+v", m)
	}
	a, err := Load(filepath.Join("..", "..", "examples", "agent.json"))
	if err != nil {
		t.Fatalf("examples/agent.json: %v", err)
	}
	if a.FleetMode() != ModeAgent || a.MasterURL == "" || a.Advertise == "" || a.AgentID == "" {
		t.Errorf("example agent config leaves fleet keys unset: %+v", a)
	}
	if a.StateDir == "" {
		t.Error("example agent config should keep its cache durable")
	}
}

func TestOpenRepoGenerated(t *testing.T) {
	s := Default()
	s.RepoSeed = 3
	// Generating the full default repository takes ~100ms; acceptable.
	repo, err := s.OpenRepo()
	if err != nil {
		t.Fatal(err)
	}
	if repo.Len() != 9660 {
		t.Fatalf("repo size = %d", repo.Len())
	}
}

func TestOpenRepoFromFile(t *testing.T) {
	s := Default()
	s.RepoFile = filepath.Join(t.TempDir(), "missing.jsonl")
	if _, err := s.OpenRepo(); err == nil {
		t.Fatal("missing repo file accepted")
	}
}

func TestCoreConfig(t *testing.T) {
	s := Default()
	s.CapacityGB = 1
	s.SingleVersionFamilies = []string{"py"}
	repo, err := s.OpenRepo()
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.CoreConfig(repo)
	if cfg.Alpha != 0.8 || cfg.Capacity != 1<<30 {
		t.Fatalf("core config: %+v", cfg)
	}
	if cfg.MinHash == nil {
		t.Fatal("minhash not enabled")
	}
	if cfg.Conflicts == nil {
		t.Fatal("conflict policy not built")
	}
	// Disabled minhash and nil alpha take sensible paths.
	off := false
	s.MinHash = &off
	s.Alpha = nil
	cfg = s.CoreConfig(repo)
	if cfg.MinHash != nil || cfg.Alpha != 0.8 {
		t.Fatalf("fallbacks wrong: %+v", cfg)
	}
}
