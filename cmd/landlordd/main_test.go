package main

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/server"
)

func TestMaintenanceInterval(t *testing.T) {
	cases := []struct {
		requests int
		want     time.Duration
	}{
		{0, time.Minute},        // disabled schedules still clamp up
		{1, time.Minute},        // sub-minute clamps to the floor
		{999, time.Minute},      // just under one pass/minute
		{1000, time.Minute},     // one pass per minute per thousand requests
		{5000, 5 * time.Minute}, // scales linearly
		{60000, time.Hour},      // exactly the ceiling
		{1 << 30, time.Hour},    // absurd schedules clamp to the ceiling
	}
	for _, c := range cases {
		if got := maintenanceInterval(c.requests); got != c.want {
			t.Errorf("maintenanceInterval(%d) = %v, want %v", c.requests, got, c.want)
		}
	}
}

func TestStatsLogLine(t *testing.T) {
	line := statsLogLine(server.StatsResponse{
		Requests:        12,
		Hits:            7,
		Images:          3,
		TotalData:       1 << 30,
		CacheEfficiency: 0.875,
	})
	for _, want := range []string{"requests=12", "hits=7", "images=3", "cached=1.00GB", "cache_eff=0.875"} {
		if !strings.Contains(line, want) {
			t.Errorf("stats line missing %q: %s", want, line)
		}
	}
}

func TestMountPprof(t *testing.T) {
	mux := http.NewServeMux()
	mountPprof(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline -> %d", resp.StatusCode)
	}
	// The index page must list the standard profiles.
	resp, err = http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/ -> %d", resp.StatusCode)
	}
}

// TestSiteFlags pins the flag table: each site flag overrides exactly
// its config.Site field over a config file, and every field the file
// sets and no flag names keeps the file's value.
func TestSiteFlags(t *testing.T) {
	path := filepath.Join(t.TempDir(), "site.json")
	if err := os.WriteFile(path, []byte(`{
		"addr": "127.0.0.1:7", "alpha": 0.6, "capacity_gb": 2,
		"repo_seed": 7, "repo_file": "repo.jsonl", "mode": "master",
		"advertise": "http://adv:1", "agent_id": "a-1", "fleet_quorum": 3,
		"heartbeat_interval_ms": 150, "master_id": "m-1", "peer_url": "http://peer:1",
		"lease_interval_ms": 120
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	file, err := config.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		flag, value string
		want        func(s *config.Site)
	}{
		{"addr", "127.0.0.1:9", func(s *config.Site) { s.Addr = "127.0.0.1:9" }},
		{"alpha", "0.3", func(s *config.Site) { a := 0.3; s.Alpha = &a }},
		{"capacity-gb", "12.5", func(s *config.Site) { s.CapacityGB = 12.5 }},
		{"repo-seed", "99", func(s *config.Site) { s.RepoSeed = 99 }},
		{"repo-file", "other.jsonl", func(s *config.Site) { s.RepoFile = "other.jsonl" }},
		{"state-dir", "state", func(s *config.Site) { s.StateDir = "state" }},
		{"mode", "agent", func(s *config.Site) { s.Mode = "agent" }},
		{"master-url", "http://m:1", func(s *config.Site) { s.MasterURL = "http://m:1" }},
		{"master-urls", "http://a:1,http://b:2", func(s *config.Site) { s.MasterURLs = []string{"http://a:1", "http://b:2"} }},
		{"advertise", "http://me:3", func(s *config.Site) { s.Advertise = "http://me:3" }},
		{"agent-id", "agent-9", func(s *config.Site) { s.AgentID = "agent-9" }},
		{"quorum", "0", func(s *config.Site) { s.FleetQuorum = 0 }},
		{"heartbeat-ms", "250", func(s *config.Site) { s.HeartbeatIntervalMS = 250 }},
		{"master-id", "m-2", func(s *config.Site) { s.MasterID = "m-2" }},
		{"standby-of", "http://p:4", func(s *config.Site) { s.StandbyOf = "http://p:4" }},
		{"peer-url", "http://s:5", func(s *config.Site) { s.PeerURL = "http://s:5" }},
		{"lease-ms", "300", func(s *config.Site) { s.LeaseIntervalMS = 300 }},
	}
	if len(cases) != 17 || len(siteFlags) != len(cases) {
		t.Fatalf("%d site flags, %d cases: every site flag needs a case here", len(siteFlags), len(cases))
	}
	for i, c := range cases {
		if siteFlags[i].name != c.flag {
			t.Fatalf("case %d is -%s, the table's flag %d is -%s", i, c.flag, i, siteFlags[i].name)
		}
		got, _, err := parseArgs([]string{"-config", path, "-" + c.flag, c.value})
		if err != nil {
			t.Fatalf("-%s %s: %v", c.flag, c.value, err)
		}
		want := file
		c.want(&want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("-%s %s:\n got %+v\nwant %+v", c.flag, c.value, got, want)
		}
	}
	if got, _, err := parseArgs([]string{"-config", path}); err != nil || !reflect.DeepEqual(got, file) {
		t.Errorf("no site flags: got %+v (%v), want the file's %+v", got, err, file)
	}

	// -master-url over a file's master_urls would leave the agent one
	// of the two lists; the result is refused, naming both.
	agentPath := filepath.Join(t.TempDir(), "agent.json")
	if err := os.WriteFile(agentPath, []byte(`{"mode": "agent", "advertise": "http://me:1",
		"master_urls": ["http://a:1", "http://b:2"]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	site, _, err := parseArgs([]string{"-config", agentPath, "-master-url", "http://m:1"})
	if err != nil {
		t.Fatal(err)
	}
	if err := site.Validate(); err == nil || !strings.Contains(err.Error(), "master_url and master_urls") {
		t.Errorf("-master-url over a file's master_urls: Validate = %v, want an error naming both", err)
	}
}
