package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/pkggraph"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// testRepo is a scaled-down repository so every command runs in
// milliseconds.
func testRepo(t *testing.T) *pkggraph.Repo {
	t.Helper()
	cfg := pkggraph.DefaultGenConfig()
	cfg.CoreFamilies = 3
	cfg.FrameworkFamilies = 8
	cfg.LibraryFamilies = 37
	cfg.ApplicationFamilies = 72
	return pkggraph.MustGenerate(cfg, 42)
}

// testOptions mirrors the -short flag's scaling plus a tiny rep count.
func testOptions(t *testing.T) (*options, *bytes.Buffer) {
	t.Helper()
	var buf bytes.Buffer
	return &options{
		repoSeed:   42,
		seed:       1,
		uniqueJobs: 30,
		repeats:    2,
		reps:       2,
		cacheX:     1.4,
		alpha:      0.75,
		maxInitial: 8,
		parallel:   2,
		short:      true,
		out:        &buf,
	}, &buf
}

func TestCmdRepo(t *testing.T) {
	opt, buf := testOptions(t)
	if err := cmdRepo(testRepo(t), opt); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"packages:", "core", "application", "most depended-upon"} {
		if !strings.Contains(out, want) {
			t.Errorf("repo output missing %q", want)
		}
	}
}

func TestCmdPackages(t *testing.T) {
	opt, buf := testOptions(t)
	repo := testRepo(t)
	if err := cmdPackages(repo, opt); err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(buf.String(), "\n")
	if lines < repo.Len() {
		t.Fatalf("packages listed %d lines for %d packages", lines, repo.Len())
	}
}

func TestCmdTable2(t *testing.T) {
	opt, buf := testOptions(t)
	if err := cmdTable2(testRepo(t), opt); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, app := range []string{"alice-gen-sim", "atlas-sim", "lhcb-gen-sim"} {
		if !strings.Contains(out, app) {
			t.Errorf("table2 missing %q", app)
		}
	}
}

func TestCmdFig3WithCSV(t *testing.T) {
	opt, buf := testOptions(t)
	opt.csvDir = t.TempDir()
	if err := cmdFig3(testRepo(t), opt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "expansion") {
		t.Error("fig3 output missing expansion column")
	}
	data, err := os.ReadFile(filepath.Join(opt.csvDir, "fig3.csv"))
	if err != nil {
		t.Fatalf("CSV not written: %v", err)
	}
	if !strings.HasPrefix(string(data), "spec_size,") {
		t.Errorf("bad CSV header: %.40s", data)
	}
}

func TestCmdFig4(t *testing.T) {
	opt, buf := testOptions(t)
	if err := cmdFig4(testRepo(t), opt); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"(a) total cache operations", "(b) duplication", "(c) cumulative I/O"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig4 missing %q", want)
		}
	}
}

func TestCmdFig5(t *testing.T) {
	opt, buf := testOptions(t)
	if err := cmdFig5(testRepo(t), opt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "final:") {
		t.Error("fig5 missing final summary")
	}
}

func TestCmdFig5EventsJSONL(t *testing.T) {
	// fig5 -events must emit exactly one well-formed JSONL event per
	// simulated request, through the same openEvents path main uses.
	opt, _ := testOptions(t)
	path := filepath.Join(t.TempDir(), "events.jsonl")
	sink, closeEvents, err := openEvents(path)
	if err != nil {
		t.Fatal(err)
	}
	opt.events = sink
	if err := cmdFig5(testRepo(t), opt); err != nil {
		t.Fatal(err)
	}
	if err := closeEvents(); err != nil {
		t.Fatalf("closing events sink: %v", err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	want := opt.uniqueJobs * opt.repeats
	if len(lines) != want {
		t.Fatalf("events file has %d lines, want %d", len(lines), want)
	}
	ops := map[string]int{}
	for i, line := range lines {
		var ev telemetry.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i+1, err, line)
		}
		if ev.Seq != uint64(i+1) {
			t.Fatalf("line %d has seq %d", i+1, ev.Seq)
		}
		if ev.Op != "hit" && ev.Op != "merge" && ev.Op != "insert" {
			t.Fatalf("line %d has op %q", i+1, ev.Op)
		}
		if ev.SpecPackages <= 0 || ev.RequestBytes <= 0 {
			t.Fatalf("line %d lacks spec accounting: %+v", i+1, ev)
		}
		ops[ev.Op]++
	}
	if ops["hit"] == 0 || ops["insert"] == 0 {
		t.Fatalf("event stream lacks op diversity: %v", ops)
	}
}

func TestOpenEventsErrors(t *testing.T) {
	if _, _, err := openEvents(filepath.Join(t.TempDir(), "no", "such", "dir", "f.jsonl")); err == nil {
		t.Error("unwritable events path accepted")
	}
}

func TestCmdFig7(t *testing.T) {
	opt, buf := testOptions(t)
	if err := cmdFig7(testRepo(t), opt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "random cache eff") {
		t.Error("fig7 missing random columns")
	}
}

func TestCmdFig8(t *testing.T) {
	opt, buf := testOptions(t)
	if err := cmdFig8(testRepo(t), opt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "operational zone") &&
		!strings.Contains(buf.String(), "no operational zone") {
		t.Error("fig8 missing zone verdict")
	}
}

func TestCmdBaselines(t *testing.T) {
	opt, buf := testOptions(t)
	if err := cmdBaselines(testRepo(t), opt); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"landlord", "naive", "layered", "fullrepo"} {
		if !strings.Contains(out, want) {
			t.Errorf("baselines missing %q", want)
		}
	}
}

func TestCmdCluster(t *testing.T) {
	opt, buf := testOptions(t)
	opt.uniqueJobs = 15
	repo := testRepo(t)
	if err := cmdCluster(repo, opt); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"round-robin", "random", "fleet hash"} {
		if !strings.Contains(out, want) {
			t.Errorf("cluster missing %q", want)
		}
	}

	// The fleet-hash row places jobs exactly as a master does: every
	// repeat of a spec lands on one site, the rendezvous owner of the
	// spec's route key.
	stream, err := workload.Stream(workload.NewDepClosure(repo, opt.seed), opt.uniqueJobs, opt.repeats, opt.seed+0x5eed)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"site-0", "site-1", "site-2", "site-3"}
	var pol *sitePolicy
	policies := sitePolicies(repo, names, opt.seed)
	for i := range policies {
		if policies[i].name == "fleet hash" {
			pol = &policies[i]
		}
	}
	if pol == nil {
		t.Fatal("no fleet hash policy")
	}
	placed := make(map[uint64]int)
	for n, job := range stream {
		i := pol.place(job)
		if want := fleet.RendezvousOrder(names, fleet.RouteKey(jobKeys(repo, job)))[0]; names[i] != want {
			t.Fatalf("job %d placed on %s, rendezvous owner is %s", n, names[i], want)
		}
		if prev, ok := placed[job.Hash()]; ok && prev != i {
			t.Fatalf("job %d: repeat placed on %s, earlier copy on %s", n, names[i], names[prev])
		}
		placed[job.Hash()] = i
	}
	if len(placed) != opt.uniqueJobs {
		t.Fatalf("stream has %d distinct specs, want %d", len(placed), opt.uniqueJobs)
	}
}

func TestCmdDrift(t *testing.T) {
	opt, buf := testOptions(t)
	if err := cmdDrift(testRepo(t), opt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no pruning") {
		t.Error("drift missing comparison rows")
	}
}

func TestCmdTraceGenAndReplay(t *testing.T) {
	opt, buf := testOptions(t)
	repo := testRepo(t)
	if err := cmdTraceGen(repo, opt); err == nil {
		t.Fatal("trace-gen without -trace accepted")
	}
	opt.traceFile = filepath.Join(t.TempDir(), "t.jsonl")
	if err := cmdTraceGen(repo, opt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "wrote 60 requests") {
		t.Errorf("trace-gen output: %s", buf.String())
	}
	buf.Reset()
	if err := cmdReplay(repo, opt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "replayed 60 requests") {
		t.Errorf("replay output: %s", buf.String())
	}
}

func TestCmdReplayErrors(t *testing.T) {
	opt, _ := testOptions(t)
	repo := testRepo(t)
	if err := cmdReplay(repo, opt); err == nil {
		t.Error("replay without -trace accepted")
	}
	opt.traceFile = filepath.Join(t.TempDir(), "missing.jsonl")
	if err := cmdReplay(repo, opt); err == nil {
		t.Error("replay of missing trace accepted")
	}
	empty := filepath.Join(t.TempDir(), "empty.jsonl")
	os.WriteFile(empty, nil, 0o644)
	opt.traceFile = empty
	if err := cmdReplay(repo, opt); err == nil {
		t.Error("replay of empty trace accepted")
	}
}

func TestLoadRepoFromFile(t *testing.T) {
	repo := testRepo(t)
	path := filepath.Join(t.TempDir(), "repo.jsonl")
	if err := repo.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	opt, _ := testOptions(t)
	opt.repoFile = path
	loaded, err := loadRepo(opt)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != repo.Len() {
		t.Fatalf("loaded %d packages, want %d", loaded.Len(), repo.Len())
	}
}

func TestCmdFig6(t *testing.T) {
	opt, buf := testOptions(t)
	opt.uniqueJobs = 10
	opt.reps = 1
	if err := cmdFig6(testRepo(t), opt); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "efficiency vs cache size") || !strings.Contains(out, "efficiency vs unique job count") {
		t.Error("fig6 missing panels")
	}
}

func TestCmdDedup(t *testing.T) {
	opt, buf := testOptions(t)
	opt.uniqueJobs = 20
	if err := cmdDedup(testRepo(t), opt); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "naive per-spec") || !strings.Contains(out, "landlord merged") {
		t.Error("dedup missing comparison rows")
	}
}

func TestCmdLatency(t *testing.T) {
	opt, buf := testOptions(t)
	opt.uniqueJobs = 15
	if err := cmdLatency(testRepo(t), opt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "mean prep/job") {
		t.Error("latency missing columns")
	}
}

func TestCmdCampaign(t *testing.T) {
	opt, buf := testOptions(t)
	opt.uniqueJobs = 40
	if err := cmdCampaign(testRepo(t), opt); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"alice", "atlas", "cms", "lhcb", "serving multiple experiments"} {
		if !strings.Contains(out, want) {
			t.Errorf("campaign missing %q", want)
		}
	}
}

func TestCmdZone(t *testing.T) {
	opt, buf := testOptions(t)
	opt.uniqueJobs = 10
	opt.reps = 1
	if err := cmdZone(testRepo(t), opt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "cache eff at 0.75") {
		t.Error("zone missing columns")
	}
}

func TestCmdDot(t *testing.T) {
	opt, buf := testOptions(t)
	opt.uniqueJobs = 40
	if err := cmdDot(testRepo(t), opt); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "digraph repo {") {
		t.Error("dot output malformed")
	}
}
