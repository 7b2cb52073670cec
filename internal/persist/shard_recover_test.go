package persist

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// Sharded crash recovery.
//
// The sharded cache shares one Store: every shard's commit hook
// appends to the same WAL, so the log is a merge of per-shard
// subsequences each strictly monotone in Seq, with arbitrary
// cross-shard interleaving. These tests pin that RecoverSharded
// rebuilds the exact sharded state from that merged log: strided IDs
// route every record and checkpoint image back to its owning shard
// (ImageID mod shards) with no format change.

func shardedConfig(shards int) core.Config {
	cfg := testConfig()
	cfg.Shards = shards
	return cfg
}

// TestRecoverShardedWALOnly replays a pure WAL (no checkpoint) into a
// fresh sharded cache and requires the merged export byte-identical to
// the live cache that wrote it: per-shard insert replay re-derives the
// same strided NextID values, so even the ID allocator state survives
// exactly.
func TestRecoverShardedWALOnly(t *testing.T) {
	repo := testRepo(t, 24, 10)
	cfg := shardedConfig(4)
	dir := t.TempDir()
	st, err := Open(dir, Options{SyncPolicy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	live, rep, err := st.RecoverSharded(repo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CheckpointSeq != 0 || rep.RecordsReplayed != 0 {
		t.Fatalf("empty dir recovery not empty: %+v", rep)
	}

	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 120; i++ {
		if _, err := live.Request(randSpec(rng, repo.Len())); err != nil {
			t.Fatal(err)
		}
	}
	want := stateJSON(t, live.ExportState())
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	mgr, rep2, err := st2.RecoverSharded(repo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.RecordsReplayed == 0 {
		t.Fatal("no WAL records replayed")
	}
	if got := stateJSON(t, mgr.ExportState()); got != want {
		t.Errorf("recovered sharded state != live state:\n got %s\nwant %s", got, want)
	}
	if err := mgr.CheckIntegrity(); err != nil {
		t.Errorf("recovered integrity: %v", err)
	}
}

// TestRecoverShardedCheckpointed restarts from a mid-stream merged
// checkpoint plus the WAL tail. Importing a merged checkpoint aligns
// each shard's NextID up into its residue class, so the allocator
// watermark may legitimately exceed the live cache's (never shrink —
// IDs must not be reused); everything else — images, stamps, clock,
// stats — must match exactly.
func TestRecoverShardedCheckpointed(t *testing.T) {
	repo := testRepo(t, 24, 10)
	cfg := shardedConfig(4)
	dir := t.TempDir()
	st, err := Open(dir, Options{SegmentBytes: 512, SyncPolicy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	live, _, err := st.RecoverSharded(repo, cfg)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 90; i++ {
		if _, err := live.Request(randSpec(rng, repo.Len())); err != nil {
			t.Fatal(err)
		}
		if (i+1)%30 == 0 {
			if _, err := st.Checkpoint(live.ExportState()); err != nil {
				t.Fatalf("Checkpoint after %d requests: %v", i+1, err)
			}
		}
	}
	liveState := live.ExportState()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	mgr, rep, err := st2.RecoverSharded(repo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CheckpointSeq == 0 {
		t.Fatal("recovery did not load a checkpoint")
	}
	gotState := mgr.ExportState()
	if gotState.NextID < liveState.NextID {
		t.Errorf("recovered NextID %d < live %d: IDs could be reused", gotState.NextID, liveState.NextID)
	}
	gotState.NextID, liveState.NextID = 0, 0
	if got, want := stateJSON(t, gotState), stateJSON(t, liveState); got != want {
		t.Errorf("recovered sharded state != live state (NextID normalized):\n got %s\nwant %s", got, want)
	}
	if err := mgr.CheckIntegrity(); err != nil {
		t.Errorf("recovered integrity: %v", err)
	}
}

// TestRecoverShardedCrossCount reloads a directory written by a
// shards=1 daemon into a shards=4 cache (and back): strided routing by
// ImageID mod shards accepts any historical allocation pattern, so
// every image survives the reload — only future hit locality changes
// when the count changes.
func TestRecoverShardedCrossCount(t *testing.T) {
	repo := testRepo(t, 24, 10)
	dir := t.TempDir()
	st, err := Open(dir, Options{SyncPolicy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	live, _, err := st.RecoverSharded(repo, shardedConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(37))
	for i := 0; i < 80; i++ {
		if _, err := live.Request(randSpec(rng, repo.Len())); err != nil {
			t.Fatal(err)
		}
	}
	images, bytes := live.Len(), live.TotalData()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	wide, _, err := st2.RecoverSharded(repo, shardedConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if wide.Len() != images || wide.TotalData() != bytes {
		t.Errorf("cross-count reload lost state: %d images/%d bytes, want %d/%d",
			wide.Len(), wide.TotalData(), images, bytes)
	}
	if err := wide.CheckIntegrity(); err != nil {
		t.Errorf("cross-count integrity: %v", err)
	}
	// The reloaded cache must keep serving.
	for i := 0; i < 40; i++ {
		if _, err := wide.Request(randSpec(rng, repo.Len())); err != nil {
			t.Fatal(err)
		}
	}
	if err := wide.CheckIntegrity(); err != nil {
		t.Errorf("post-reload integrity: %v", err)
	}
}

// writeShardedState is the run behind the sharded golden directories:
// a 2-shard cache over testRepo(24, 10) serves 150 seeded 1-3 package
// specs, checkpointing after the 100th, and closes.
func writeShardedState(t *testing.T, dir string) {
	t.Helper()
	repo := testRepo(t, 24, 10)
	st, err := Open(dir, Options{SyncPolicy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	live, _, err := st.RecoverSharded(repo, shardedConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 150; i++ {
		if _, err := live.Request(randSpec(rng, repo.Len())); err != nil {
			t.Fatal(err)
		}
		if i+1 == 100 {
			if _, err := st.Checkpoint(live.ExportState()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverShardedGoldenStateDir: each golden directory holds the
// files writeShardedState left, and state.json the state its commit
// recovered from them. testdata/state_sharded2 was written when the
// shard route was still computed by internal/core's own copy of the
// fold and each shard evicted under half the capacity;
// testdata/state_sharded2_onebudget was written under the one capacity
// both shards share. Recovering either directory today must give its
// state byte for byte — images, ids, clock and stats — and every insert
// its segment logs must route, under today's fold, to the shard its id
// names. The same run today must write the one-budget directory's
// segment byte for byte and checkpoint the same state: that pins the
// sharded writer's decisions, eviction and record encoding.
func TestRecoverShardedGoldenStateDir(t *testing.T) {
	for _, golden := range []struct {
		dir     string
		current bool // today's writeShardedState writes these files
	}{
		{"testdata/state_sharded2", false},
		{"testdata/state_sharded2_onebudget", true},
	} {
		t.Run(filepath.Base(golden.dir), func(t *testing.T) {
			checkShardedGolden(t, golden.dir, golden.current)
		})
	}
}

func checkShardedGolden(t *testing.T, golden string, current bool) {
	want, err := os.ReadFile(filepath.Join(golden, "state.json"))
	if err != nil {
		t.Fatal(err)
	}
	names, err := filepath.Glob(filepath.Join(golden, "*-*"))
	if err != nil || len(names) < 2 {
		t.Fatalf("golden directory holds %d state files (%v), want a checkpoint and a segment", len(names), err)
	}
	dir := t.TempDir()
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(name)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	mgr, rep, err := st.RecoverSharded(testRepo(t, 24, 10), shardedConfig(2))
	if err != nil {
		t.Fatalf("RecoverSharded: %v", err)
	}
	if rep.CheckpointSeq == 0 || rep.RecordsSkipped != 0 || len(rep.Warnings) != 0 {
		t.Errorf("recovery of the golden directory was not clean: %s %v", rep, rep.Warnings)
	}
	if got := stateJSON(t, mgr.ExportState()); got != string(want) {
		t.Errorf("recovered state differs from the writer's:\n got %s\nwant %s", got, want)
	}
	if err := mgr.CheckIntegrity(); err != nil {
		t.Errorf("recovered cache fails its invariants: %v", err)
	}

	wal, err := os.ReadFile(filepath.Join(golden, "wal-0000000000000002.log"))
	if err != nil {
		t.Fatal(err)
	}
	muts, err := ReadSegment(bytes.NewReader(wal))
	if err != nil {
		t.Fatal(err)
	}
	inserts := 0
	for _, mut := range muts {
		if mut.Kind != core.MutInsert {
			continue
		}
		inserts++
		if got := core.ShardRoute(mut.Packages, 2); uint64(got) != mut.ImageID%2 {
			t.Errorf("insert of image %d routes to shard %d today, its id names shard %d", mut.ImageID, got, mut.ImageID%2)
		}
	}
	if inserts == 0 {
		t.Error("the golden segment logs no insert")
	}
	if !current {
		return
	}

	again := t.TempDir()
	writeShardedState(t, again)
	// A checkpoint stamps its save time, so it is compared by content.
	for _, name := range names {
		base := filepath.Base(name)
		if filepath.Ext(base) == ".ckpt" {
			old, err1 := ReadCheckpointFile(name)
			now, err2 := ReadCheckpointFile(filepath.Join(again, base))
			if err1 != nil || err2 != nil || now.WALSeq != old.WALSeq || stateJSON(t, now.State) != stateJSON(t, old.State) {
				t.Errorf("%s: the same run today checkpoints a different state (%v, %v)", base, err1, err2)
			}
			continue
		}
		old, _ := os.ReadFile(name)
		now, err := os.ReadFile(filepath.Join(again, base))
		if err != nil || !bytes.Equal(now, old) {
			t.Errorf("%s: the same run today writes %d different bytes (%v)", base, len(now), err)
		}
	}
}
