package persist

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// Recovery into one cache.
//
// The node's cache is one Manager behind one lock pair, whose WAL
// holds its mutations in Seq order. These tests pin that RecoverSharded
// rebuilds the exact cache from that log, with and without a
// checkpoint, and that a state directory written while the cache was
// partitioned into shards — strided image ids, per-shard subsequences
// interleaved out of Seq order in one WAL — recovers into one cache,
// records applied in file order: images of different shards were
// disjoint, so their records commute.

// TestRecoverShardedWALOnly replays a pure WAL (no checkpoint) into a
// fresh cache and requires its export byte-identical to the live cache
// that wrote it, the ID allocator included.
func TestRecoverShardedWALOnly(t *testing.T) {
	repo := testRepo(t, 24, 10)
	cfg := testConfig()
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
		t.Errorf("recovered state != live state:\n got %s\nwant %s", got, want)
	}
	if err := mgr.CheckIntegrity(); err != nil {
		t.Errorf("recovered integrity: %v", err)
	}
}

// TestRecoverShardedCheckpointed restarts from a mid-stream checkpoint
// plus the WAL tail: images, stamps, clock, ID allocator and stats must
// all match the live cache exactly.
func TestRecoverShardedCheckpointed(t *testing.T) {
	repo := testRepo(t, 24, 10)
	cfg := testConfig()
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
	want := stateJSON(t, live.ExportState())
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
	if got := stateJSON(t, mgr.ExportState()); got != want {
		t.Errorf("recovered state != live state:\n got %s\nwant %s", got, want)
	}
	if err := mgr.CheckIntegrity(); err != nil {
		t.Errorf("recovered integrity: %v", err)
	}
}

// shardedGoldens are the state directories a 2-shard cache over
// testRepo(24, 10) wrote, serving 150 seeded 1-3 package specs and
// checkpointing after the 100th: testdata/state_sharded2 while each
// shard evicted under half the capacity, and
// testdata/state_sharded2_onebudget under one capacity both shards
// shared. Shard i of 2 allocated the ids congruent to i mod 2. Each
// directory's state.json is the state that writer held.
var shardedGoldens = []string{"testdata/state_sharded2", "testdata/state_sharded2_onebudget"}

// goldenWant is the state a sharded golden directory must recover to:
// its state.json with next_id set to got's. The writer's next_id is the
// larger of its shards' strided allocators, which may stand above the
// next id one cache allocates; got's must lie at or below it and above
// every id the directory ever issued — the checkpoint's next_id and
// each insert the segment logs — so no id is ever reused.
func goldenWant(t *testing.T, golden string, got core.ManagerState) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(golden, "state.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want core.ManagerState
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if stateJSON(t, want) != string(data) {
		t.Fatalf("%s/state.json is not in canonical form", golden)
	}
	ckpt, err := ReadCheckpointFile(filepath.Join(golden, "checkpoint-0000000000000002.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	issued := ckpt.State.NextID
	wal, err := os.ReadFile(filepath.Join(golden, "wal-0000000000000002.log"))
	if err != nil {
		t.Fatal(err)
	}
	muts, err := ReadSegment(bytes.NewReader(wal))
	if err != nil {
		t.Fatal(err)
	}
	for _, mut := range muts {
		if mut.Kind == core.MutInsert {
			issued = max(issued, mut.ImageID+1)
		}
	}
	if got.NextID < issued || got.NextID > want.NextID {
		t.Errorf("%s: recovered next_id %d outside [%d, the writer's %d]", golden, got.NextID, issued, want.NextID)
	}
	want.NextID = got.NextID
	return stateJSON(t, want)
}

// recoverGolden copies a golden directory's state files into a fresh
// directory and recovers them into one cache.
func recoverGolden(t *testing.T, golden string) (*core.ShardedManager, *RecoveryReport, *Store) {
	t.Helper()
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
	t.Cleanup(func() { st.Close() })
	mgr, rep, err := st.RecoverSharded(testRepo(t, 24, 10), testConfig())
	if err != nil {
		t.Fatalf("RecoverSharded: %v", err)
	}
	return mgr, rep, st
}

// TestRecoverShardedCrossCount: a directory written at two shards
// recovers into one cache that keeps serving. The allocator continues
// above every recovered id, so an insert never reuses a strided id
// still live, and forty further requests and a restart from the
// cache's own checkpoint keep it whole.
func TestRecoverShardedCrossCount(t *testing.T) {
	for _, golden := range shardedGoldens {
		t.Run(filepath.Base(golden), func(t *testing.T) {
			mgr, _, st := recoverGolden(t, golden)
			var maxID uint64
			for _, img := range mgr.Images() {
				maxID = max(maxID, img.ID)
			}
			rng := rand.New(rand.NewSource(37))
			inserted := false
			for i := 0; i < 40; i++ {
				res, err := mgr.Request(randSpec(rng, 24))
				if err != nil {
					t.Fatal(err)
				}
				if res.Op == core.OpInsert && !inserted {
					inserted = true
					if res.ImageID <= maxID {
						t.Errorf("the first insert after recovery got id %d, not above the recovered %d", res.ImageID, maxID)
					}
				}
				if err := mgr.CheckIntegrity(); err != nil {
					t.Fatalf("request %d after recovery: %v", i, err)
				}
			}
			if !inserted {
				t.Fatal("forty requests inserted nothing")
			}
			if _, err := st.Checkpoint(mgr.ExportState()); err != nil {
				t.Fatal(err)
			}
			want := stateJSON(t, mgr.ExportState())
			st2, err := Open(st.Dir(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer st2.Close()
			again, _, err := st2.RecoverSharded(testRepo(t, 24, 10), testConfig())
			if err != nil {
				t.Fatal(err)
			}
			if got := stateJSON(t, again.ExportState()); got != want {
				t.Errorf("restart from the cache's own checkpoint:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestRecoverShardedGoldenStateDir: recovering either sharded golden
// directory into one cache gives its writer's state byte for byte —
// images, ids, versions, clock and stats; the allocator as goldenWant
// allows — and a cache that passes CheckIntegrity.
func TestRecoverShardedGoldenStateDir(t *testing.T) {
	for _, golden := range shardedGoldens {
		t.Run(filepath.Base(golden), func(t *testing.T) {
			mgr, rep, _ := recoverGolden(t, golden)
			if rep.CheckpointSeq == 0 || rep.RecordsSkipped != 0 || len(rep.Warnings) != 0 {
				t.Errorf("recovery of the golden directory was not clean: %s %v", rep, rep.Warnings)
			}
			st := mgr.ExportState()
			if got, want := stateJSON(t, st), goldenWant(t, golden, st); got != want {
				t.Errorf("recovered state differs from the writer's:\n got %s\nwant %s", got, want)
			}
			if err := mgr.CheckIntegrity(); err != nil {
				t.Errorf("recovered cache fails its invariants: %v", err)
			}
		})
	}
}
