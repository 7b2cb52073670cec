package persist

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/pkggraph"
	"repro/internal/spec"
	"repro/internal/telemetry"
)

// testRepo builds n independent packages of size bytes each.
func testRepo(t *testing.T, n int, size int64) *pkggraph.Repo {
	t.Helper()
	pkgs := make([]pkggraph.Package, n)
	for i := range pkgs {
		pkgs[i] = pkggraph.Package{
			ID: pkggraph.PkgID(i), Name: "pkg", Version: fmt.Sprintf("v%d", i), Platform: "p",
			Tier: pkggraph.TierLibrary, Size: size, FileCount: 1,
		}
	}
	r, err := pkggraph.New(pkgs)
	if err != nil {
		t.Fatalf("pkggraph.New: %v", err)
	}
	return r
}

func testConfig() core.Config {
	return core.Config{Alpha: 0.5, Capacity: 160}
}

// randSpec draws 1-3 distinct package IDs.
func randSpec(rng *rand.Rand, n int) spec.Spec {
	k := 1 + rng.Intn(3)
	ids := make([]pkggraph.PkgID, 0, k)
	for len(ids) < k {
		ids = append(ids, pkggraph.PkgID(rng.Intn(n)))
	}
	return spec.New(ids) // dedups, so the spec may end up shorter
}

func stateJSON(t *testing.T, st core.ManagerState) string {
	t.Helper()
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatalf("marshal state: %v", err)
	}
	return string(b)
}

// walRun is a recorded workload: the live persisted manager's final
// state, the WAL bytes it produced, and the reference state after each
// record prefix (prefixJSON[r] = state with the first r records applied).
type walRun struct {
	repo       *pkggraph.Repo
	cfg        core.Config
	data       []byte
	muts       []core.Mutation
	bounds     []int // bounds[r] = byte offset after record r; bounds[0] = 0
	prefixJSON []string
	finalJSON  string
}

// buildWALRun drives the same request stream (with periodic prune
// passes) through a persisted manager and a plain in-memory reference,
// checks they agree, and precomputes the reference state at every
// record prefix of the WAL.
func buildWALRun(t *testing.T, requests, pruneEvery int) *walRun {
	t.Helper()
	repo := testRepo(t, 24, 10)
	cfg := testConfig()

	dir := t.TempDir()
	st, err := Open(dir, Options{SyncPolicy: FsyncNever})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	live, rep, err := st.RecoverSharded(repo, cfg)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rep.RecordsReplayed != 0 || rep.CheckpointSeq != 0 {
		t.Fatalf("fresh dir recovered state: %+v", rep)
	}
	ref, err := core.NewManager(repo, cfg)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}

	rng := rand.New(rand.NewSource(7))
	for i := 0; i < requests; i++ {
		s := randSpec(rng, repo.Len())
		if _, err := live.Request(s); err != nil {
			t.Fatalf("live request %d: %v", i, err)
		}
		if _, err := ref.Request(s); err != nil {
			t.Fatalf("ref request %d: %v", i, err)
		}
		if pruneEvery > 0 && (i+1)%pruneEvery == 0 {
			if _, err := live.Prune(0.5, 1); err != nil {
				t.Fatalf("live prune: %v", err)
			}
			if _, err := ref.Prune(0.5, 1); err != nil {
				t.Fatalf("ref prune: %v", err)
			}
		}
	}
	if err := st.Err(); err != nil {
		t.Fatalf("store error after stream: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	data, err := os.ReadFile(st.segPath(1))
	if err != nil {
		t.Fatalf("reading WAL: %v", err)
	}
	muts, err := ReadSegment(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("decoding full WAL: %v", err)
	}
	if len(muts) == 0 {
		t.Fatal("empty WAL")
	}

	// Re-encode to learn record boundaries, and verify the encoding is
	// byte-identical to what the store wrote.
	run := &walRun{repo: repo, cfg: cfg, data: data, muts: muts, bounds: []int{0}}
	var reenc []byte
	for _, mut := range muts {
		reenc, err = EncodeRecord(reenc, mut)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		run.bounds = append(run.bounds, len(reenc))
	}
	if !bytes.Equal(reenc, data) {
		t.Fatal("re-encoded WAL differs from on-disk bytes")
	}

	// Reference state after each record prefix.
	replay, err := core.NewSharded(repo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	run.prefixJSON = []string{stateJSON(t, replay.ExportState())}
	for i, mut := range muts {
		if err := replay.ApplyMutation(mut); err != nil {
			t.Fatalf("replaying record %d (%+v): %v", i, mut, err)
		}
		run.prefixJSON = append(run.prefixJSON, stateJSON(t, replay.ExportState()))
	}

	// The full replay, the live persisted manager, and the untouched
	// reference manager must all agree exactly.
	run.finalJSON = run.prefixJSON[len(muts)]
	if got := stateJSON(t, live.ExportState()); got != run.finalJSON {
		t.Fatalf("live state != full replay:\nlive   %s\nreplay %s", got, run.finalJSON)
	}
	if got := stateJSON(t, ref.ExportState()); got != run.finalJSON {
		t.Fatalf("reference state != full replay:\nref    %s\nreplay %s", got, run.finalJSON)
	}
	return run
}

// TestCrashRecoveryEveryTruncation is the core durability property:
// for EVERY byte offset t, recovering from the first t bytes of the
// WAL yields exactly the reference state at the last record boundary
// <= t. Simulates kill -9 at every possible moment.
func TestCrashRecoveryEveryTruncation(t *testing.T) {
	run := buildWALRun(t, 18, 6)

	// recordsAt[t] = records fully contained in the first t bytes.
	recordsAt := make([]int, len(run.data)+1)
	r := 0
	for cut := 0; cut <= len(run.data); cut++ {
		if r+1 < len(run.bounds) && run.bounds[r+1] <= cut {
			r++
		}
		recordsAt[cut] = r
	}

	dir := t.TempDir()
	walPath := filepath.Join(dir, "wal-0000000000000001.log")
	for cut := 0; cut <= len(run.data); cut++ {
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(walPath, run.data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		mgr, rep, err := st.RecoverSharded(run.repo, run.cfg)
		if err != nil {
			t.Fatalf("cut %d: Recover: %v", cut, err)
		}
		want := run.prefixJSON[recordsAt[cut]]
		if got := stateJSON(t, mgr.ExportState()); got != want {
			t.Fatalf("cut %d (%d records): recovered state mismatch:\n got %s\nwant %s",
				cut, recordsAt[cut], got, want)
		}
		torn := cut != run.bounds[recordsAt[cut]]
		if torn != rep.TornTail {
			t.Fatalf("cut %d: TornTail = %v, want %v", cut, rep.TornTail, torn)
		}
		st.Close()
	}
}

// TestCrashRecoveryEveryBitFlip flips every byte of the WAL in turn;
// recovery must never fail and must always land on some record-prefix
// state (the flipped record and everything after it are discarded).
func TestCrashRecoveryEveryBitFlip(t *testing.T) {
	run := buildWALRun(t, 10, 5)
	prefixes := make(map[string]bool, len(run.prefixJSON))
	for _, s := range run.prefixJSON {
		prefixes[s] = true
	}

	dir := t.TempDir()
	walPath := filepath.Join(dir, "wal-0000000000000001.log")
	for off := range run.data {
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		mutated := append([]byte(nil), run.data...)
		mutated[off] ^= 0xFF
		if err := os.WriteFile(walPath, mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		mgr, rep, err := st.RecoverSharded(run.repo, run.cfg)
		if err != nil {
			t.Fatalf("flip at %d: Recover: %v", off, err)
		}
		if got := stateJSON(t, mgr.ExportState()); !prefixes[got] {
			t.Fatalf("flip at %d: recovered state is not a record prefix: %s", off, got)
		}
		if len(rep.Warnings) == 0 {
			t.Fatalf("flip at %d: no warning reported", off)
		}
		st.Close()
	}
}

// TestTornTailAppend simulates a crash mid-append: valid WAL plus the
// first half of one more frame. Recovery keeps every whole record.
func TestTornTailAppend(t *testing.T) {
	run := buildWALRun(t, 8, 0)
	extra, err := EncodeRecord(nil, core.Mutation{Kind: core.MutDelete, ImageID: 0})
	if err != nil {
		t.Fatal(err)
	}
	torn := append(append([]byte(nil), run.data...), extra[:len(extra)/2]...)

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal-0000000000000001.log"), torn, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	mgr, rep, err := st.RecoverSharded(run.repo, run.cfg)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if !rep.TornTail {
		t.Errorf("TornTail not reported: %+v", rep)
	}
	if rep.RecordsReplayed != len(run.muts) {
		t.Errorf("replayed %d records, want %d", rep.RecordsReplayed, len(run.muts))
	}
	if got := stateJSON(t, mgr.ExportState()); got != run.finalJSON {
		t.Errorf("state mismatch after torn tail:\n got %s\nwant %s", got, run.finalJSON)
	}
}

// TestCheckpointCompaction checkpoints mid-stream with tiny segments,
// then verifies rotation happened, covered files were deleted, and a
// restart recovers the exact reference state from checkpoint + tail.
func TestCheckpointCompaction(t *testing.T) {
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
	ref, err := core.NewManager(repo, cfg)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(11))
	var lastCkpt CheckpointInfo
	for i := 0; i < 70; i++ {
		s := randSpec(rng, repo.Len())
		if _, err := live.Request(s); err != nil {
			t.Fatal(err)
		}
		if _, err := ref.Request(s); err != nil {
			t.Fatal(err)
		}
		if (i+1)%20 == 0 {
			info, err := st.Checkpoint(live.ExportState())
			if err != nil {
				t.Fatalf("Checkpoint after %d requests: %v", i+1, err)
			}
			if info.Seq <= lastCkpt.Seq {
				t.Fatalf("checkpoint seq did not advance: %+v then %+v", lastCkpt, info)
			}
			lastCkpt = info
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Covered files must be gone: no segment or checkpoint older than
	// the last checkpoint's sequence.
	segs, ckpts, err := st.scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(ckpts) != 1 || ckpts[0] != lastCkpt.Seq {
		t.Fatalf("checkpoints on disk = %v, want exactly [%d]", ckpts, lastCkpt.Seq)
	}
	for _, seq := range segs {
		if seq < lastCkpt.Seq {
			t.Fatalf("segment %d predates checkpoint %d but was not collected", seq, lastCkpt.Seq)
		}
	}
	if len(segs) < 2 {
		t.Fatalf("expected multiple live segments from 512-byte rotation, got %v", segs)
	}

	// Restart.
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	mgr, rep, err := st2.RecoverSharded(repo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CheckpointSeq != lastCkpt.Seq {
		t.Errorf("recovered from checkpoint %d, want %d", rep.CheckpointSeq, lastCkpt.Seq)
	}
	if rep.RecordsReplayed == 0 {
		t.Error("no WAL tail replayed; the 10 post-checkpoint requests are lost")
	}
	if got, want := stateJSON(t, mgr.ExportState()), stateJSON(t, ref.ExportState()); got != want {
		t.Errorf("recovered state mismatch:\n got %s\nwant %s", got, want)
	}
}

// TestRestartsLeaveOneEmptySegment restarts a store six times with no
// traffic after its first life: each start opens a segment for its
// commits, and the empty one the previous start left must be replaced,
// not kept beside it. The records written before stay recoverable.
func TestRestartsLeaveOneEmptySegment(t *testing.T) {
	repo := testRepo(t, 24, 10)
	dir := t.TempDir()
	var want string
	for life := 0; life < 7; life++ {
		st, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		mgr, _, err := st.RecoverSharded(repo, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		if life == 0 {
			if _, err := mgr.Request(spec.New([]pkggraph.PkgID{1, 2})); err != nil {
				t.Fatal(err)
			}
			want = stateJSON(t, mgr.ExportState())
		} else if got := stateJSON(t, mgr.ExportState()); got != want {
			t.Fatalf("restart %d recovered %s, want %s", life, got, want)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var empty []string
	for _, e := range entries {
		if fi, err := e.Info(); err == nil && strings.HasPrefix(e.Name(), segPrefix) && fi.Size() == 0 {
			empty = append(empty, e.Name())
		}
	}
	if len(empty) > 1 {
		t.Fatalf("six restarts without traffic left %d empty segments: %v", len(empty), empty)
	}
}

// segmentFrames reads the WAL segment at path: the bytes of its intact
// frames, and its length on disk. Whatever follows the frames must be
// zeros.
func segmentFrames(t *testing.T, path string) (frames, size int64) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(bytes.NewReader(b))
	for {
		payload, err := readFrame(br, nil)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("%s: frame at offset %d: %v", path, frames, err)
		}
		frames += frameHeaderSize + int64(len(payload))
	}
	if !allZero(b[frames:]) {
		t.Fatalf("%s: nonzero bytes follow its %d bytes of frames", path, frames)
	}
	return frames, int64(len(b))
}

// TestLogBytes pins the facts the server's size-triggered compaction
// weighs: the tail grows by exactly the bytes appended to the WAL, a
// checkpoint resets it and reports its own size, and a restart starts
// from the bytes it replayed and the size of the checkpoint it loaded.
func TestLogBytes(t *testing.T) {
	repo := testRepo(t, 24, 10)
	cfg := testConfig()
	dir := t.TempDir()
	st, err := Open(dir, Options{SegmentBytes: 512, SyncPolicy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	live, rep, err := st.RecoverSharded(repo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tail, ckpt, segment := st.LogBytes(); tail != 0 || ckpt != 0 || segment != 512 || rep.TailBytes != 0 {
		t.Fatalf("fresh store: LogBytes = %d, %d, %d and TailBytes %d, want 0, 0, 512 and 0", tail, ckpt, segment, rep.TailBytes)
	}
	// walBytes sums the intact frames of the segments on disk: every
	// byte appended since the last checkpoint, which deleted the ones
	// before it. On disk a sealed segment is exactly its frames, and the
	// open one its frames and at most one step of zeros.
	walBytes := func() int64 {
		segs, _, err := st.scan()
		if err != nil {
			t.Fatal(err)
		}
		var n int64
		for _, seq := range segs {
			frames, size := segmentFrames(t, st.segPath(seq))
			if open := st.f != nil && seq == st.seq; !open && size != frames || size-frames > zeroStep {
				t.Fatalf("segment %d (open: %v) holds %d bytes of frames in %d bytes on disk", seq, open, frames, size)
			}
			n += frames
		}
		return n
	}
	rng := rand.New(rand.NewSource(3))
	drive := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := live.Request(randSpec(rng, repo.Len())); err != nil {
				t.Fatal(err)
			}
		}
	}

	drive(30)
	if tail, _, _ := st.LogBytes(); tail == 0 || tail != walBytes() {
		t.Fatalf("tail = %d after 30 requests, want the %d bytes on disk", tail, walBytes())
	}
	info, err := st.Checkpoint(live.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	if tail, ckpt, _ := st.LogBytes(); tail != 0 || ckpt != info.Bytes || ckpt == 0 {
		t.Fatalf("after a %d-byte checkpoint LogBytes = %d, %d, want 0, %d", info.Bytes, tail, ckpt, info.Bytes)
	}
	drive(30)
	want := walBytes()
	if tail, _, _ := st.LogBytes(); tail != want {
		t.Fatalf("tail = %d after 30 more requests, want the %d bytes on disk", tail, want)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if got := walBytes(); got != want {
		t.Fatalf("the closed store's segments hold %d bytes of frames, want %d", got, want)
	}

	st2, err := Open(dir, Options{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if _, rep, err = st2.RecoverSharded(repo, cfg); err != nil {
		t.Fatal(err)
	}
	if rep.TailBytes != want {
		t.Errorf("recovery replayed %d bytes, want the %d-byte tail", rep.TailBytes, want)
	}
	if !strings.Contains(rep.String(), fmt.Sprintf("(%d bytes)", want)) {
		t.Errorf("recovery line %q does not name the %d bytes replayed", rep, want)
	}
	if tail, ckpt, _ := st2.LogBytes(); tail != want || ckpt != info.Bytes {
		t.Errorf("restart: LogBytes = %d, %d, want the replayed %d and the loaded checkpoint's %d", tail, ckpt, want, info.Bytes)
	}
}

// TestRecoverFallsBackPastBadCheckpoints plants two newer, bad
// checkpoints (one unreadable, one referencing unknown packages) above
// a good one; recovery must skip both with warnings and land on the
// good checkpoint's exact state.
func TestRecoverFallsBackPastBadCheckpoints(t *testing.T) {
	repo := testRepo(t, 24, 10)
	cfg := testConfig()
	dir := t.TempDir()
	st, err := Open(dir, Options{SyncPolicy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	live, _, err := st.RecoverSharded(repo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 30; i++ {
		if _, err := live.Request(randSpec(rng, repo.Len())); err != nil {
			t.Fatal(err)
		}
	}
	want := stateJSON(t, live.ExportState())
	if _, err := st.Checkpoint(live.ExportState()); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Newer checkpoint with garbage bytes.
	if err := os.WriteFile(filepath.Join(dir, "checkpoint-0000000000000090.ckpt"),
		[]byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Newer checkpoint that frames valid JSON but cannot be imported.
	if err := WriteCheckpointFile(filepath.Join(dir, "checkpoint-0000000000000091.ckpt"), Checkpoint{
		SavedUnixNano: 1,
		State: core.ManagerState{Images: []core.ImageSnapshot{
			{ID: 1, Packages: []string{"no/such/package"}, LastUse: 1},
		}},
	}); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	mgr, rep, err := st2.RecoverSharded(repo, cfg)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(rep.Warnings) < 2 {
		t.Errorf("expected warnings for both bad checkpoints, got %q", rep.Warnings)
	}
	if got := stateJSON(t, mgr.ExportState()); got != want {
		t.Errorf("state mismatch after checkpoint fallback:\n got %s\nwant %s", got, want)
	}
	for _, w := range rep.Warnings {
		if strings.Contains(w, "91 rejected") {
			return
		}
	}
	t.Errorf("no 'rejected' warning for unimportable checkpoint 91: %q", rep.Warnings)
}

// TestFsyncPolicies runs the same workload under each policy and
// verifies recovery is exact in all of them (in-process, the page
// cache makes all three equivalent; this exercises the sync paths).
func TestFsyncPolicies(t *testing.T) {
	for _, opts := range []Options{
		{SyncPolicy: FsyncAlways},
		{SyncPolicy: FsyncInterval, SyncInterval: time.Nanosecond},
		{SyncPolicy: FsyncNever},
	} {
		t.Run(opts.SyncPolicy.String(), func(t *testing.T) {
			repo := testRepo(t, 24, 10)
			cfg := testConfig()
			dir := t.TempDir()
			st, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			live, _, err := st.RecoverSharded(repo, cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(5))
			for i := 0; i < 12; i++ {
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
			mgr, _, err := st2.RecoverSharded(repo, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := stateJSON(t, mgr.ExportState()); got != want {
				t.Errorf("recovered state mismatch:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestStoreLifecycleErrors covers the guard rails: Commit before
// Recover, Recover twice, Checkpoint on a closed store.
func TestStoreLifecycleErrors(t *testing.T) {
	repo := testRepo(t, 4, 10)
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.Commit(core.Mutation{Kind: core.MutDelete, ImageID: 0})
	if st.Err() == nil {
		t.Error("Commit before Recover did not set the sticky error")
	}

	st2, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st2.RecoverSharded(repo, testConfig()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st2.RecoverSharded(repo, testConfig()); err == nil {
		t.Error("second Recover succeeded")
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := st2.Checkpoint(core.ManagerState{}); err == nil {
		t.Error("Checkpoint after Close succeeded")
	}
	st2.Commit(core.Mutation{Kind: core.MutDelete, ImageID: 0}) // must not panic
}

// TestRegisterMetrics smoke-tests the metric series end to end.
func TestRegisterMetrics(t *testing.T) {
	repo := testRepo(t, 8, 10)
	st, err := Open(t.TempDir(), Options{SyncPolicy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	live, rep, err := st.RecoverSharded(repo, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	st.RegisterMetrics(reg, rep)
	if _, err := live.Request(spec.New([]pkggraph.PkgID{0, 1})); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Checkpoint(live.ExportState()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, series := range []string{
		"landlord_persist_recovery_seconds",
		"landlord_persist_wal_records_total 1",
		"landlord_persist_checkpoints_total 1",
		"landlord_persist_checkpoint_age_seconds",
	} {
		if !strings.Contains(out, series) {
			t.Errorf("metrics output missing %q:\n%s", series, out)
		}
	}
}

// TestRecoveryOf10kImages is the scale gate from the issue: a
// checkpoint holding 10,000 images plus a 1,000-record WAL tail must
// recover in under 5 seconds.
func TestRecoveryOf10kImages(t *testing.T) {
	const nPkgs, nImages, nTail = 5000, 10000, 1000
	repo := testRepo(t, nPkgs, 10)
	cfg := core.Config{Alpha: 0.5} // unlimited capacity

	imgs := make([]core.ImageSnapshot, nImages)
	for i := range imgs {
		a := i % nPkgs
		b := (a + 1 + i/nPkgs) % nPkgs
		imgs[i] = core.ImageSnapshot{
			ID:       uint64(i),
			Packages: []string{repo.Package(pkggraph.PkgID(a)).Key(), repo.Package(pkggraph.PkgID(b)).Key()},
			LastUse:  uint64(i + 1),
		}
	}
	state := core.ManagerState{
		Images: imgs,
		NextID: nImages,
		Clock:  nImages,
		Stats:  core.Stats{Requests: nImages, Inserts: nImages},
	}

	dir := t.TempDir()
	st, err := Open(dir, Options{SyncPolicy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.RecoverSharded(repo, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Checkpoint(state); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nTail; i++ {
		st.Commit(core.Mutation{
			Kind: core.MutTouch, ImageID: uint64(i * 7 % nImages),
			LastUse: uint64(nImages + i + 1), RequestBytes: 20,
		})
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
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
		t.Fatalf("Recover: %v", err)
	}
	if mgr.Len() != nImages {
		t.Fatalf("recovered %d images, want %d", mgr.Len(), nImages)
	}
	if rep.RecordsReplayed != nTail {
		t.Fatalf("replayed %d records, want %d", rep.RecordsReplayed, nTail)
	}
	if rep.Duration > 5*time.Second {
		t.Fatalf("recovery of %d images took %v, budget 5s", nImages, rep.Duration)
	}
	t.Logf("recovered %d images + %d WAL records in %v", nImages, nTail, rep.Duration)
}

// TestGroupCommitConcurrent drives a ShardedManager backed by an
// FsyncAlways store from many goroutines, each acknowledging its
// requests only after WaitDurable — the server's request pipeline in
// miniature. It pins the two properties group commit must preserve:
//
//   - Ordering: the WAL on disk, read back after the run, replays to a
//     state byte-identical to the live manager's, proving concurrent
//     commits landed in linearization order.
//   - Amortization: every record became durable through a leader's
//     batched fsync (the batch-size histogram's observations sum to
//     the record count), and nothing was lost before Close.
func TestGroupCommitConcurrent(t *testing.T) {
	repo := testRepo(t, 24, 10)
	cfg := core.Config{Alpha: 0.5, Capacity: 160}
	dir := t.TempDir()
	st, err := Open(dir, Options{SyncPolicy: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	cm, rep, err := st.RecoverSharded(repo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	st.RegisterMetrics(reg, rep)

	const workers = 8
	const perWorker = 150
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 40))
			for i := 0; i < perWorker; i++ {
				if _, err := cm.Request(randSpec(rng, repo.Len())); err != nil {
					t.Errorf("worker %d request %d: %v", g, i, err)
					return
				}
				// Ack barrier: the request's mutations must be on stable
				// storage before this iteration completes.
				if err := st.WaitDurable(); err != nil {
					t.Errorf("worker %d WaitDurable: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if err := st.Err(); err != nil {
		t.Fatalf("store degraded: %v", err)
	}
	live := stateJSON(t, cm.ExportState())

	// Read the WAL back while the store is still open: WaitDurable
	// returned for every request, so every record is already in the
	// file (and fsynced) without any help from Close.
	data, err := os.ReadFile(st.segPath(1))
	if err != nil {
		t.Fatal(err)
	}
	muts, err := ReadSegment(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("WAL corrupt after concurrent commits: %v", err)
	}
	replay, err := core.NewManager(repo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, mut := range muts {
		if err := replay.ApplyMutation(mut); err != nil {
			t.Fatalf("replaying record %d (%+v): %v", i, mut, err)
		}
	}
	if got := stateJSON(t, replay.ExportState()); got != live {
		t.Fatalf("WAL replay != live state:\nreplay %s\n  live %s", got, live)
	}

	// Every record's durability was paid by a group-commit leader, and
	// the batch sizes account for exactly the records written.
	hist := reg.Histogram("landlord_persist_group_commit_records",
		"Records made durable per group-commit fsync",
		telemetry.ExponentialBuckets(1, 2, 10))
	if hist.Count() == 0 {
		t.Fatal("no group-commit fsyncs recorded")
	}
	if got, want := int64(hist.Sum()), int64(len(muts)); got != want {
		t.Errorf("batched records sum to %d, want %d (one per WAL record)", got, want)
	}
	t.Logf("%d records over %d fsyncs (mean batch %.1f)",
		len(muts), hist.Count(), hist.Sum()/float64(hist.Count()))

	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// And the canonical end-to-end check: recovery sees the same state.
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	m2, _, err := st2.RecoverSharded(repo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := stateJSON(t, m2.ExportState()); got != live {
		t.Errorf("recovered state != live state:\n got %s\nlive %s", got, live)
	}
}

// TestRecoverRefusesDeltasAfterHole pins the base-version rule: with
// one merge delta missing from the middle of the log, the later deltas
// of THAT image are refused (skipped and reported, never unioned into
// the wrong base), its touches still apply, and every other image
// recovers exactly as if nothing were missing.
func TestRecoverRefusesDeltasAfterHole(t *testing.T) {
	repo := testRepo(t, 24, 10)
	cfg := core.Config{Alpha: 0.75}
	dir := t.TempDir()
	st, err := Open(dir, Options{SyncPolicy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	live, _, err := st.RecoverSharded(repo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ids := func(v ...int) spec.Spec {
		out := make([]pkggraph.PkgID, len(v))
		for i, x := range v {
			out[i] = pkggraph.PkgID(x)
		}
		return spec.New(out)
	}
	// Two images grown by interleaved merges, then one hit on each.
	for i, s := range []spec.Spec{
		ids(0, 1, 2), ids(6, 7, 8),
		ids(0, 1, 3), ids(6, 7, 9),
		ids(0, 1, 4), ids(6, 7, 10),
		ids(0, 1, 5), ids(6, 7, 11),
		ids(0, 1), ids(6, 7),
	} {
		if _, err := live.Request(s); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(st.segPath(1))
	if err != nil {
		t.Fatal(err)
	}
	muts, err := ReadSegment(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	victim := muts[0].ImageID
	hole := -1
	var holed []byte
	for i, mut := range muts {
		if mut.Kind == core.MutMerge && len(mut.Packages) != 0 {
			t.Fatalf("record %d: merge logged with a full package list: %+v", i, mut)
		}
		if hole < 0 && mut.Kind == core.MutMerge && mut.ImageID == victim {
			hole = i
			continue
		}
		if holed, err = EncodeRecord(holed, mut); err != nil {
			t.Fatal(err)
		}
	}
	if got := live.Stats().Merges; hole < 0 || got != 6 {
		t.Fatalf("workload made %d merges (first into image %d at record %d), want 6", got, victim, hole)
	}

	dir2 := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir2, "wal-0000000000000001.log"), holed, 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	rec, rep, err := st2.RecoverSharded(repo, cfg)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rep.RecordsSkipped != 2 || rep.RecordsReplayed != len(muts)-3 {
		t.Errorf("skipped %d replayed %d, want 2 and %d (the victim's two later deltas refused): %v",
			rep.RecordsSkipped, rep.RecordsReplayed, len(muts)-3, rep.Warnings)
	}
	if len(rep.Warnings) != 2 || !strings.Contains(rep.Warnings[0], core.ErrDeltaBase.Error()) {
		t.Errorf("warnings do not name the refused deltas: %v", rep.Warnings)
	}
	if err := rec.CheckIntegrity(); err != nil {
		t.Errorf("recovered cache fails its invariants: %v", err)
	}
	want := map[uint64]core.ImageSnapshot{}
	for _, snap := range live.ExportState().Images {
		want[snap.ID] = snap
	}
	for _, snap := range rec.ExportState().Images {
		if snap.ID != victim {
			if !reflect.DeepEqual(snap, want[snap.ID]) {
				t.Errorf("untouched image %d recovered as %+v, want %+v", snap.ID, snap, want[snap.ID])
			}
			continue
		}
		// The victim keeps its insert-time contents and still takes the
		// final hit's stamp.
		if len(snap.Packages) != 3 || snap.Version != 0 || snap.LastUse != want[victim].LastUse {
			t.Errorf("victim image recovered as %+v, want its 3 inserted packages at version 0, last use %d", snap, want[victim].LastUse)
		}
	}
	if rec.Len() != 2 {
		t.Errorf("recovered %d images, want 2", rec.Len())
	}
}

// TestRecoverPreDeltaStateDir recovers a state directory written by the
// commit before merge deltas (testdata/state_pr15: a checkpoint plus a
// segment whose merge records carry the full post-merge list, with
// touches, inserts, deletes and splits between them; state.json is that
// process's final ExportState) and requires the byte-identical state.
func TestRecoverPreDeltaStateDir(t *testing.T) {
	const golden = "testdata/state_pr15"
	const segment = "wal-0000000000000002.log"
	dir := t.TempDir()
	for _, name := range []string{"checkpoint-0000000000000002.ckpt", segment} {
		data, err := os.ReadFile(filepath.Join(golden, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(filepath.Join(golden, segment))
	if err != nil {
		t.Fatal(err)
	}
	muts, err := ReadSegment(f)
	f.Close()
	if err != nil {
		t.Fatalf("golden segment: %v", err)
	}
	legacyMerges := 0
	for _, mut := range muts {
		if mut.Kind == core.MutMerge && len(mut.Packages) > 0 && len(mut.Added) == 0 {
			legacyMerges++
		}
	}
	if legacyMerges == 0 {
		t.Fatal("golden segment holds no full-list merge record; it no longer tests the old shape")
	}
	want, err := os.ReadFile(filepath.Join(golden, "state.json"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	mgr, rep, err := st.RecoverSharded(testRepo(t, 24, 10), core.Config{Alpha: 0.75, Capacity: 200})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rep.CheckpointSeq != 2 || rep.RecordsSkipped != 0 || len(rep.Warnings) != 0 {
		t.Errorf("recovery of the golden directory was not clean: %s %v", rep, rep.Warnings)
	}
	if got := stateJSON(t, mgr.ExportState()); got != string(want) {
		t.Errorf("recovered state differs from the writer's:\n got %s\nwant %s", got, want)
	}
	if err := mgr.CheckIntegrity(); err != nil {
		t.Errorf("recovered cache fails its invariants: %v", err)
	}
}

// BenchmarkGroupCommit is the durable path of fsync=always, one
// request at a time: a ~6 KB merge record committed and made durable
// by WaitDurable, on the real filesystem (OSFS) in a temporary
// directory. The open segment is extended with 64 KiB of zeros every
// ten records or so, so the runs cross extension boundaries, and
// rotates at the default 4 MB. `make bench-guard` holds it to 0
// allocs/op: the zeros are static, the frame is encoded into the
// store's reused buffer, and a datasync reaches the descriptor
// through a conn bound when the segment opened.
func BenchmarkGroupCommit(b *testing.B) {
	pkgs := make([]pkggraph.Package, 8)
	for i := range pkgs {
		pkgs[i] = pkggraph.Package{ID: pkggraph.PkgID(i), Name: "pkg", Version: fmt.Sprintf("v%d", i), Platform: "p", Size: 10, FileCount: 1}
	}
	repo, err := pkggraph.New(pkgs)
	if err != nil {
		b.Fatal(err)
	}
	st, err := Open(b.TempDir(), Options{SyncPolicy: FsyncAlways})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	if _, _, err := st.RecoverSharded(repo, core.Config{Alpha: 0.5}); err != nil {
		b.Fatal(err)
	}
	mut := core.Mutation{Kind: core.MutMerge, ImageID: 7, Version: 1, Merges: 1, RequestBytes: 3 << 30, Added: benchKeys(140)}
	frame, err := EncodeRecord(nil, mut)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mut.LastUse = uint64(i)
		st.Commit(mut)
		if err := st.WaitDurable(); err != nil {
			b.Fatal(err)
		}
	}
}
