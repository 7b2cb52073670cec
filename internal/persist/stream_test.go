package persist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/pkggraph"
	"repro/internal/spec"
)

// streamRepo builds a small deterministic package repo for streaming
// tests.
func streamRepo(t *testing.T) *pkggraph.Repo {
	t.Helper()
	return testRepo(t, 40, 10)
}

// streamedPrimary is a primary-side fixture: a sharded manager whose
// commit hook publishes every mutation into a Streamer, plus the
// checkpoint provider capturing MergedState consistently with the
// stream position.
type streamedPrimary struct {
	mgr *core.ShardedManager
	str *Streamer
	// drop, when set, keeps a mutation out of the stream: what a store
	// that lost a commit while degraded does to its followers.
	drop func(core.Mutation) bool
}

func newStreamedPrimary(t *testing.T, repo *pkggraph.Repo, ring int) *streamedPrimary {
	t.Helper()
	p := &streamedPrimary{}
	cfg := core.Config{Alpha: 0.6}
	var err error
	p.mgr, err = core.NewSharded(repo, cfg)
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	p.str = NewStreamer(1, ring, func() ([]byte, uint64, error) {
		var payload []byte
		var next uint64
		var cerr error
		p.mgr.WithExclusiveAll(func(ms []*core.Manager) {
			next = p.str.Next()
			payload, cerr = json.Marshal(StreamCheckpoint{Next: next, State: core.MergedState(ms)})
		})
		return payload, next, cerr
	})
	p.mgr.SetCommitHook(commitFunc(func(mut core.Mutation) {
		if p.drop != nil && p.drop(mut) {
			return
		}
		payload, err := json.Marshal(mut)
		if err != nil {
			t.Errorf("encoding mutation: %v", err)
			return
		}
		p.str.Publish(payload)
	}))
	return p
}

// commitFunc adapts a function to core.CommitHook.
type commitFunc func(core.Mutation)

func (f commitFunc) Commit(mut core.Mutation) { f(mut) }

// replica is a follower-side cache applying streamed mutations.
type replica struct {
	mgr *core.ShardedManager
	fol *Follower
}

func newReplica(t *testing.T, repo *pkggraph.Repo) *replica {
	t.Helper()
	mgr, err := core.NewSharded(repo, core.Config{Alpha: 0.6})
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	r := &replica{mgr: mgr}
	r.fol = NewFollower(
		func(payload []byte) error {
			var mut core.Mutation
			if err := json.Unmarshal(payload, &mut); err != nil {
				return err
			}
			return r.mgr.ApplyMutation(mut)
		},
		func(payload []byte) error {
			var ck StreamCheckpoint
			if err := json.Unmarshal(payload, &ck); err != nil {
				return err
			}
			// A checkpoint replaces the whole state: swap in a fresh
			// manager so resync works from any prior position.
			fresh, err := core.NewSharded(repo, core.Config{Alpha: 0.6})
			if err != nil {
				return err
			}
			if err := fresh.ImportState(ck.State); err != nil {
				return err
			}
			r.mgr = fresh
			return nil
		},
	)
	return r
}

// driveRequests pushes n deterministic specs through the primary.
func driveRequests(t *testing.T, repo *pkggraph.Repo, p *streamedPrimary, n, offset int) {
	t.Helper()
	for i := 0; i < n; i++ {
		sp := spec.New([]pkggraph.PkgID{
			pkggraph.PkgID((i*3 + offset) % repo.Len()),
			pkggraph.PkgID((i*7 + offset + 1) % repo.Len()),
		})
		if _, err := p.mgr.Request(sp); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
}

func stateBytes(t *testing.T, st core.ManagerState) string {
	t.Helper()
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatalf("marshal state: %v", err)
	}
	return string(b)
}

// TestStreamReplicaByteIdentical: a follower pulling over real HTTP
// converges to a state byte-identical to the primary's ExportState.
func TestStreamReplicaByteIdentical(t *testing.T) {
	repo := streamRepo(t)
	p := newStreamedPrimary(t, repo, 0)
	mux := http.NewServeMux()
	mux.HandleFunc("/ha/v1/wal", p.str.ServeWAL)
	mux.HandleFunc("/ha/v1/checkpoint", p.str.ServeCheckpoint)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	r := newReplica(t, repo)
	driveRequests(t, repo, p, 60, 0)
	for i := 0; i < 10; i++ {
		if _, err := r.fol.Pull(context.Background(), ts.Client(), ts.URL+"/ha/v1"); err != nil {
			t.Fatalf("pull: %v", err)
		}
		if r.fol.Next() == p.str.Next() {
			break
		}
	}
	if r.fol.Next() != p.str.Next() {
		t.Fatalf("follower watermark %d never reached primary next %d", r.fol.Next(), p.str.Next())
	}
	if got, want := stateBytes(t, r.mgr.ExportState()), stateBytes(t, p.mgr.ExportState()); got != want {
		t.Fatalf("replica state diverged from primary:\n got: %s\nwant: %s", got, want)
	}
	if r.fol.Resyncs() != 0 {
		t.Fatalf("full-ring stream should not have resynced, got %d", r.fol.Resyncs())
	}
}

// TestStreamGapForcesCheckpointResync: a follower whose watermark aged
// out of the ring resyncs from the primary's checkpoint and still
// reaches byte-identical state.
func TestStreamGapForcesCheckpointResync(t *testing.T) {
	repo := streamRepo(t)
	p := newStreamedPrimary(t, repo, 8) // tiny ring: laggards gap fast
	mux := http.NewServeMux()
	mux.HandleFunc("/wal", p.str.ServeWAL)
	mux.HandleFunc("/checkpoint", p.str.ServeCheckpoint)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	r := newReplica(t, repo)
	driveRequests(t, repo, p, 80, 0) // far beyond the 8-record ring
	for i := 0; i < 10 && r.fol.Next() != p.str.Next(); i++ {
		if _, err := r.fol.Pull(context.Background(), ts.Client(), ts.URL); err != nil {
			t.Fatalf("pull: %v", err)
		}
	}
	if r.fol.Resyncs() == 0 {
		t.Fatalf("gapped follower never resynced")
	}
	if got, want := stateBytes(t, r.mgr.ExportState()), stateBytes(t, p.mgr.ExportState()); got != want {
		t.Fatalf("resynced replica diverged:\n got: %s\nwant: %s", got, want)
	}
}

// TestStreamFollowerCrashRestart: a replica that crashes mid-stream
// (all follower state lost) restarts, resyncs from the primary's
// checkpoint, and converges to byte-identical state — the PR 2
// crash-recovery contract, one network hop out.
func TestStreamFollowerCrashRestart(t *testing.T) {
	repo := streamRepo(t)
	p := newStreamedPrimary(t, repo, 16)
	mux := http.NewServeMux()
	mux.HandleFunc("/wal", p.str.ServeWAL)
	mux.HandleFunc("/checkpoint", p.str.ServeCheckpoint)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	r := newReplica(t, repo)
	driveRequests(t, repo, p, 30, 0)
	for i := 0; i < 10 && r.fol.Next() != p.str.Next(); i++ {
		if _, err := r.fol.Pull(context.Background(), ts.Client(), ts.URL); err != nil {
			t.Fatalf("pull: %v", err)
		}
	}

	// Crash: the replica process dies; a fresh one starts from zero
	// while the primary keeps moving past the ring bound.
	driveRequests(t, repo, p, 60, 5)
	r2 := newReplica(t, repo)
	for i := 0; i < 10 && r2.fol.Next() != p.str.Next(); i++ {
		if _, err := r2.fol.Pull(context.Background(), ts.Client(), ts.URL); err != nil {
			t.Fatalf("restarted pull: %v", err)
		}
	}
	if r2.fol.Next() != p.str.Next() {
		t.Fatalf("restarted follower watermark %d != primary %d", r2.fol.Next(), p.str.Next())
	}
	if r2.fol.Resyncs() == 0 {
		t.Fatalf("restarted follower should have resynced from the checkpoint")
	}
	if got, want := stateBytes(t, r2.mgr.ExportState()), stateBytes(t, p.mgr.ExportState()); got != want {
		t.Fatalf("restarted replica diverged:\n got: %s\nwant: %s", got, want)
	}
}

// TestStreamBatchTruncationEveryOffset mirrors the PR 2 WAL
// fault-injection tests at the stream layer: a batch truncated at
// every possible byte offset must yield a clean applied prefix —
// never a corrupted apply, never a watermark past what was applied —
// and the follower must recover to full identity once the complete
// batch is re-fetched.
func TestStreamBatchTruncationEveryOffset(t *testing.T) {
	repo := streamRepo(t)
	p := newStreamedPrimary(t, repo, 0)
	driveRequests(t, repo, p, 12, 0)
	batch, ok := p.str.Batch(1, 0)
	if !ok || batch.Count == 0 {
		t.Fatalf("no batch to truncate (ok=%v count=%d)", ok, batch.Count)
	}
	want := stateBytes(t, p.mgr.ExportState())

	for cut := 0; cut <= len(batch.Frames); cut++ {
		r := newReplica(t, repo)
		applied, err := r.fol.ApplyBatch(batch.StreamID, batch.From, batch.Frames[:cut])
		if err != nil {
			t.Fatalf("cut %d: ApplyBatch error: %v", cut, err)
		}
		if got := r.fol.Next(); got != batch.From+uint64(applied) {
			t.Fatalf("cut %d: watermark %d != from+applied %d", cut, got, batch.From+uint64(applied))
		}
		// Re-apply the full batch: the overlap is skipped, the tail
		// lands, and the state matches the primary exactly.
		if _, err := r.fol.ApplyBatch(batch.StreamID, batch.From, batch.Frames); err != nil {
			t.Fatalf("cut %d: completing batch: %v", cut, err)
		}
		if r.fol.Next() != batch.Next {
			t.Fatalf("cut %d: final watermark %d != %d", cut, r.fol.Next(), batch.Next)
		}
		if got := stateBytes(t, r.mgr.ExportState()); got != want {
			t.Fatalf("cut %d: state diverged after recovery", cut)
		}
	}
}

// TestStreamCorruptFrameStopsCleanly: a flipped bit mid-batch yields
// the prefix before the corruption and no error, so the watermark
// re-fetches the damaged record.
func TestStreamCorruptFrameStopsCleanly(t *testing.T) {
	repo := streamRepo(t)
	p := newStreamedPrimary(t, repo, 0)
	driveRequests(t, repo, p, 8, 0)
	batch, _ := p.str.Batch(1, 0)
	if batch.Count < 3 {
		t.Fatalf("need >= 3 frames, got %d", batch.Count)
	}
	corrupted := append([]byte(nil), batch.Frames...)
	corrupted[len(corrupted)/2] ^= 0x40

	r := newReplica(t, repo)
	applied, err := r.fol.ApplyBatch(batch.StreamID, batch.From, corrupted)
	if err != nil {
		t.Fatalf("corrupt batch should apply its clean prefix, got %v", err)
	}
	if uint64(applied) >= uint64(batch.Count) {
		t.Fatalf("corruption not detected: applied %d of %d", applied, batch.Count)
	}
	if _, err := r.fol.ApplyBatch(batch.StreamID, batch.From, batch.Frames); err != nil {
		t.Fatalf("clean re-fetch: %v", err)
	}
	if got, want := stateBytes(t, r.mgr.ExportState()), stateBytes(t, p.mgr.ExportState()); got != want {
		t.Fatalf("state diverged after corrupt-then-clean recovery")
	}
}

// TestStreamBumpForcesResync: a stream identity change (primary
// re-based its log) gaps every follower into a checkpoint resync.
func TestStreamBumpForcesResync(t *testing.T) {
	repo := streamRepo(t)
	p := newStreamedPrimary(t, repo, 0)
	driveRequests(t, repo, p, 10, 0)
	r := newReplica(t, repo)
	batch, _ := p.str.Batch(1, 0)
	if _, err := r.fol.ApplyBatch(batch.StreamID, batch.From, batch.Frames); err != nil {
		t.Fatalf("initial batch: %v", err)
	}

	p.str.Bump(2)
	driveRequests(t, repo, p, 10, 3)
	if _, ok := p.str.Batch(r.fol.Next(), 0); ok {
		// The watermark may or may not be serviceable after Bump; what
		// matters is the identity check below.
		t.Log("batch served post-bump; follower must still detect the identity change")
	}
	b2, ok := p.str.Batch(p.str.Next(), 0)
	if !ok {
		t.Fatalf("empty batch at next should serve")
	}
	if _, err := r.fol.ApplyBatch(b2.StreamID, b2.From, b2.Frames); err != ErrStreamGap {
		t.Fatalf("stream identity change: got %v, want ErrStreamGap", err)
	}
	cb, err := p.str.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if err := r.fol.ApplyCheckpoint(cb.StreamID, cb.Next, cb.Frame); err != nil {
		t.Fatalf("resync: %v", err)
	}
	if got, want := stateBytes(t, r.mgr.ExportState()), stateBytes(t, p.mgr.ExportState()); got != want {
		t.Fatalf("post-bump resync diverged")
	}
}

// TestStreamStoreTap: the Store's commit tap publishes exactly the
// WAL's records, so a streamer attached to a persistent server
// replicates what recovery would replay.
func TestStreamStoreTap(t *testing.T) {
	repo := streamRepo(t)
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	mgr, _, err := st.RecoverSharded(repo, core.Config{Alpha: 0.6})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	var taps []core.Mutation
	str := NewStreamer(1, 0, nil)
	st.SetTap(func(payload []byte) {
		var mut core.Mutation
		if err := json.Unmarshal(payload, &mut); err != nil {
			t.Errorf("tap payload: %v", err)
			return
		}
		taps = append(taps, mut)
		str.Publish(payload)
	})

	for i := 0; i < 20; i++ {
		sp := spec.New([]pkggraph.PkgID{
			pkggraph.PkgID(i % repo.Len()),
			pkggraph.PkgID((i*5 + 1) % repo.Len()),
		})
		if _, err := mgr.Request(sp); err != nil {
			t.Fatalf("request: %v", err)
		}
	}
	if len(taps) == 0 {
		t.Fatalf("tap observed no records")
	}
	if st.Close() != nil {
		t.Fatalf("close")
	}

	// Replay the replica from the streamed records alone and compare
	// against a fresh recovery of the same WAL.
	r := newReplica(t, repo)
	batch, ok := str.Batch(1, 0)
	if !ok {
		t.Fatalf("batch")
	}
	if _, err := r.fol.ApplyBatch(batch.StreamID, batch.From, batch.Frames); err != nil {
		t.Fatalf("apply: %v", err)
	}
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close()
	rec, _, err := st2.RecoverSharded(repo, core.Config{Alpha: 0.6})
	if err != nil {
		t.Fatalf("re-recover: %v", err)
	}
	if !reflect.DeepEqual(r.mgr.ExportState(), rec.ExportState()) {
		t.Fatalf("streamed replica != WAL recovery:\n got: %s\nwant: %s",
			stateBytes(t, r.mgr.ExportState()), stateBytes(t, rec.ExportState()))
	}
}

// TestStreamWatermarkAcks: serving a batch from N proves the streamer
// treats N as an ack — a later batch from a higher watermark never
// re-serves acked records, and Batch rejects watermarks outside
// [floor, next].
func TestStreamWatermarkAcks(t *testing.T) {
	s := NewStreamer(9, 4, nil)
	for i := 0; i < 6; i++ {
		s.Publish([]byte(fmt.Sprintf("rec-%d", i)))
	}
	// Ring of 4 with 6 published: floor is 3 (seqs 3..6 retained).
	if _, ok := s.Batch(2, 0); ok {
		t.Fatalf("aged-out watermark 2 must gap")
	}
	b, ok := s.Batch(5, 0)
	if !ok || b.From != 5 || b.Count != 2 || b.Next != 7 {
		t.Fatalf("batch from 5: ok=%v from=%d count=%d next=%d", ok, b.From, b.Count, b.Next)
	}
	n := 0
	if _, err := DecodeFrames(b.Frames, func(p []byte) error {
		want := fmt.Sprintf("rec-%d", 4+n) // seq 5 carries rec-4 (seq 1 carried rec-0)
		if string(p) != want {
			return fmt.Errorf("frame %d: %q != %q", n, p, want)
		}
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Batch(8, 0); ok {
		t.Fatalf("future watermark 8 must gap")
	}
	if b, ok := s.Batch(7, 0); !ok || b.Count != 0 {
		t.Fatalf("caught-up watermark must serve an empty batch")
	}
}

// TestStreamInapplicableDeltaResyncs: a merge delta whose predecessor
// never reached the stream (here the primary drops its first merge
// record) cannot be fixed by
// fetching the same sequence again. The follower must report it as a
// gap and resync from the checkpoint instead of polling it forever.
func TestStreamInapplicableDeltaResyncs(t *testing.T) {
	repo := streamRepo(t)
	p := newStreamedPrimary(t, repo, 0)
	dropped := false
	p.drop = func(mut core.Mutation) bool {
		first := mut.Kind == core.MutMerge && !dropped
		dropped = dropped || first
		return first
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/wal", p.str.ServeWAL)
	mux.HandleFunc("/checkpoint", p.str.ServeCheckpoint)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	// Insert, merge (dropped from the stream), merge (a delta on a
	// version the follower never saw), hit.
	for i, ids := range [][]pkggraph.PkgID{{0, 1, 2}, {0, 1, 2, 3}, {0, 1, 2, 4}, {0, 1}} {
		if _, err := p.mgr.Request(spec.New(ids)); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if st := p.mgr.Stats(); !dropped || st.Merges != 2 {
		t.Fatalf("workload made %d merges (dropped=%v), want 2", st.Merges, dropped)
	}

	direct := newReplica(t, repo)
	batch, _ := p.str.Batch(1, 0)
	if n, err := direct.fol.ApplyBatch(batch.StreamID, batch.From, batch.Frames); !errors.Is(err, ErrStreamGap) || n != 1 {
		t.Fatalf("ApplyBatch over the hole applied %d, err %v; want 1 and ErrStreamGap", n, err)
	}

	r := newReplica(t, repo)
	for i := 0; i < 3 && r.fol.Next() != p.str.Next(); i++ {
		if _, err := r.fol.Pull(context.Background(), ts.Client(), ts.URL); err != nil {
			t.Fatalf("pull %d: %v", i, err)
		}
	}
	if r.fol.Next() != p.str.Next() || r.fol.Resyncs() != 1 {
		t.Fatalf("follower at %d after %d resync(s), want %d after 1", r.fol.Next(), r.fol.Resyncs(), p.str.Next())
	}
	if got, want := stateBytes(t, r.mgr.ExportState()), stateBytes(t, p.mgr.ExportState()); got != want {
		t.Fatalf("resynced replica diverged:\n got: %s\nwant: %s", got, want)
	}
}
