package persist

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/pkggraph"
	"repro/internal/similarity"
	"repro/internal/spec"
)

// Recovery replays a WAL tail as one pass (core.ShardedManager.Replay):
// records apply ids, counters, sizes and stamps in order, merge deltas
// wait on their image's pending list, and each image the tail left live
// is unioned, interned, signed and re-banded once, when the pass ends.
// These tests hold that pass to per-record replay, where every
// ApplyMutation call settles at once.

// closureMix is the closure_mixed workload's cache and traffic: the
// seed-1 full repository, MinHash on, capacity 1.4x the
// repository, and closure-style requests (1-100 packages closed over
// their dependencies), half of them repeats of the first 128 fresh
// specs.
type closureMix struct {
	repo *pkggraph.Repo
	cfg  core.Config
	rng  *rand.Rand
	pool []spec.Spec
}

func newClosureMix(tb testing.TB) *closureMix {
	tb.Helper()
	repo, err := pkggraph.Generate(pkggraph.DefaultGenConfig(), 1)
	if err != nil {
		tb.Fatal(err)
	}
	return &closureMix{
		repo: repo,
		cfg: core.Config{
			Alpha: 0.8, Capacity: repo.TotalSize() * 14 / 10,
			MinHash: core.DefaultMinHash(),
		},
		rng: rand.New(rand.NewSource(1)),
	}
}

// next draws the mix's next request.
func (c *closureMix) next() spec.Spec {
	if len(c.pool) > 0 && c.rng.Intn(2) == 0 {
		return c.pool[c.rng.Intn(len(c.pool))]
	}
	ids := make([]pkggraph.PkgID, 1+c.rng.Intn(100))
	for i := range ids {
		ids[i] = pkggraph.PkgID(c.rng.Intn(c.repo.Len()))
	}
	s := spec.WithClosure(c.repo, ids)
	if len(c.pool) < 128 {
		c.pool = append(c.pool, s)
	}
	return s
}

// crash serves head requests into a store in dir, checkpoints, serves
// tail more with a prune pass every 100, and stops without a final
// checkpoint, as a crash leaves the directory. It returns the stats the
// tail added. Halfway through the tail it leaves part of an image
// unused (leaveStalePart), so the tail logs a split record whatever the
// mix's own prune passes find.
func (c *closureMix) crash(tb testing.TB, dir string, head, tail int) core.Stats {
	tb.Helper()
	st, err := Open(dir, Options{SyncPolicy: FsyncNever})
	if err != nil {
		tb.Fatal(err)
	}
	live, _, err := st.RecoverSharded(c.repo, c.cfg)
	if err != nil {
		tb.Fatal(err)
	}
	var atCheckpoint core.Stats
	for i := 1; i <= head+tail; i++ {
		if _, err := live.Request(c.next()); err != nil {
			tb.Fatal(err)
		}
		if i == head {
			if _, err := st.Checkpoint(live.ExportState()); err != nil {
				tb.Fatal(err)
			}
			atCheckpoint = live.Stats()
		}
		if i%100 == 0 {
			if _, err := live.Prune(0.9, 2); err != nil {
				tb.Fatal(err)
			}
		}
		if i == head+tail/2 {
			c.leaveStalePart(tb, live)
		}
	}
	if err := st.Close(); err != nil {
		tb.Fatal(err)
	}
	end := live.Stats()
	return core.Stats{
		Merges: end.Merges - atCheckpoint.Merges, Deletes: end.Deletes - atCheckpoint.Deletes,
		Splits: end.Splits - atCheckpoint.Splits,
	}
}

// leaveStalePart splits an image on purpose: a prune pass closes every
// image's served window, two requests for the closure of the largest
// image's first package hit an image that holds it, and the next pass
// finds at most 90% of that image used.
func (c *closureMix) leaveStalePart(tb testing.TB, live *core.ShardedManager) {
	tb.Helper()
	if _, err := live.Prune(0.9, 2); err != nil {
		tb.Fatal(err)
	}
	var big core.Image
	for _, img := range live.Images() {
		if img.Size > big.Size {
			big = img
		}
	}
	part := spec.WithClosure(c.repo, big.Spec.IDs()[:1])
	for range 2 {
		if _, err := live.Request(part); err != nil {
			tb.Fatal(err)
		}
	}
	split, err := live.Prune(0.9, 2)
	if err != nil {
		tb.Fatal(err)
	}
	if len(split) == 0 {
		tb.Fatalf("two requests for %d of image %d's %d packages split no image", part.Len(), big.ID, big.Spec.Len())
	}
}

// recoverPerRecord rebuilds dir the way recovery did before replay
// passes: the newest checkpoint imported, then every record of the
// segments after it applied by its own ApplyMutation call
// (referenceRecover; the checkpoint compacted the segments before it).
func recoverPerRecord(t *testing.T, dir string, repo *pkggraph.Repo, cfg core.Config) *core.ShardedManager {
	t.Helper()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	segs, ckpts, err := st.scan()
	if err != nil || len(ckpts) == 0 || segs[0] < ckpts[len(ckpts)-1] {
		t.Fatalf("%s holds checkpoints %v and segments %v (%v); want segments only from the newest checkpoint on", dir, ckpts, segs, err)
	}
	ck, err := ReadCheckpointFile(st.ckptPath(ckpts[len(ckpts)-1]))
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := core.NewSharded(repo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.ImportState(ck.State); err != nil {
		t.Fatal(err)
	}
	if rep := referenceRecover(t, st, mgr); rep.RecordsSkipped != 0 || len(rep.Warnings) != 0 {
		t.Fatalf("per-record replay of %s: %s %v", dir, rep, rep.Warnings)
	}
	return mgr
}

// sameDerived requires pass and perRecord, two caches with equal
// exported state, to hold image by image the same signature, the direct
// kernel's, and the band index to give the same candidates for every
// live signature.
func sameDerived(t *testing.T, pass, perRecord *core.ShardedManager, mh *core.MinHashConfig) {
	t.Helper()
	h, err := similarity.NewHasher(mh.K, mh.Seed)
	if err != nil {
		t.Fatal(err)
	}
	pi, ri := pass.Images(), perRecord.Images()
	if len(pi) != len(ri) {
		t.Fatalf("%d images, per-record replay %d", len(pi), len(ri))
	}
	for i := range pi {
		if pi[i].ID != ri[i].ID || !slices.Equal(pi[i].Signature(), ri[i].Signature()) {
			t.Fatalf("image %d: signature %v, per-record replay's image %d %v", pi[i].ID, pi[i].Signature(), ri[i].ID, ri[i].Signature())
		}
		if !slices.Equal(pi[i].Signature(), h.SignDirect(pi[i].Spec)) {
			t.Fatalf("image %d: signature differs from the direct kernel's", pi[i].ID)
		}
	}
	pass.WithShared(func(p *core.Manager) {
		perRecord.WithShared(func(r *core.Manager) {
			for _, img := range pi {
				got, err1 := p.BandCandidates(img.Signature())
				want, err2 := r.BandCandidates(img.Signature())
				if err1 != nil || err2 != nil || !slices.Equal(got, want) {
					t.Fatalf("signature of image %d: candidates %v (%v), per-record replay's %v (%v)", img.ID, got, err1, want, err2)
				}
			}
		})
	})
}

// TestRecoverSettlesLikePerRecordReplay crashes the closure mix — a
// checkpoint after 1,000 requests, then a 2,000-request tail with
// merges, evictions and prune splits — and recovers the directory
// twice: through RecoverSharded, one replay pass, and through
// per-record ApplyMutation over ReadSegment. The two must export the
// same state, hold the same signatures (the direct kernel's), give the
// same band candidates for every live signature, and answer the next
// 1,000 requests alike. The golden state directories, recovered with
// MinHash on, must give their writers' states both ways.
func TestRecoverSettlesLikePerRecordReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the full repository; skipped in -short")
	}
	mix := newClosureMix(t)
	dir := t.TempDir()
	if tail := mix.crash(t, dir, 1000, 2000); tail.Merges == 0 || tail.Deletes == 0 || tail.Splits == 0 {
		t.Fatalf("the tail made %d merges, %d deletes, %d splits; it no longer covers every record that changes an image",
			tail.Merges, tail.Deletes, tail.Splits)
	}
	perRecord := recoverPerRecord(t, dir, mix.repo, mix.cfg)
	st, err := Open(dir, Options{SyncPolicy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	pass, rep, err := st.RecoverSharded(mix.repo, mix.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CheckpointSeq == 0 || rep.RecordsReplayed < 2000 || rep.RecordsSkipped != 0 {
		t.Fatalf("recovery: %s; want a checkpoint and a clean tail of at least 2,000 records", rep)
	}
	if got, want := stateJSON(t, pass.ExportState()), stateJSON(t, perRecord.ExportState()); got != want {
		t.Fatalf("one replay pass recovers\n %.400s\nper-record replay\n %.400s", got, want)
	}
	for name, m := range map[string]*core.ShardedManager{"replay pass": pass, "per-record replay": perRecord} {
		if err := m.CheckIntegrity(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	sameDerived(t, pass, perRecord, mix.cfg.MinHash)
	for i := 0; i < 1000; i++ {
		s := mix.next()
		got, err1 := pass.Request(s)
		want, err2 := perRecord.Request(s)
		if err1 != nil || err2 != nil || got != want {
			t.Fatalf("request %d after recovery: %+v (%v), per-record replay %+v (%v)", i, got, err1, want, err2)
		}
	}

	for _, golden := range []struct {
		dir     string
		cfg     core.Config
		sharded bool // written by a 2-shard cache (see goldenWant)
	}{
		{"testdata/state_pr15", core.Config{Alpha: 0.75, Capacity: 200}, false},
		{shardedGoldens[0], testConfig(), true},
		{shardedGoldens[1], testConfig(), true},
	} {
		data, err := os.ReadFile(filepath.Join(golden.dir, "state.json"))
		if err != nil {
			t.Fatal(err)
		}
		want := string(data)
		names, err := filepath.Glob(filepath.Join(golden.dir, "*-*"))
		if err != nil {
			t.Fatal(err)
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
		cfg := golden.cfg
		cfg.MinHash = core.DefaultMinHash()
		repo := testRepo(t, 24, 10)
		perRecord := recoverPerRecord(t, dir, repo, cfg)
		st, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		pass, _, err := st.RecoverSharded(repo, cfg)
		st.Close()
		if err != nil {
			t.Fatal(err)
		}
		for name, m := range map[string]*core.ShardedManager{"replay pass": pass, "per-record replay": perRecord} {
			st := m.ExportState()
			if golden.sharded {
				want = goldenWant(t, golden.dir, st)
			}
			if got := stateJSON(t, st); got != want {
				t.Errorf("%s: %s recovers\n %s\nwant the writer's\n %s", golden.dir, name, got, want)
			}
			if err := m.CheckIntegrity(); err != nil {
				t.Errorf("%s: %s: %v", golden.dir, name, err)
			}
		}
		sameDerived(t, pass, perRecord, cfg.MinHash)
	}
}

// BenchmarkReplayMerges replays the closure mix's merge-heavy MinHash
// tail — the 2,000 requests after a checkpoint, streamed as one replay
// pass on top of the imported checkpoint, as recovery does. One op is
// the whole tail; building the cache and importing the checkpoint are
// outside the timer. BenchmarkReplaySegment's touches change no image,
// so only this one sees a merge applied as a delta and each surviving
// image settled once; make bench-guard bounds its allocations, so a
// per-record union, signature or scratch cannot come back unnoticed.
func BenchmarkReplayMerges(b *testing.B) {
	mix := newClosureMix(b)
	dir := b.TempDir()
	mix.crash(b, dir, 1000, 2000)
	st, err := Open(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	segs, ckpts, err := st.scan()
	if err != nil || len(ckpts) == 0 {
		b.Fatalf("scanning the crashed directory: %d checkpoints, %v", len(ckpts), err)
	}
	ck, err := ReadCheckpointFile(st.ckptPath(ckpts[len(ckpts)-1]))
	if err != nil {
		b.Fatal(err)
	}
	var tail []byte
	for _, seq := range segs {
		if seq >= ckpts[len(ckpts)-1] {
			data, err := os.ReadFile(st.segPath(seq))
			if err != nil {
				b.Fatal(err)
			}
			tail = append(tail, data...)
		}
	}
	b.SetBytes(int64(len(tail)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		mgr, err := core.NewSharded(mix.repo, mix.cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := mgr.ImportState(ck.State); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		var readErr, applyErr error
		n := 0
		err = mgr.Replay(func(apply func(*core.Record) error) {
			readErr = newSegmentReader(mix.repo).each(bytes.NewReader(tail), func(rec *core.Record) {
				if err := apply(rec); err != nil && applyErr == nil {
					applyErr = err
				}
				n++
			})
		})
		if err != nil || readErr != nil || applyErr != nil || n < 2000 {
			b.Fatalf("replayed %d records: %v, %v, %v", n, err, readErr, applyErr)
		}
	}
}
