package check

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/pkggraph"
	"repro/internal/spec"
)

// crashScript is a scripted durable run: requests from the seeded
// stream over the small repository under fsync=always, in 16 KiB
// segments so the log rotates, with one checkpoint midway. Every run of
// it starts from an empty directory and does the same operations in
// the same order, so a crash point is an operation count.
type crashScript struct {
	repo   *pkggraph.Repo
	mcfg   core.Config
	specs  []spec.Spec
	ckptAt int
	opts   persist.Options
}

func newCrashScript(seed int64, requests int) *crashScript {
	repo := SmallRepo(seed)
	stream := NewStream(repo, seed+1)
	sc := &crashScript{
		repo:   repo,
		mcfg:   core.Config{Alpha: 0.8, Capacity: simCapacity(repo, 0.5)},
		ckptAt: requests / 2,
		opts:   persist.Options{SyncPolicy: persist.FsyncAlways, SegmentBytes: 16 << 10},
	}
	for range requests {
		sc.specs = append(sc.specs, stream.Next())
	}
	return sc
}

// mutationLog records the mutations the cache commits and hands each
// on to the store.
type mutationLog struct {
	muts []core.Mutation
	next core.CommitHook
}

func (l *mutationLog) Commit(mut core.Mutation) {
	l.muts = append(l.muts, mut)
	l.next.Commit(mut)
}

// run runs the script in dir over ffs, to its end or until the machine
// stops, and returns the mutations the cache committed and how many of
// them an acknowledgement covers: a request's WaitDurable or the
// checkpoint returning nil.
func (sc *crashScript) run(dir string, ffs *FaultFS) (muts []core.Mutation, acked int, err error) {
	opts := sc.opts
	opts.FS = ffs
	st, err := persist.Open(dir, opts)
	if err != nil {
		return nil, 0, err
	}
	sm, _, err := st.RecoverSharded(sc.repo, sc.mcfg)
	if err != nil {
		return nil, 0, err
	}
	log := &mutationLog{next: st}
	sm.SetCommitHook(log)
	for i, s := range sc.specs {
		if ffs.Stopped() {
			break
		}
		if i == sc.ckptAt {
			if _, err := st.Checkpoint(sm.ExportState()); err == nil {
				acked = len(log.muts)
			}
		}
		if _, err := sm.Request(s); err != nil {
			return nil, 0, fmt.Errorf("request %d: %w", i, err)
		}
		if st.WaitDurable() == nil {
			acked = len(log.muts)
		}
	}
	return log.muts, acked, nil
}

// recoverAudit recovers dir and checks what a crash of the script's
// run left: the recovered cache passes CheckIntegrity and equals the
// empty cache plus a prefix of muts that keeps every acknowledged one,
// and at most one segment in dir holds no record.
func (sc *crashScript) recoverAudit(dir string, muts []core.Mutation, acked int) error {
	st, err := persist.Open(dir, sc.opts)
	if err != nil {
		return err
	}
	defer st.Close()
	sm, _, err := st.RecoverSharded(sc.repo, sc.mcfg)
	if err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	if err := sm.CheckIntegrity(); err != nil {
		return fmt.Errorf("integrity after recovery: %w", err)
	}
	empty, err := core.NewSharded(sc.repo, sc.mcfg)
	if err != nil {
		return err
	}
	if err := verifyPrefix(sc.repo, sc.mcfg, empty.ExportState(), muts, acked, sm.ExportState()); err != nil {
		return err
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		return err
	}
	var none []string
	for _, name := range segs {
		b, err := os.ReadFile(name)
		if err != nil {
			return err
		}
		if bytes.Count(b, []byte{0}) == len(b) {
			none = append(none, filepath.Base(name))
		}
	}
	if len(none) > 1 {
		return fmt.Errorf("%d segments hold no record: %v", len(none), none)
	}
	return nil
}

// TestCrashAtEveryOperation stops the scripted run after each of its
// file operations in turn — every write, zero-fill extension included,
// every datasync and every truncation — and crashes it there: a kill,
// and power losses that keep 0, 1, 7, 8, 9, half or all but one of the
// bytes in flight. Each recovery must hold every acknowledged mutation
// and nothing but a prefix of the committed ones, pass CheckIntegrity,
// and leave at most one empty segment.
func TestCrashAtEveryOperation(t *testing.T) {
	sc := newCrashScript(1, 36)
	dry := NewFaultFS(FaultPlan{})
	dryDir := t.TempDir()
	muts, acked, err := sc.run(dryDir, dry)
	if err != nil {
		t.Fatal(err)
	}
	total := dry.Ops()
	segs, _ := filepath.Glob(filepath.Join(dryDir, "wal-*.log"))
	ckpts, _ := filepath.Glob(filepath.Join(dryDir, "checkpoint-*.ckpt"))
	if acked != len(muts) || len(ckpts) != 1 || len(segs) < 2 {
		t.Fatalf("the run without a crash acked %d of %d mutations in %d operations, and left %d segment(s) beside %d checkpoint(s); want all acked, segments rotated past the checkpoint",
			acked, len(muts), total, len(segs), len(ckpts))
	}
	dir := filepath.Join(t.TempDir(), "state")
	crashes := 0
	// crash runs the script from an empty directory until it stops after
	// operation n, crashes it there, audits the recovery and returns
	// the bytes that were in flight at the stop.
	crash := func(n int64, mode CrashMode, torn int64, what string) int64 {
		t.Helper()
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		ffs := NewFaultFS(FaultPlan{StopAfter: n})
		muts, acked, err := sc.run(dir, ffs)
		if err != nil {
			t.Fatalf("stop after operation %d: %v", n, err)
		}
		inFlight := ffs.InFlight()
		if err := ffs.Crash(mode, torn); err != nil {
			t.Fatal(err)
		}
		crashes++
		if err := sc.recoverAudit(dir, muts, acked); err != nil {
			t.Fatalf("%s after operation %d of %d (%d of %d mutations acked): %v", what, n, total, acked, len(muts), err)
		}
		return inFlight
	}
	for n := int64(1); n <= total; n++ {
		whole := crash(n, CrashKill, 0, "kill")
		tried := make(map[int64]bool)
		for _, torn := range []int64{0, 1, 7, 8, 9, whole / 2, whole - 1} {
			if torn = max(0, min(torn, whole)); !tried[torn] {
				tried[torn] = true
				crash(n, CrashPower, torn, fmt.Sprintf("power loss keeping %d of %d bytes in flight", torn, whole))
			}
		}
	}
	t.Logf("%d crashes at %d operation boundaries", crashes, total)
}

// zeroHeaderAudit writes the crash script's log into dir and kills the
// run, so the newest segment keeps the zeros ahead of its records.
// Then, for the first sealed segment holding two records or more and
// for the newest segment, it zeroes the frame header at each record
// boundary in turn and recovers a copy of dir. Every one must be
// reported as damage — a corrupt segment, or a torn tail in the newest
// — because records follow the zeroed header: only zeros to the end
// make a clean end. It returns a description of the first recovery
// that took such a header for the segment's clean end ("" when none
// did) and how many recoveries it ran.
func zeroHeaderAudit(t *testing.T, dir string) (string, int) {
	t.Helper()
	sc := newCrashScript(1, 36)
	state := filepath.Join(dir, "state")
	ffs := NewFaultFS(FaultPlan{})
	if _, _, err := sc.run(state, ffs); err != nil {
		t.Fatal(err)
	}
	if err := ffs.Crash(CrashKill, 0); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(state, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	var targets []string
	for _, name := range segs[:len(segs)-1] {
		if len(frameOffsets(t, name)) >= 2 {
			targets = append(targets, name)
			break
		}
	}
	targets = append(targets, segs[len(segs)-1])
	if len(targets) != 2 || len(frameOffsets(t, targets[1])) == 0 {
		t.Fatalf("the script left no sealed segment of two records or no record in the newest segment: %v", segs)
	}
	recoveries := 0
	for i, seg := range targets {
		which := []string{"sealed", "newest"}[i]
		offsets := frameOffsets(t, seg)
		for k, off := range offsets {
			cp := filepath.Join(dir, fmt.Sprintf("copy-%d-%d", i, k))
			copyDir(t, cp, state)
			f, err := os.OpenFile(filepath.Join(cp, filepath.Base(seg)), os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt(make([]byte, 8), off); err != nil {
				t.Fatal(err)
			}
			f.Close()
			st, err := persist.Open(cp, sc.opts)
			if err != nil {
				t.Fatal(err)
			}
			_, rep, err := st.RecoverSharded(sc.repo, sc.mcfg)
			if err != nil {
				t.Fatal(err)
			}
			st.Close()
			recoveries++
			damage := rep.CorruptSegments > 0
			if i == 1 {
				damage = rep.TornTail
			}
			if !damage || len(rep.Warnings) == 0 {
				return fmt.Sprintf("%s segment %s, header of record %d of %d zeroed: recovery took it for the clean end (replayed=%d skipped=%d corrupt_segments=%d torn_tail=%v warnings=%d)",
					which, filepath.Base(seg), k+1, len(offsets), rep.RecordsReplayed, rep.RecordsSkipped,
					rep.CorruptSegments, rep.TornTail, len(rep.Warnings)), recoveries
			}
		}
	}
	return "", recoveries
}

// copyDir copies the files of the flat directory src into a new
// directory dst.
func copyDir(t *testing.T, dst, src string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// frameOffsets returns the offsets of the intact frames in the WAL
// segment at path, walking their length fields up to the first that
// is zero or runs past the end.
func frameOffsets(t *testing.T, path string) []int64 {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var offs []int64
	for off := 0; off+8 <= len(b); {
		n := int(binary.LittleEndian.Uint32(b[off:]))
		if n == 0 || off+8+n > len(b) {
			break
		}
		offs = append(offs, int64(off))
		off += 8 + n
	}
	return offs
}

// TestZeroedHeaderIsDamage: a zero frame header with records after it,
// in a sealed segment or in the newest one, is corruption or a torn
// tail with a warning, never the clean end a zero tail is.
func TestZeroedHeaderIsDamage(t *testing.T) {
	if msg, n := zeroHeaderAudit(t, t.TempDir()); msg != "" {
		t.Fatalf("after %d recoveries: %s", n, msg)
	}
}
