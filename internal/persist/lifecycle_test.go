package persist_test

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/telemetry"
)

// opLog is a persist.FS that records, in order, every file the store
// creates with OpenFile (its WAL segments), every write to one, and
// every fsync of a directory.
type opLog struct {
	persist.FS
	mu  sync.Mutex
	ops []string // "create <name>", "write <name>" or "dirsync"
}

// loggedFile notes each write or each good fsync in its log.
type loggedFile struct {
	persist.File
	log          *opLog
	write, fsync string
}

func (l *opLog) note(op string) {
	l.mu.Lock()
	l.ops = append(l.ops, op)
	l.mu.Unlock()
}

func (l *opLog) OpenFile(name string, flag int, perm os.FileMode) (persist.File, error) {
	f, err := l.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	l.note("create " + filepath.Base(name))
	return &loggedFile{File: f, log: l, write: "write " + filepath.Base(name)}, nil
}

func (l *opLog) Open(name string) (persist.File, error) {
	f, err := l.FS.Open(name)
	if err != nil {
		return nil, err
	}
	if fi, err := l.FS.Stat(name); err == nil && fi.IsDir() {
		return &loggedFile{File: f, log: l, fsync: "dirsync"}, nil
	}
	return f, nil
}

func (f *loggedFile) Write(p []byte) (int, error) {
	if f.write != "" {
		f.log.note(f.write)
	}
	return f.File.Write(p)
}

func (f *loggedFile) Sync() error {
	err := f.File.Sync()
	if err == nil && f.fsync != "" {
		f.log.note(f.fsync)
	}
	return err
}

// creates counts the segments created so far.
func (l *opLog) creates() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, op := range l.ops {
		if strings.HasPrefix(op, "create ") {
			n++
		}
	}
	return n
}

// unsynced names every created segment whose directory was not fsynced
// after the create and before the first write to it.
func (l *opLog) unsynced() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var bad []string
	for i, op := range l.ops {
		name, ok := strings.CutPrefix(op, "create ")
		if !ok {
			continue
		}
		synced := false
		for _, later := range l.ops[i+1:] {
			if later == "dirsync" {
				synced = true
				break
			}
			if later == "write "+name {
				break
			}
		}
		if !synced {
			bad = append(bad, name)
		}
	}
	return bad
}

// TestNewSegmentSyncsDirectory: every WAL segment the store creates —
// at recovery, at a size rotation, at a checkpoint and at the
// checkpoint that heals a failed store — reaches its directory before
// a record is written to it. Without the directory fsync a power loss
// can drop the segment's name and every record fsynced into it.
func TestNewSegmentSyncsDirectory(t *testing.T) {
	const seed = int64(7)
	dir := t.TempDir()
	repo := check.SmallRepo(seed)
	cfg := core.Config{Alpha: 0.6, Capacity: repo.TotalSize() / 3}
	gate := &failOpenFS{FS: persist.OSFS{}}
	log := &opLog{FS: gate}
	opts := persist.Options{FS: log, SyncPolicy: persist.FsyncAlways, SegmentBytes: 2 << 10}
	stream := check.NewStream(repo, seed)

	store, err := persist.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	var mgr *core.ShardedManager
	drive := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := mgr.Request(stream.Next()); err != nil {
				t.Fatal(err)
			}
			store.WaitDurable()
		}
	}
	stage := func(name string, step func()) {
		t.Helper()
		creates, bad := log.creates(), len(log.unsynced())
		step()
		if log.creates() == creates {
			t.Fatalf("%s created no segment", name)
		}
		if now := log.unsynced(); len(now) > bad {
			t.Errorf("%s wrote segments %v before their directory was fsynced", name, now[bad:])
		}
	}

	stage("recovery and its first record", func() {
		if mgr, _, err = store.RecoverSharded(repo, cfg); err != nil {
			t.Fatal(err)
		}
		drive(1)
	})
	stage("size rotation", func() { drive(40) })
	stage("checkpoint", func() {
		if _, err := store.Checkpoint(mgr.ExportState()); err != nil {
			t.Fatal(err)
		}
		drive(2)
	})
	stage("the healing checkpoint", func() {
		gate.armed = true
		for i := 0; i < 200 && store.Err() == nil; i++ {
			drive(1)
		}
		if store.Err() == nil {
			t.Fatal("no rotation failed with segment opens refused")
		}
		gate.armed = false
		if _, err := store.Checkpoint(mgr.ExportState()); err != nil {
			t.Fatal(err)
		}
		if store.Heals() != 1 {
			t.Fatalf("Heals = %d after the healing checkpoint, want 1", store.Heals())
		}
		drive(2)
	})
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// The next process's recovery over a non-empty directory.
	store, err = persist.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	stage("recovery over a used directory", func() {
		if mgr, _, err = store.RecoverSharded(repo, cfg); err != nil {
			t.Fatal(err)
		}
		drive(2)
	})
}

// flakyFS fails the next WAL fsync once, and every checkpoint while
// failCkpt is set (its temp file cannot be created).
type flakyFS struct {
	persist.FS
	failSync, failCkpt bool
}

type flakyFile struct {
	persist.File
	fs *flakyFS
}

func (f *flakyFS) OpenFile(name string, flag int, perm os.FileMode) (persist.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &flakyFile{File: file, fs: f}, nil
}

func (f *flakyFS) CreateTemp(dir, pattern string) (persist.File, error) {
	if f.failCkpt {
		return nil, errors.New("injected: checkpoint refused")
	}
	return f.FS.CreateTemp(dir, pattern)
}

func (f *flakyFile) Sync() error {
	if f.fs.failSync {
		f.fs.failSync = false
		return errors.New("injected: fsync failed")
	}
	return f.File.Sync()
}

// stallFS holds the first segment fsync after arming until release,
// then fails it, and counts segment opens and closes.
type stallFS struct {
	persist.FS
	armed            atomic.Bool
	entered, release chan struct{}
	opens, closes    atomic.Int32
}

type stallFile struct {
	persist.File
	fs *stallFS
}

func (s *stallFS) OpenFile(name string, flag int, perm os.FileMode) (persist.File, error) {
	file, err := s.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	s.opens.Add(1)
	return &stallFile{File: file, fs: s}, nil
}

func (f *stallFile) Sync() error {
	if f.fs.armed.CompareAndSwap(true, false) {
		close(f.fs.entered)
		<-f.fs.release
		return errors.New("injected: fsync failed")
	}
	return f.File.Sync()
}

func (f *stallFile) Close() error {
	f.fs.closes.Add(1)
	return f.File.Close()
}

// flakyStore recovers an empty store over a flakyFS, with its metrics
// registered, and makes one request durable in it.
func flakyStore(t *testing.T, policy persist.FsyncPolicy) (*persist.Store, *flakyFS, *core.ShardedManager, *telemetry.Counter) {
	t.Helper()
	const seed = int64(7)
	repo := check.SmallRepo(seed)
	fs := &flakyFS{FS: persist.OSFS{}}
	store, err := persist.Open(t.TempDir(), persist.Options{FS: fs, SyncPolicy: policy})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	reg := telemetry.NewRegistry()
	store.RegisterMetrics(reg, nil)
	mgr, _, err := store.RecoverSharded(repo, core.Config{Alpha: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Request(check.NewStream(repo, seed).Next()); err != nil {
		t.Fatal(err)
	}
	if err := store.Sync(); err != nil {
		t.Fatal(err)
	}
	return store, fs, mgr, reg.Counter("landlord_persist_wal_errors_total", "WAL append/sync failures (durability degraded)")
}

// TestFailedSealFailsStore: a checkpoint whose seal of the old segment
// fails has lost that segment's unsynced records. Unless its
// checkpoint then covers them, the store must be failed; when the
// checkpoint is written, that checkpoint heals it. A failed segment
// open at a rotation counts as one WAL error, not two.
func TestFailedSealFailsStore(t *testing.T) {
	t.Run("checkpoint-fails", func(t *testing.T) {
		store, fs, mgr, _ := flakyStore(t, persist.FsyncInterval)
		fs.failSync, fs.failCkpt = true, true
		if _, err := store.Checkpoint(mgr.ExportState()); err == nil {
			t.Fatal("checkpoint succeeded with its seal and its write refused")
		}
		if store.Err() == nil {
			t.Fatal("a failed seal left the store healthy")
		}
	})
	t.Run("checkpoint-heals", func(t *testing.T) {
		store, fs, mgr, walErrors := flakyStore(t, persist.FsyncInterval)
		fs.failSync = true
		if _, err := store.Checkpoint(mgr.ExportState()); err != nil {
			t.Fatalf("checkpoint after a failed seal: %v", err)
		}
		if err := store.Err(); err != nil {
			t.Fatalf("the checkpoint covering the failed seal left the store failed: %v", err)
		}
		if store.Heals() != 1 || walErrors.Value() != 1 {
			t.Fatalf("Heals = %d, WAL errors = %d; want 1 and 1", store.Heals(), walErrors.Value())
		}
	})
	t.Run("group-commit-fsync-during-seal", func(t *testing.T) {
		// A group-commit leader's fsync fails while a checkpoint seals
		// its segment. The seal's own fsync of that file passing proves
		// nothing, so the leader's failure must still fail the store, and
		// the leader, not the seal, closes the handle it was syncing.
		const seed = int64(7)
		repo := check.SmallRepo(seed)
		fs := &stallFS{FS: persist.OSFS{}, entered: make(chan struct{}), release: make(chan struct{})}
		store, err := persist.Open(t.TempDir(), persist.Options{FS: fs, SyncPolicy: persist.FsyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		mgr, _, err := store.RecoverSharded(repo, core.Config{Alpha: 0.6})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mgr.Request(check.NewStream(repo, seed).Next()); err != nil {
			t.Fatal(err)
		}
		fs.armed.Store(true)
		done := make(chan error)
		go func() { done <- store.WaitDurable() }()
		<-fs.entered
		_, ckErr := store.Checkpoint(mgr.ExportState())
		close(fs.release)
		<-done
		if ckErr != nil {
			t.Fatal(ckErr)
		}
		if store.Err() == nil {
			t.Fatal("a group-commit fsync that failed while its segment was sealed left the store healthy")
		}
		store.Close()
		if opens, closes := fs.opens.Load(), fs.closes.Load(); opens != closes {
			t.Fatalf("%d segments opened, %d closed", opens, closes)
		}
	})
	t.Run("rotation-open-counts-once", func(t *testing.T) {
		const seed = int64(7)
		repo := check.SmallRepo(seed)
		fs := &failOpenFS{FS: persist.OSFS{}}
		store, err := persist.Open(t.TempDir(), persist.Options{FS: fs, SegmentBytes: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		reg := telemetry.NewRegistry()
		store.RegisterMetrics(reg, nil)
		mgr, _, err := store.RecoverSharded(repo, core.Config{Alpha: 0.6})
		if err != nil {
			t.Fatal(err)
		}
		stream := check.NewStream(repo, seed)
		if _, err := mgr.Request(stream.Next()); err != nil {
			t.Fatal(err)
		}
		fs.armed = true
		// The next record rotates past the one-byte segment bound.
		if _, err := mgr.Request(stream.Next()); err != nil {
			t.Fatal(err)
		}
		if store.Err() == nil {
			t.Fatal("a refused rotation left the store healthy")
		}
		walErrors := reg.Counter("landlord_persist_wal_errors_total", "WAL append/sync failures (durability degraded)")
		if walErrors.Value() != 1 {
			t.Fatalf("one refused segment open counted %d WAL errors, want 1", walErrors.Value())
		}
	})
}

// TestSyncAndCloseStick: a failed Store.Sync fails the store like any
// other fsync failure, and a Close whose seal fails still closes it —
// a later checkpoint neither succeeds nor creates a segment.
func TestSyncAndCloseStick(t *testing.T) {
	store, fs, mgr, _ := flakyStore(t, persist.FsyncNever)
	fs.failSync = true
	if err := store.Sync(); err == nil {
		t.Fatal("Sync reported success over a failed fsync")
	}
	if store.Err() == nil {
		t.Fatal("a failed Sync left the store healthy")
	}

	store, fs, mgr, _ = flakyStore(t, persist.FsyncNever)
	fs.failSync = true
	if err := store.Close(); err == nil {
		t.Fatal("Close reported success over a failed seal")
	}
	segs, _ := filepath.Glob(filepath.Join(store.Dir(), "wal-*.log"))
	if _, err := store.Checkpoint(mgr.ExportState()); err == nil {
		t.Fatal("checkpoint reopened a store closed by a failed seal")
	}
	if after, _ := filepath.Glob(filepath.Join(store.Dir(), "wal-*.log")); len(after) != len(segs) {
		t.Fatalf("checkpoint on a closed store left segments %v, had %v", after, segs)
	}
	if store.Err() == nil {
		t.Fatal("a closed store reports no error")
	}
}
