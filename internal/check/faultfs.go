package check

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sync"

	"repro/internal/persist"
)

// ErrInjected marks every error FaultFS fabricates, so tests can
// distinguish injected faults from real ones.
var ErrInjected = errors.New("check: injected fault")

// errCrashed is returned for every operation after Crash: the old
// process is dead, its handles are gone.
var errCrashed = errors.New("check: filesystem crashed (stale pre-crash handle)")

// FaultPlan schedules injected faults by operation count: the first
// write or sync on a tracked (write-opened) file at or after the Nth
// operation misbehaves, once. Zero disables a fault. Operation counts
// — not wall-clock — make the plan deterministic under a seeded
// schedule, and the at-or-after trigger makes it insensitive to the
// exact write/sync interleaving (op N itself may be either kind).
type FaultPlan struct {
	// FailWriteAt makes the first write at or after that operation fail
	// outright (nothing written).
	FailWriteAt int64
	// ShortWriteAt makes the first write at or after that operation
	// tear: half the bytes reach the file, then an error — the
	// torn-record crash signature.
	ShortWriteAt int64
	// FailSyncAt makes the first fsync at or after that operation fail
	// (data stays unsynced).
	FailSyncAt int64
}

// CrashMode selects what survives a Crash.
type CrashMode int

const (
	// CrashKill models kill -9: the process dies but the kernel keeps
	// every byte it accepted — all written data survives.
	CrashKill CrashMode = iota
	// CrashPower models power loss: only synced bytes are guaranteed;
	// each file is truncated back to its synced offset plus a torn
	// prefix of whatever was in flight.
	CrashPower
)

// FaultFS implements persist.FS over the real filesystem with seeded
// fault injection and crash simulation. One FaultFS models one process
// life: after Crash every operation fails, and the "restarted process"
// opens a fresh FaultFS over the same directory.
type FaultFS struct {
	inner persist.FS

	mu       sync.Mutex
	plan     FaultPlan
	ops      int64
	injected int
	crashed  bool
	files    map[*faultFile]struct{} // live write handles
}

type faultFile struct {
	ffs     *FaultFS
	f       persist.File
	written int64 // bytes this handle has written
	synced  int64 // portion of written known to be on stable storage
	closed  bool
}

// NewFaultFS wraps the real filesystem with the given plan.
func NewFaultFS(plan FaultPlan) *FaultFS {
	return &FaultFS{inner: persist.OSFS{}, plan: plan, files: make(map[*faultFile]struct{})}
}

// Injected returns how many faults have fired so far.
func (ffs *FaultFS) Injected() int {
	ffs.mu.Lock()
	defer ffs.mu.Unlock()
	return ffs.injected
}

func (ffs *FaultFS) dead() error {
	ffs.mu.Lock()
	defer ffs.mu.Unlock()
	if ffs.crashed {
		return errCrashed
	}
	return nil
}

// MkdirAll implements persist.FS.
func (ffs *FaultFS) MkdirAll(path string, perm os.FileMode) error {
	if err := ffs.dead(); err != nil {
		return err
	}
	return ffs.inner.MkdirAll(path, perm)
}

// OpenFile implements persist.FS; write handles are tracked for fault
// injection and crash truncation.
func (ffs *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (persist.File, error) {
	if err := ffs.dead(); err != nil {
		return nil, err
	}
	f, err := ffs.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return ffs.track(f), nil
}

// Open implements persist.FS. Read handles pass through untracked —
// reads neither count as fault ops nor participate in crashes (the
// recovering process does the reading).
func (ffs *FaultFS) Open(name string) (persist.File, error) {
	if err := ffs.dead(); err != nil {
		return nil, err
	}
	return ffs.inner.Open(name)
}

// ReadDir implements persist.FS.
func (ffs *FaultFS) ReadDir(name string) ([]fs.DirEntry, error) {
	if err := ffs.dead(); err != nil {
		return nil, err
	}
	return ffs.inner.ReadDir(name)
}

// Remove implements persist.FS.
func (ffs *FaultFS) Remove(name string) error {
	if err := ffs.dead(); err != nil {
		return err
	}
	return ffs.inner.Remove(name)
}

// Rename implements persist.FS.
func (ffs *FaultFS) Rename(oldpath, newpath string) error {
	if err := ffs.dead(); err != nil {
		return err
	}
	return ffs.inner.Rename(oldpath, newpath)
}

// Stat implements persist.FS.
func (ffs *FaultFS) Stat(name string) (fs.FileInfo, error) {
	if err := ffs.dead(); err != nil {
		return nil, err
	}
	return ffs.inner.Stat(name)
}

// CreateTemp implements persist.FS; temp files are tracked like any
// other write handle.
func (ffs *FaultFS) CreateTemp(dir, pattern string) (persist.File, error) {
	if err := ffs.dead(); err != nil {
		return nil, err
	}
	f, err := ffs.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return ffs.track(f), nil
}

func (ffs *FaultFS) track(f persist.File) *faultFile {
	ff := &faultFile{ffs: ffs, f: f}
	ffs.mu.Lock()
	ffs.files[ff] = struct{}{}
	ffs.mu.Unlock()
	return ff
}

// Crash simulates process death. Every live write handle is closed
// and, under CrashPower, its file truncated to the synced offset plus
// up to torn bytes of the unsynced tail (torn models a partially
// persisted in-flight record; pass the schedule's seeded choice).
// All subsequent operations on this FaultFS fail: the next life must
// open a fresh one.
func (ffs *FaultFS) Crash(mode CrashMode, torn int64) error {
	ffs.mu.Lock()
	defer ffs.mu.Unlock()
	if ffs.crashed {
		return errCrashed
	}
	ffs.crashed = true
	for ff := range ffs.files {
		if ff.closed {
			continue
		}
		name := ff.f.Name()
		ff.f.Close()
		ff.closed = true
		if mode != CrashPower {
			continue
		}
		keep := ff.synced
		if extra := ff.written - ff.synced; extra > 0 && torn > 0 {
			if torn < extra {
				keep += torn
			} else {
				keep += extra
			}
		}
		// A handle opened with O_EXCL wrote from offset 0, so the
		// handle's byte counts are file offsets.
		if err := os.Truncate(name, keep); err != nil {
			return fmt.Errorf("check: truncating %s at crash: %w", name, err)
		}
	}
	ffs.files = make(map[*faultFile]struct{})
	return nil
}

// Write implements persist.File with fault injection.
func (ff *faultFile) Write(p []byte) (int, error) {
	ffs := ff.ffs
	ffs.mu.Lock()
	if ffs.crashed || ff.closed {
		ffs.mu.Unlock()
		return 0, errCrashed
	}
	ffs.ops++
	op := ffs.ops
	var mode int
	switch {
	case ffs.plan.FailWriteAt > 0 && op >= ffs.plan.FailWriteAt:
		mode, ffs.injected = 1, ffs.injected+1
		ffs.plan.FailWriteAt = 0
	case ffs.plan.ShortWriteAt > 0 && op >= ffs.plan.ShortWriteAt:
		mode, ffs.injected = 2, ffs.injected+1
		ffs.plan.ShortWriteAt = 0
	}
	ffs.mu.Unlock()

	switch mode {
	case 1:
		return 0, fmt.Errorf("%w: write %d failed", ErrInjected, op)
	case 2:
		n, err := ff.f.Write(p[:len(p)/2])
		ff.addWritten(int64(n))
		if err != nil {
			return n, err
		}
		return n, fmt.Errorf("%w: write %d torn after %d of %d bytes", ErrInjected, op, n, len(p))
	}
	n, err := ff.f.Write(p)
	ff.addWritten(int64(n))
	return n, err
}

func (ff *faultFile) addWritten(n int64) {
	ff.ffs.mu.Lock()
	ff.written += n
	ff.ffs.mu.Unlock()
}

// Read implements persist.File.
func (ff *faultFile) Read(p []byte) (int, error) { return ff.f.Read(p) }

// Sync implements persist.File with fault injection; a successful sync
// advances the handle's durable offset. It issues no real fsync:
// durability is what Crash models from the synced offsets, and no
// test outlives the machine's page cache.
func (ff *faultFile) Sync() error {
	ffs := ff.ffs
	ffs.mu.Lock()
	if ffs.crashed || ff.closed {
		ffs.mu.Unlock()
		return errCrashed
	}
	ffs.ops++
	op := ffs.ops
	inject := ffs.plan.FailSyncAt > 0 && op >= ffs.plan.FailSyncAt
	if inject {
		ffs.injected++
		ffs.plan.FailSyncAt = 0
	}
	ffs.mu.Unlock()
	if inject {
		return fmt.Errorf("%w: sync %d failed", ErrInjected, op)
	}
	ffs.mu.Lock()
	ff.synced = ff.written
	ffs.mu.Unlock()
	return nil
}

// Close implements persist.File.
func (ff *faultFile) Close() error {
	ffs := ff.ffs
	ffs.mu.Lock()
	if ff.closed {
		ffs.mu.Unlock()
		return nil
	}
	ff.closed = true
	delete(ffs.files, ff)
	ffs.mu.Unlock()
	return ff.f.Close()
}

// Name implements persist.File.
func (ff *faultFile) Name() string { return ff.f.Name() }

var _ persist.FS = (*FaultFS)(nil)
