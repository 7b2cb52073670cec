package check

import (
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"sync"

	"repro/internal/persist"
)

// ErrInjected marks every error FaultFS fabricates, so tests can
// distinguish injected faults from real ones.
var ErrInjected = errors.New("check: injected fault")

// errCrashed is returned for every operation after Crash: the old
// process is dead, its handles are gone. errStopped is returned for
// every operation after the plan's StopAfter: the machine is about to
// lose power.
var (
	errCrashed = errors.New("check: filesystem crashed (stale pre-crash handle)")
	errStopped = errors.New("check: machine stopped at its planned crash point")
)

// FaultPlan schedules injected faults by operation count. An operation
// is a write (Write or WriteAt), a sync or a truncation on a tracked
// (write-opened) file: the first write or sync at or after the Nth
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
	// FailSyncAt makes the first sync at or after that operation fail
	// (data stays unsynced).
	FailSyncAt int64
	// StopAfter stops the machine once that many operations are done:
	// every later operation of any kind fails, so the files hold what
	// they held at that boundary when the caller crashes them.
	StopAfter int64
}

// CrashMode selects what survives a Crash.
type CrashMode int

const (
	// CrashKill models kill -9: the process dies but the kernel keeps
	// every byte it accepted — all written data survives.
	CrashKill CrashMode = iota
	// CrashPower models power loss: only what a sync covered is
	// guaranteed. Each file keeps its synced length and its bytes up to
	// its first unsynced change, plus a torn prefix of the unsynced
	// bytes from there; past that prefix an overwrite inside the synced
	// length reverts to zeros — the zeros a WAL segment is extended with
	// and synced under the records that overwrite them — and an
	// unsynced extension is cut.
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
	stopped  bool
	crashed  bool
	files    map[*faultFile]struct{} // live write handles
}

// A faultFile tracks a handle that created its file, so its offsets
// are file offsets from 0.
type faultFile struct {
	ffs    *FaultFS
	f      persist.File
	pos    int64 // where Write writes next
	size   int64 // the file's length as this handle's writes and truncations left it
	synced int64 // the length the last good sync made durable
	dirty  int64 // first offset changed since that sync; clean when none
	closed bool
}

// clean is a faultFile's dirty offset when nothing changed since its
// last sync.
const clean = math.MaxInt64

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

// Ops returns how many operations tracked handles have done so far.
func (ffs *FaultFS) Ops() int64 {
	ffs.mu.Lock()
	defer ffs.mu.Unlock()
	return ffs.ops
}

// Stopped reports whether the plan's StopAfter has been reached.
func (ffs *FaultFS) Stopped() bool {
	ffs.mu.Lock()
	defer ffs.mu.Unlock()
	return ffs.stopped
}

// InFlight returns the longest run of unsynced bytes in a live write
// handle: from its first unsynced change to its end. A power crash's
// torn prefix tears into at most that many bytes of a file.
func (ffs *FaultFS) InFlight() int64 {
	ffs.mu.Lock()
	defer ffs.mu.Unlock()
	var n int64
	for ff := range ffs.files {
		if ff.dirty != clean && !ff.closed {
			n = max(n, ff.size-ff.dirty)
		}
	}
	return n
}

func (ffs *FaultFS) dead() error {
	ffs.mu.Lock()
	defer ffs.mu.Unlock()
	return ffs.deadLocked()
}

func (ffs *FaultFS) deadLocked() error {
	switch {
	case ffs.crashed:
		return errCrashed
	case ffs.stopped:
		return errStopped
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
	ff := &faultFile{ffs: ffs, f: f, dirty: clean}
	ffs.mu.Lock()
	ffs.files[ff] = struct{}{}
	ffs.mu.Unlock()
	return ff
}

// Crash simulates process death. Every live write handle is closed
// and, under CrashPower, its file cut back to what a power loss keeps
// (see CrashPower), torn bytes of its unsynced changes surviving
// (torn models a partially persisted in-flight record; pass the
// schedule's seeded choice). All subsequent operations on this
// FaultFS fail: the next life must open a fresh one.
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
		var err error
		if mode == CrashPower && ff.dirty != clean {
			err = ff.losePower(torn)
		}
		ff.f.Close()
		ff.closed = true
		if err != nil {
			return fmt.Errorf("check: cutting %s back at crash: %w", ff.f.Name(), err)
		}
	}
	ffs.files = make(map[*faultFile]struct{})
	return nil
}

// losePower rewrites ff's file as a power loss leaves it: bytes before
// the first unsynced change and torn bytes from it stay; past them the
// synced length reads zeros and the rest is cut.
func (ff *faultFile) losePower(torn int64) error {
	keep := ff.dirty + min(torn, ff.size-ff.dirty)
	for off := keep; off < min(ff.synced, ff.size); {
		n, err := ff.f.WriteAt(zeroBlock[:min(int64(len(zeroBlock)), min(ff.synced, ff.size)-off)], off)
		if err != nil {
			return err
		}
		off += int64(n)
	}
	return ff.f.Truncate(max(ff.synced, keep))
}

// zeroBlock is what a crash reverts unsynced overwrites to.
var zeroBlock [4096]byte

// begin counts one operation on ff, or refuses it on a dead or stopped
// machine or a closed handle.
func (ff *faultFile) begin() (int64, error) {
	ffs := ff.ffs
	ffs.mu.Lock()
	defer ffs.mu.Unlock()
	if err := ffs.deadLocked(); err != nil {
		return 0, err
	}
	if ff.closed {
		return 0, errCrashed
	}
	ffs.ops++
	return ffs.ops, nil
}

// done ends operation op, stopping the machine if it is the plan's
// last.
func (ffs *FaultFS) done(op int64) {
	if ffs.plan.StopAfter > 0 && op >= ffs.plan.StopAfter {
		ffs.stopped = true
	}
}

// write is Write and WriteAt with fault injection: it writes p at off,
// or at the handle's offset when off is negative.
func (ff *faultFile) write(p []byte, off int64) (int, error) {
	op, err := ff.begin()
	if err != nil {
		return 0, err
	}
	advance := off < 0
	ffs := ff.ffs
	ffs.mu.Lock()
	var mode int
	switch {
	case ffs.plan.FailWriteAt > 0 && op >= ffs.plan.FailWriteAt:
		mode, ffs.injected = 1, ffs.injected+1
		ffs.plan.FailWriteAt = 0
	case ffs.plan.ShortWriteAt > 0 && op >= ffs.plan.ShortWriteAt:
		mode, ffs.injected = 2, ffs.injected+1
		ffs.plan.ShortWriteAt = 0
	}
	if advance {
		off = ff.pos
	}
	ffs.mu.Unlock()

	if mode == 1 {
		ff.wrote(op, off, 0, advance)
		return 0, fmt.Errorf("%w: write %d failed", ErrInjected, op)
	}
	q := p
	if mode == 2 {
		q = p[:len(p)/2]
	}
	n, err := ff.f.WriteAt(q, off)
	ff.wrote(op, off, n, advance)
	if err == nil && mode == 2 {
		err = fmt.Errorf("%w: write %d torn after %d of %d bytes", ErrInjected, op, n, len(p))
	}
	return n, err
}

// wrote records n bytes written at off by operation op, advancing the
// handle's offset for a Write.
func (ff *faultFile) wrote(op, off int64, n int, advance bool) {
	ffs := ff.ffs
	ffs.mu.Lock()
	defer ffs.mu.Unlock()
	if n > 0 {
		ff.dirty = min(ff.dirty, off)
		ff.size = max(ff.size, off+int64(n))
	}
	if advance {
		ff.pos += int64(n)
	}
	ffs.done(op)
}

// Write implements persist.File with fault injection.
func (ff *faultFile) Write(p []byte) (int, error) { return ff.write(p, -1) }

// WriteAt implements persist.File with fault injection; it leaves the
// handle's offset alone.
func (ff *faultFile) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("check: WriteAt at negative offset %d", off)
	}
	return ff.write(p, off)
}

// Truncate implements persist.File. It is an operation for the plan's
// counts but injects no fault.
func (ff *faultFile) Truncate(size int64) error {
	op, err := ff.begin()
	if err != nil {
		return err
	}
	err = ff.f.Truncate(size)
	ffs := ff.ffs
	ffs.mu.Lock()
	defer ffs.mu.Unlock()
	if err == nil && size != ff.size {
		ff.dirty = min(ff.dirty, size)
		ff.size = size
	}
	ffs.done(op)
	return err
}

// Read implements persist.File.
func (ff *faultFile) Read(p []byte) (int, error) { return ff.f.Read(p) }

// Sync implements persist.File with fault injection. A successful sync
// makes the handle's data and length durable, as fdatasync(2) does. It
// issues no real sync: durability is what Crash models from the synced
// state, and no test outlives the machine's page cache.
func (ff *faultFile) Sync() error {
	op, err := ff.begin()
	if err != nil {
		return err
	}
	ffs := ff.ffs
	ffs.mu.Lock()
	defer ffs.mu.Unlock()
	defer ffs.done(op)
	if ffs.plan.FailSyncAt > 0 && op >= ffs.plan.FailSyncAt {
		ffs.injected++
		ffs.plan.FailSyncAt = 0
		return fmt.Errorf("%w: sync %d failed", ErrInjected, op)
	}
	ff.synced, ff.dirty = ff.size, clean
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
