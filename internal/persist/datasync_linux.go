//go:build linux

package persist

import (
	"os"
	"sync"
	"syscall"
)

// segmentFile is an open WAL segment on the real filesystem. Its Sync
// is fdatasync(2): it flushes the data, and the size when it changed,
// and leaves the timestamps to the kernel. A record that overwrites
// the zeros the store extended the segment with then costs a write of
// its data blocks, where a full fsync would also commit the
// filesystem's journal for the new mtime.
type segmentFile struct {
	*os.File
	rc syscall.RawConn
	do func(fd uintptr) // f.fdatasync, bound once so a Sync allocates nothing

	mu  sync.Mutex // serializes Syncs: a seal may sync while a group-commit leader does
	err error      // the last fdatasync's result, guarded by mu
}

// newSegmentFile wraps f so its Sync is a datasync, reaching the
// descriptor through f's SyscallConn; it returns f itself, whose Sync
// is a full fsync, if f has no descriptor to reach.
func newSegmentFile(f *os.File) File {
	rc, err := f.SyscallConn()
	if err != nil {
		return f
	}
	sf := &segmentFile{File: f, rc: rc}
	sf.do = sf.fdatasync
	return sf
}

func (f *segmentFile) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.rc.Control(f.do); err != nil {
		return err
	}
	if f.err != nil {
		return &os.PathError{Op: "fdatasync", Path: f.Name(), Err: f.err}
	}
	return nil
}

func (f *segmentFile) fdatasync(fd uintptr) {
	for {
		if f.err = syscall.Fdatasync(int(fd)); f.err != syscall.EINTR {
			return
		}
	}
}
