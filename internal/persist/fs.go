package persist

import (
	"io"
	"io/fs"
	"os"
)

// FS is the filesystem surface the store needs. Production uses OSFS;
// internal/check substitutes a fault-injecting implementation that
// fails writes, truncates at sync boundaries, and simulates kill-9
// crashes at seeded operation counts — so every durability claim in
// this package is tested against the failures it is supposed to
// survive, not just the happy path.
type FS interface {
	MkdirAll(path string, perm os.FileMode) error
	// OpenFile mirrors os.OpenFile; the store only uses the flag
	// combination os.O_CREATE|os.O_WRONLY|os.O_EXCL, for a new WAL
	// segment, and opens nothing else through it. The handle's Sync
	// need only make the file's data and size durable (fdatasync(2)),
	// which is all a segment's reader needs.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	Open(name string) (File, error)
	ReadDir(name string) ([]fs.DirEntry, error)
	Remove(name string) error
	Rename(oldpath, newpath string) error
	Stat(name string) (fs.FileInfo, error)
	// CreateTemp mirrors os.CreateTemp: an exclusive fresh file in dir
	// whose name derives from pattern.
	CreateTemp(dir, pattern string) (File, error)
}

// File is the handle surface the store needs; *os.File satisfies it.
// Write writes at the handle's offset and advances it, over a WAL
// segment's zeros; WriteAt, which leaves the offset alone, extends the
// segment with them, and Truncate cuts them off.
type File interface {
	io.Reader
	io.Writer
	io.WriterAt
	io.Closer
	Sync() error
	Truncate(size int64) error
	Name() string
}

// OSFS is the real filesystem.
type OSFS struct{}

func (OSFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

// OpenFile opens a WAL segment, whose Sync is a data flush (datasync).
func (OSFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return newSegmentFile(f), nil
}

func (OSFS) Open(name string) (File, error) { return os.Open(name) }

func (OSFS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }

func (OSFS) Remove(name string) error { return os.Remove(name) }

func (OSFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (OSFS) Stat(name string) (fs.FileInfo, error) { return os.Stat(name) }

func (OSFS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }

var _ File = (*os.File)(nil)
