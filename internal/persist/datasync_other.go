//go:build !linux

package persist

import "os"

// newSegmentFile returns f itself: where this package calls no
// fdatasync(2), a segment's Sync is a full fsync.
func newSegmentFile(f *os.File) File { return f }
