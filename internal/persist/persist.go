// Package persist is the durability layer for the LANDLORD cache: an
// append-only, checksummed write-ahead log of cache mutations plus
// periodic checkpoints, so a site daemon comes back from a crash or
// restart with its accumulated cache state instead of re-paying the
// full insert/merge I/O the paper shows dominates cost.
//
// Everything is standard library only. The on-disk pieces:
//
//   - WAL segments (wal-<seq>.log): a stream of length-prefixed,
//     CRC32C-checksummed JSON records, one per core.Mutation
//     (insert/merge/touch/delete/split). Insert and split records
//     carry the image's full package list, a merge record only the
//     keys it added. Segments rotate at a configurable size; a
//     checkpoint makes older segments garbage.
//   - Checkpoints (checkpoint-<seq>.ckpt): one framed JSON record
//     holding a complete core.ManagerState. The sequence number names
//     the first WAL segment NOT covered by the checkpoint, so recovery
//     is "load newest valid checkpoint, replay segments >= seq".
//
// Recovery is deliberately forgiving: a torn final record (the normal
// crash signature) truncates replay at the last intact record; a
// corrupt checkpoint falls back to the next-older one or to an empty
// cache; corrupt records or segments are skipped with a logged
// warning. The cache is authoritative state about *derived* data —
// images can always be rebuilt from the repository — so recovering
// most of the state cheaply always beats refusing to start.
//
// Durability is governed by an fsync policy: "always" guarantees every
// record is on stable storage before the request that produced it is
// acknowledged (no acknowledged mutation is ever lost), "interval"
// syncs at most every SyncInterval (bounded loss under power failure,
// near-zero cost; a killed process loses nothing because records are
// still written to the kernel per append), and "never" leaves syncing
// to the OS entirely.
//
// Under "always" the sync is a group commit, not one fsync per record:
// Commit appends to the OS in mutation order and returns (it runs with
// the cache's locks held and must not stall concurrent hits behind a
// disk flush), and the server calls WaitDurable after releasing those
// locks, before acknowledging. Concurrent WaitDurable callers elect a
// leader whose single fsync covers every record appended so far, so N
// in-flight requests cost ~2 fsyncs instead of N.
package persist

import (
	"fmt"
	"time"
)

// FsyncPolicy selects when the WAL is flushed to stable storage.
type FsyncPolicy int

const (
	// FsyncInterval syncs at most once per SyncInterval (the default):
	// bounded data loss on power failure, negligible overhead.
	FsyncInterval FsyncPolicy = iota
	// FsyncAlways syncs after every appended record.
	FsyncAlways
	// FsyncNever never calls fsync; the OS writes back on its own
	// schedule.
	FsyncNever
)

// String returns the policy's configuration-file spelling.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncNever:
		return "never"
	default:
		return "interval"
	}
}

// ParseFsyncPolicy parses the configuration-file spelling. The empty
// string selects the default (interval).
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "", "interval":
		return FsyncInterval, nil
	case "always":
		return FsyncAlways, nil
	case "never":
		return FsyncNever, nil
	default:
		return 0, fmt.Errorf("persist: unknown fsync policy %q (want always, interval, or never)", s)
	}
}

// Options parameterize a Store. The zero value is usable: 4 MB
// segments, interval fsync every 100ms.
type Options struct {
	// SegmentBytes rotates the WAL to a fresh segment once the current
	// one exceeds this size (default 4 MB).
	SegmentBytes int64
	// SyncPolicy is the WAL fsync policy (default FsyncInterval).
	SyncPolicy FsyncPolicy
	// SyncInterval bounds staleness under FsyncInterval (default 100ms).
	SyncInterval time.Duration
	// FS is the filesystem the store operates on (default OSFS). Tests
	// substitute a fault-injecting implementation (internal/check).
	FS FS
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.SyncInterval <= 0 {
		o.SyncInterval = 100 * time.Millisecond
	}
	if o.FS == nil {
		o.FS = OSFS{}
	}
	return o
}
