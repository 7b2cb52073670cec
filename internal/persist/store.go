package persist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/pkggraph"
	"repro/internal/telemetry"
)

// Store ties the WAL and checkpoints together for one state
// directory. Lifecycle: Open, RecoverSharded (which returns the
// reconstructed cache and installs the store as its commit hook), then
// Commit flows mutations to the WAL until Close. Checkpoint compacts at
// any point; the caller must hold whatever lock serializes access to
// the cache while exporting the state it passes in (the HTTP server
// holds the cache's write lock, so commits and checkpoints never
// interleave).
type Store struct {
	dir  string
	opts Options

	mu       sync.Mutex
	f        File   // open append segment; nil before RecoverSharded, after a failed rotation and after Close
	seq      uint64 // sequence number of the open segment; 0 before RecoverSharded
	segBytes int64  // the open segment's records: its logical length, and the handle's offset
	segAlloc int64  // the open segment's length on disk: segBytes and the zeros ahead of it
	lastSync time.Time
	sticky   error
	buf      []byte // scratch frame buffer, reused across commits

	// Group commit (FsyncAlways): Commit appends records to the OS in
	// mutation order and returns; durability is paid in WaitDurable,
	// where concurrent waiters elect one leader whose single fsync
	// covers every record appended so far — the shared batch.
	appendSeq  uint64     // records appended to the OS, guarded by mu
	durableSeq uint64     // records known to be on stable storage, guarded by mu
	flushing   File       // the segment a leader is fsyncing outside mu; nil when none
	flushCond  *sync.Cond // on mu; signaled whenever durableSeq advances

	// Taint tracking for degraded-mode serving: pending holds the
	// image IDs of insert/merge records appended but not yet known
	// durable (a prefix-ordered queue drained by markDurableLocked);
	// when the store fails they move to tainted, joined by every
	// insert/merge dropped while sticky. A tainted image exists in
	// memory but is not guaranteed to survive a crash, so a degraded
	// server must refuse to ack hits on it (see Tainted). A checkpoint
	// clears both: it covers everything in memory.
	pending []pendingRec
	tainted map[uint64]struct{}
	heals   int64

	lastCkptUnixNano atomic.Int64

	// The WAL tail and last checkpoint sizes LogBytes reports. Written
	// under mu, read lock-free on every request.
	tailBytes atomic.Int64
	ckptBytes atomic.Int64

	// Metric series; nil until RegisterMetrics.
	walRecords  *telemetry.Counter
	walBytes    *telemetry.Counter
	walErrors   *telemetry.Counter
	checkpoints *telemetry.Counter
	healsCtr    *telemetry.Counter
	batchHist   *telemetry.Histogram
}

// pendingRec is one appended-but-not-yet-durable insert/merge record.
type pendingRec struct {
	seq uint64 // append sequence of the record
	id  uint64 // image whose existence the record establishes
}

var (
	errNotRecovered = errors.New("persist: store not recovered; call RecoverSharded before Commit")
	errClosed       = errors.New("persist: store closed")
)

// Open prepares a store over dir, creating it if needed. No files are
// opened until RecoverSharded.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := opts.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st := &Store{dir: dir, opts: opts, tainted: make(map[uint64]struct{})}
	st.flushCond = sync.NewCond(&st.mu)
	return st, nil
}

// Dir returns the state directory.
func (st *Store) Dir() string { return st.dir }

// Err returns the sticky append error, if any. Once an append fails
// (disk full, removed directory) the store stops logging and the cache
// keeps serving from memory; operators see the error here and in the
// landlord_persist_wal_errors_total metric.
func (st *Store) Err() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.sticky
}

// RecoveryReport describes what RecoverSharded found and did.
type RecoveryReport struct {
	Duration         time.Duration
	CheckpointSeq    uint64 // 0 when no checkpoint was loaded
	CheckpointImages int
	SegmentsScanned  int
	RecordsReplayed  int
	RecordsSkipped   int
	// TailBytes is the size of the WAL records recovery read, replayed
	// or skipped: the tail the store starts out carrying. A slow
	// recovery with a large TailBytes is a log that was not compacted.
	TailBytes int64
	// RecordsReference counts the records, replayed or skipped, whose
	// payload was not in the shape this store writes and was decoded by
	// encoding/json instead of the record scanner: 0 for a log this
	// code wrote, unless a package key needs a JSON escape.
	RecordsReference int
	// CheckpointReference reports that the loaded checkpoint was not in
	// the shape this store writes and was decoded by encoding/json
	// instead of the checkpoint scanner: false for a checkpoint this
	// code wrote, unless a package key needs a JSON escape.
	CheckpointReference bool
	CorruptSegments     int
	TornTail            bool
	Warnings            []string
}

// String renders a one-line log summary.
func (r *RecoveryReport) String() string {
	return fmt.Sprintf("checkpoint seq=%d images=%d, replayed %d record(s) (%d bytes) from %d segment(s) in %v (skipped=%d reference_decoded=%d checkpoint_reference=%v corrupt_segments=%d torn_tail=%v warnings=%d)",
		r.CheckpointSeq, r.CheckpointImages, r.RecordsReplayed, r.TailBytes, r.SegmentsScanned,
		r.Duration.Round(time.Millisecond), r.RecordsSkipped, r.RecordsReference, r.CheckpointReference,
		r.CorruptSegments, r.TornTail, len(r.Warnings))
}

func (r *RecoveryReport) warn(format string, args ...any) {
	const maxWarnings = 16
	if len(r.Warnings) < maxWarnings {
		r.Warnings = append(r.Warnings, fmt.Sprintf(format, args...))
	}
}

const (
	segPrefix  = "wal-"
	segSuffix  = ".log"
	ckptPrefix = "checkpoint-"
	ckptSuffix = ".ckpt"
)

func (st *Store) segPath(seq uint64) string {
	return filepath.Join(st.dir, fmt.Sprintf("%s%016d%s", segPrefix, seq, segSuffix))
}

func (st *Store) ckptPath(seq uint64) string {
	return filepath.Join(st.dir, fmt.Sprintf("%s%016d%s", ckptPrefix, seq, ckptSuffix))
}

// parseSeq extracts the sequence number from a segment or checkpoint
// file name, or returns false for unrelated files.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 10, 64)
	return n, err == nil
}

// scan lists segment and checkpoint sequence numbers, ascending.
func (st *Store) scan() (segs, ckpts []uint64, err error) {
	entries, err := st.opts.FS.ReadDir(st.dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		if n, ok := parseSeq(e.Name(), segPrefix, segSuffix); ok {
			segs = append(segs, n)
		} else if n, ok := parseSeq(e.Name(), ckptPrefix, ckptSuffix); ok {
			ckpts = append(ckpts, n)
		}
	}
	sort.Slice(segs, func(a, b int) bool { return segs[a] < segs[b] })
	sort.Slice(ckpts, func(a, b int) bool { return ckpts[a] < ckpts[b] })
	return segs, ckpts, nil
}

// RecoverSharded rebuilds the cache from the newest valid checkpoint
// plus the WAL tail, installs the store as its commit hook (overriding
// any hook already in cfg), and opens a fresh segment for subsequent
// commits. It never fails on corrupt state — the report's Warnings say
// what was skipped — only on I/O errors reaching the directory, invalid
// cfg, or a tail whose merge deltas repeat packages their images hold,
// which this store never writes (see core.ShardedManager.Replay).
// Recovery builds one cache per checkpoint candidate (abandoning the
// half-imported cache when a checkpoint is unreadable or rejected) and
// a final empty one when no checkpoint loads.
//
// The cache's commit hook fires under the lock that stamped the
// mutation, so the log is in Seq order, and replay applies it in file
// order. A directory written while the cache was partitioned into
// shards holds per-shard subsequences interleaved out of Seq order;
// it replays the same way, because the shards owned disjoint image ids
// and records of different images commute. A merge delta depends only
// on the earlier records of its own image; when one of them is missing
// (a corrupt segment skipped), the image's later deltas are refused and
// counted in RecordsSkipped rather than applied to the wrong base. The
// allocator resumes above every id the checkpoint and the tail issued,
// so the shards' strided ids stay unique.
func (st *Store) RecoverSharded(repo *pkggraph.Repo, cfg core.Config) (*core.ShardedManager, *RecoveryReport, error) {
	cfg.Commit = st
	start := time.Now()
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.f != nil {
		return nil, nil, errors.New("persist: RecoverSharded called twice")
	}

	segs, ckpts, err := st.scan()
	if err != nil {
		return nil, nil, err
	}
	rep := &RecoveryReport{}

	// Newest checkpoint that both parses and imports wins.
	var mgr *core.ShardedManager
	var ckptSeq uint64
	for i := len(ckpts) - 1; i >= 0; i-- {
		seq := ckpts[i]
		ck, reference, err := readCheckpointFile(st.opts.FS, st.ckptPath(seq))
		if err != nil {
			rep.warn("checkpoint %d unreadable: %v", seq, err)
			continue
		}
		m, err := core.NewSharded(repo, cfg)
		if err != nil {
			return nil, nil, err
		}
		if err := m.ImportState(ck.State); err != nil {
			rep.warn("checkpoint %d rejected: %v", seq, err)
			continue
		}
		mgr, ckptSeq = m, seq
		rep.CheckpointSeq = seq
		rep.CheckpointImages = len(ck.State.Images)
		rep.CheckpointReference = reference
		if ck.SavedUnixNano != 0 {
			st.lastCkptUnixNano.Store(ck.SavedUnixNano)
		}
		if fi, err := st.opts.FS.Stat(st.ckptPath(seq)); err == nil {
			st.ckptBytes.Store(fi.Size())
		}
		break
	}
	if mgr == nil {
		if mgr, err = core.NewSharded(repo, cfg); err != nil {
			return nil, nil, err
		}
	}

	// Replay segments not covered by the checkpoint, oldest first.
	var maxSeq uint64
	if len(ckpts) > 0 {
		maxSeq = ckpts[len(ckpts)-1]
	}
	sr := newSegmentReader(repo)
	newestEmpty := false // the newest segment was scanned, and holds no record but zeros
	// The whole tail is one replay pass: each image it changed is
	// settled — its merge deltas unioned in, its spec interned, signed
	// and re-banded — once, when the pass ends.
	err = mgr.Replay(func(apply func(*core.Record) error) {
		for i, seq := range segs {
			if seq > maxSeq {
				maxSeq = seq
			}
			if seq < ckptSeq {
				continue // compacted into the checkpoint; stale file
			}
			rep.SegmentsScanned++
			f, err := st.opts.FS.Open(st.segPath(seq))
			if err != nil {
				rep.CorruptSegments++
				rep.warn("segment %d unreadable: %v", seq, err)
				continue
			}
			// Each record is applied as it is decoded, its keys resolved
			// to ids in the scan, out of storage the next record
			// overwrites (apply keeps neither list): a segment is never
			// held in memory.
			records := 0
			readErr := sr.each(f, func(rec *core.Record) {
				records++
				if err := apply(rec); err != nil {
					rep.RecordsSkipped++
					rep.warn("segment %d: %v", seq, err)
					return
				}
				rep.RecordsReplayed++
			})
			f.Close()
			newestEmpty = i == len(segs)-1 && records == 0 && readErr == nil
			if readErr != nil {
				if i == len(segs)-1 {
					// The normal crash signature: the final record was
					// mid-write when the process died.
					rep.TornTail = true
					rep.warn("segment %d ends with a torn record: %v", seq, readErr)
				} else {
					rep.CorruptSegments++
					rep.warn("segment %d corrupt mid-stream: %v", seq, readErr)
				}
			}
		}
	})
	if err != nil {
		return nil, nil, fmt.Errorf("persist: replaying the WAL tail: %w", err)
	}

	rep.RecordsReference = sr.dec.reference
	rep.TailBytes = sr.bytes
	st.tailBytes.Store(sr.bytes)

	// Open a fresh segment for post-recovery commits; earlier segments
	// stay until the next checkpoint compacts them. A newest segment
	// that holds no record — the one the last start opened, if no
	// commit followed, or zeros a crash left before the first record —
	// is replaced rather than kept, so restarts without traffic do not
	// pile up empty segments.
	st.seq = maxSeq + 1
	if newestEmpty && segs[len(segs)-1] == maxSeq && st.opts.FS.Remove(st.segPath(maxSeq)) == nil {
		st.seq = maxSeq
	}
	if err := st.openSegmentLocked(st.seq); err != nil {
		return nil, nil, err
	}
	if st.lastCkptUnixNano.Load() == 0 {
		st.lastCkptUnixNano.Store(time.Now().UnixNano())
	}
	rep.Duration = time.Since(start)
	return mgr, rep, nil
}

// Commit implements core.CommitHook: one framed record per mutation,
// appended in mutation order. It never blocks the cache on durability
// failures — the first error sticks, later mutations are dropped, and
// Err/metrics surface it.
//
// Commit is called with the cache's locks held (a ShardedManager
// invokes the hook before releasing the lock that ordered the
// mutation), so it must stay cheap: it writes to the OS but never
// fsyncs under FsyncAlways. Durability under that policy is paid in
// WaitDurable, which the server calls after releasing the cache locks
// and before acknowledging the request.
func (st *Store) Commit(mut core.Mutation) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.sticky != nil {
		st.taintLocked(mut)
		return
	}
	if st.f == nil {
		st.fail(errNotRecovered)
		st.taintLocked(mut)
		return
	}
	buf, err := EncodeRecord(st.buf[:0], mut)
	st.buf = buf
	if err != nil {
		st.fail(fmt.Errorf("persist: encoding mutation: %w", err))
		st.taintLocked(mut)
		return
	}
	if st.segBytes > 0 && st.segBytes+int64(len(buf)) > st.opts.SegmentBytes {
		if st.rotateLocked(); st.sticky != nil {
			st.taintLocked(mut)
			return
		}
	}
	if end := st.segBytes + int64(len(buf)); end > st.segAlloc {
		if err := st.extendLocked(end); err != nil {
			st.fail(fmt.Errorf("persist: extending WAL segment %d: %w", st.seq, err))
			st.taintLocked(mut)
			return
		}
	}
	n, err := st.f.Write(buf)
	st.segBytes += int64(n)
	st.tailBytes.Add(int64(n))
	if err != nil {
		st.fail(fmt.Errorf("persist: appending WAL record: %w", err))
		// The record may be torn on disk; not durable either way.
		st.taintLocked(mut)
		return
	}
	st.appendSeq++
	if mut.Kind == core.MutInsert || mut.Kind == core.MutMerge {
		st.pending = append(st.pending, pendingRec{seq: st.appendSeq, id: mut.ImageID})
	}
	if st.walRecords != nil {
		st.walRecords.Inc()
		st.walBytes.Add(int64(n))
	}
	if st.opts.SyncPolicy == FsyncInterval && time.Since(st.lastSync) >= st.opts.SyncInterval {
		if err := st.f.Sync(); err != nil {
			st.fail(fmt.Errorf("persist: syncing WAL: %w", err))
			return
		}
		st.lastSync = time.Now()
		st.markDurableLocked(st.appendSeq)
	}
}

// zeroStep is how far the open segment is extended at a time, and
// zeros the bytes an extension writes: static storage, not heap.
const zeroStep = 64 << 10

var zeros [zeroStep]byte

// extendLocked writes zeros from the open segment's end on disk up to
// the next zeroStep boundary at or past end, but never past the larger
// of SegmentBytes and end, where the segment rotates. The records that
// follow overwrite the zeros in place, so the segment's size changes
// once per step: a sync between extensions flushes data blocks only,
// not the filesystem's journal for a new size, and the sync after an
// extension makes the new size durable with the record that needed
// it. (Preallocation by fallocate would not do: the first write into
// an unwritten extent needs a journal commit again.) A reader takes
// the zeros for the segment's clean end (readFrame), and a seal cuts
// them off.
func (st *Store) extendLocked(end int64) error {
	target := min((end+zeroStep-1)/zeroStep*zeroStep, max(st.opts.SegmentBytes, end))
	for st.segAlloc < target {
		n, err := st.f.WriteAt(zeros[:min(zeroStep, target-st.segAlloc)], st.segAlloc)
		st.segAlloc += int64(n)
		if err != nil {
			return err
		}
	}
	return nil
}

// WaitDurable blocks until every record appended before the call is on
// stable storage, and returns the sticky error if durability has
// degraded. Under FsyncInterval and FsyncNever it returns immediately:
// the policy's staleness bound is the durability contract there.
//
// Under FsyncAlways this is the group-commit protocol: the first
// waiter to arrive becomes the leader and fsyncs once for every record
// appended so far; waiters arriving while that fsync is in flight
// sleep, and one of them leads the next round, syncing the whole batch
// that accumulated meanwhile. N concurrent committers therefore cost
// ~2 fsyncs, not N — the dominant durability cost amortizes across the
// batch.
func (st *Store) WaitDurable() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.opts.SyncPolicy != FsyncAlways || st.f == nil {
		return st.sticky
	}
	target := st.appendSeq
	for st.durableSeq < target && st.sticky == nil {
		if st.flushing != nil {
			st.flushCond.Wait()
			continue
		}
		f := st.f
		st.flushing = f
		upto := st.appendSeq
		st.mu.Unlock()
		err := f.Sync()
		st.mu.Lock()
		st.flushing = nil
		// A seal while we synced covered our records, and left the
		// handle for us to close (sealLocked).
		sealed := st.f != f
		if sealed {
			f.Close()
		}
		switch {
		case err != nil:
			// Even when the segment was sealed meanwhile: the seal's
			// fsync of the same file may pass over the pages ours lost.
			st.fail(fmt.Errorf("persist: group-commit sync: %w", err))
		case !sealed:
			if st.batchHist != nil && upto > st.durableSeq {
				st.batchHist.Observe(float64(upto - st.durableSeq))
			}
			st.markDurableLocked(upto)
		}
		st.flushCond.Broadcast()
	}
	return st.sticky
}

// markDurableLocked advances the durable watermark, clears pending
// taint candidates the watermark now covers, and wakes waiters.
func (st *Store) markDurableLocked(seq uint64) {
	if seq > st.durableSeq {
		st.durableSeq = seq
	}
	i := 0
	for i < len(st.pending) && st.pending[i].seq <= st.durableSeq {
		i++
	}
	if i > 0 {
		st.pending = append(st.pending[:0], st.pending[i:]...)
	}
	st.flushCond.Broadcast()
}

// taintLocked records that mut was dropped or left non-durable; only
// insert/merge records matter — a dropped touch loses an LRU stamp,
// and a dropped delete/split leaves the on-disk image a superset of
// memory, both safe to serve from after a crash.
func (st *Store) taintLocked(mut core.Mutation) {
	if mut.Kind == core.MutInsert || mut.Kind == core.MutMerge {
		st.tainted[mut.ImageID] = struct{}{}
	}
}

// fail makes err the sticky error, unless the store already has one:
// the first error sticks.
func (st *Store) fail(err error) {
	if st.sticky == nil {
		st.sticky = err
	}
	// Everything appended but not yet durable is now suspect.
	for _, p := range st.pending {
		st.tainted[p.id] = struct{}{}
	}
	st.pending = st.pending[:0]
	if st.walErrors != nil {
		st.walErrors.Inc()
	}
	// Unblock group-commit waiters; they return the sticky error.
	st.flushCond.Broadcast()
}

// Tainted reports whether an acked response naming image id could be
// lost in a crash: the record establishing the image was dropped or
// never made durable. Degraded-mode serving consults this before
// answering hits from memory.
func (st *Store) Tainted(id uint64) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.tainted[id]; ok {
		return true
	}
	// While the store is failing, appended-but-unflushed records are
	// just as suspect as dropped ones.
	if st.sticky != nil {
		for _, p := range st.pending {
			if p.id == id {
				return true
			}
		}
	}
	return false
}

// TaintedCount returns how many images are currently tainted.
func (st *Store) TaintedCount() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.tainted)
}

// sealLocked cuts the open segment's zeros off, syncs it and closes
// it, if there is one, so a sealed segment holds its records and
// nothing else. A good sync makes every record appended so far
// durable; a close error after it loses nothing. A failed truncation or
// sync fails the store: the kernel may have dropped the pages it could
// not write back, so a later sync could succeed without them. The
// seal's error is returned too.
func (st *Store) sealLocked() error {
	if st.f == nil {
		return nil
	}
	var err error
	if st.segAlloc > st.segBytes {
		err = st.f.Truncate(st.segBytes)
	}
	if err == nil {
		err = st.f.Sync()
	}
	if st.f != st.flushing {
		st.f.Close() // else the leader fsyncing it closes it (WaitDurable)
	}
	st.f = nil
	if err != nil {
		err = fmt.Errorf("persist: sealing segment %d: %w", st.seq, err)
		st.fail(err)
		return err
	}
	st.markDurableLocked(st.appendSeq)
	return nil
}

// openSegmentLocked creates wal-<seq>.log and makes it the open
// segment. It fsyncs the state directory before the first record is
// written, so the new name survives a power loss with the records
// later fsynced into the file. It is the only place a segment is
// created. seq becomes the store's sequence even when the open fails,
// so the next attempt takes a fresh name.
func (st *Store) openSegmentLocked(seq uint64) error {
	st.seq = seq
	f, err := st.opts.FS.OpenFile(st.segPath(seq), os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("persist: opening segment %d: %w", seq, err)
	}
	if err := syncDir(st.opts.FS, st.dir); err != nil {
		f.Close()
		return fmt.Errorf("persist: syncing the directory entry of segment %d: %w", seq, err)
	}
	st.f = f
	st.segBytes, st.segAlloc = 0, 0
	st.lastSync = time.Now()
	return nil
}

// rotateLocked seals the open segment and opens the next. Either
// failure fails the store; one left without an open segment logs
// nothing until a checkpoint opens the next.
func (st *Store) rotateLocked() {
	st.sealLocked()
	if err := st.openSegmentLocked(st.seq + 1); err != nil {
		st.fail(err)
	}
}

// CheckpointInfo reports one completed checkpoint.
type CheckpointInfo struct {
	Seq      uint64        `json:"seq"`
	Images   int           `json:"images"`
	Bytes    int64         `json:"bytes"`
	Duration time.Duration `json:"-"`
}

// Checkpoint is the store's one compaction: it rotates the WAL, durably
// writes state as checkpoint-<newseq>, and deletes the older segments
// and checkpoints it covers. An open segment that holds no record is
// not rotated: the checkpoint takes its sequence and the records that
// follow land in it, so a failing store's heal probes — checkpoints
// that cannot be written — leave at most the one empty segment the
// first of them opened. The caller must prevent concurrent
// mutations between exporting state and this call returning (the HTTP
// server holds the cache's write lock across both).
//
// The checkpoint holds everything in memory, so one written by a
// failed store heals it in place: the sticky error and the taint set
// are cleared and Heals counts it. Its write exercises create, write,
// fsync, rename and the directory fsync, so its success is direct
// evidence the fault cleared; the server's degraded-mode probe is this
// call. A checkpoint that cannot be written leaves the store as it was:
// a healthy store logs on into the new segment, its predecessors still
// holding every record it acknowledged, and a failed one stays failed.
// Only the rotation (a failed seal or segment open) fails a store here.
func (st *Store) Checkpoint(state core.ManagerState) (CheckpointInfo, error) {
	start := time.Now()
	st.mu.Lock()
	defer st.mu.Unlock()
	if errors.Is(st.sticky, errClosed) {
		return CheckpointInfo{}, st.sticky
	}
	if st.seq == 0 {
		return CheckpointInfo{}, errNotRecovered
	}
	if st.f == nil || st.segBytes > 0 {
		if st.rotateLocked(); st.f == nil {
			return CheckpointInfo{}, st.sticky
		}
	}
	now := time.Now()
	path := st.ckptPath(st.seq)
	if err := writeCheckpointFile(st.opts.FS, path, Checkpoint{
		SavedUnixNano: now.UnixNano(),
		WALSeq:        st.seq,
		State:         state,
	}); err != nil {
		return CheckpointInfo{}, fmt.Errorf("persist: writing checkpoint %d: %w", st.seq, err)
	}
	info := CheckpointInfo{Seq: st.seq, Images: len(state.Images)}
	if fi, err := st.opts.FS.Stat(path); err == nil {
		info.Bytes = fi.Size()
	}
	// Every record appended before the checkpoint is durable in it,
	// whatever the seal returned.
	st.markDurableLocked(st.appendSeq)
	if st.sticky != nil {
		st.sticky = nil
		clear(st.tainted)
		st.heals++
		if st.healsCtr != nil {
			st.healsCtr.Inc()
		}
	}
	st.lastCkptUnixNano.Store(now.UnixNano())
	st.tailBytes.Store(0)
	st.ckptBytes.Store(info.Bytes)
	if st.checkpoints != nil {
		st.checkpoints.Inc()
	}
	// Delete the covered files. A failed removal leaves a stale file
	// that recovery ignores and the next checkpoint retries. The
	// removals need no directory fsync: one a crash undoes brings back
	// only files the durable checkpoint supersedes.
	if segs, ckpts, err := st.scan(); err == nil {
		for _, seq := range segs {
			if seq < info.Seq {
				st.opts.FS.Remove(st.segPath(seq))
			}
		}
		for _, seq := range ckpts {
			if seq < info.Seq {
				st.opts.FS.Remove(st.ckptPath(seq))
			}
		}
	}
	info.Duration = time.Since(start)
	return info, nil
}

// LogBytes reports the facts the server's compaction rule weighs: the
// WAL tail (bytes appended since the last checkpoint, plus the
// bytes the recovery that opened the store replayed), the size of the
// last checkpoint written or loaded (0 before the first), and the WAL
// segment size.
func (st *Store) LogBytes() (tail, checkpoint, segment int64) {
	return st.tailBytes.Load(), st.ckptBytes.Load(), st.opts.SegmentBytes
}

// Heals returns how many checkpoints found the store failed and left
// it whole.
func (st *Store) Heals() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.heals
}

// Sync forces the WAL to stable storage regardless of policy. A failed
// fsync fails the store, as every fsync failure does; the sticky error
// is returned.
func (st *Store) Sync() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.f == nil {
		return st.sticky
	}
	if err := st.f.Sync(); err != nil {
		st.fail(fmt.Errorf("persist: syncing WAL: %w", err))
		return st.sticky
	}
	st.markDurableLocked(st.appendSeq)
	return st.sticky
}

// Close seals the WAL and closes the store for good, whatever the seal
// returned: commits after Close are dropped and Checkpoint refuses it.
// It returns the seal's error.
func (st *Store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	err := st.sealLocked()
	st.sticky = errClosed
	st.flushCond.Broadcast()
	return err
}

// RegisterMetrics exposes the durability series on reg: recovery
// duration and replay counts (from rep, which may be nil), WAL
// record/byte/error counters, checkpoint count, and a scrape-time
// checkpoint-age gauge.
func (st *Store) RegisterMetrics(reg *telemetry.Registry, rep *RecoveryReport) {
	if rep != nil {
		reg.Gauge("landlord_persist_recovery_seconds",
			"Wall-clock time of the last crash recovery").Set(rep.Duration.Seconds())
		reg.Gauge("landlord_persist_replayed_records",
			"WAL records replayed by the last recovery").Set(float64(rep.RecordsReplayed))
		reg.Gauge("landlord_persist_skipped_records",
			"WAL records skipped as corrupt or inapplicable by the last recovery").Set(float64(rep.RecordsSkipped))
	}
	st.walRecords = reg.Counter("landlord_persist_wal_records_total", "Mutations appended to the WAL")
	st.walBytes = reg.Counter("landlord_persist_wal_bytes_total", "Bytes appended to the WAL")
	st.walErrors = reg.Counter("landlord_persist_wal_errors_total", "WAL append/sync failures (durability degraded)")
	st.checkpoints = reg.Counter("landlord_persist_checkpoints_total", "Checkpoints written")
	st.healsCtr = reg.Counter("landlord_persist_heals_total", "Successful in-place store heals (degraded-mode recovery)")
	reg.GaugeFunc("landlord_persist_tainted_images",
		"Images whose durability records were lost to WAL failures", func() float64 {
			return float64(st.TaintedCount())
		})
	st.batchHist = reg.Histogram("landlord_persist_group_commit_records",
		"Records made durable per group-commit fsync",
		telemetry.ExponentialBuckets(1, 2, 10))
	reg.GaugeFunc("landlord_persist_checkpoint_age_seconds",
		"Seconds since the last durable checkpoint", func() float64 {
			t := st.lastCkptUnixNano.Load()
			if t == 0 {
				return -1
			}
			return time.Since(time.Unix(0, t)).Seconds()
		})
}

// ensure Store satisfies the hook interface.
var _ core.CommitHook = (*Store)(nil)
