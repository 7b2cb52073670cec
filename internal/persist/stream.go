package persist

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/core"
)

// WAL streaming replication.
//
// A Streamer sits beside a WAL producer (Store.SetTap, or any caller
// of Publish) and keeps a bounded ring of CRC-framed records, each
// with a contiguous sequence number. Followers replicate by asking for
// "everything from sequence N": the request's from-value is the
// watermark ack (it proves every earlier record was applied), the
// response is a concatenation of raw frames, and the frame codec's
// prefix property means a torn response yields a clean prefix the next
// poll simply re-extends. When a follower's watermark has aged out of
// the ring — or the stream identity changed because the primary
// restarted — the streamer answers "gap" and the follower
// resyncs from a checkpoint the streamer's provider captures, then
// re-enters the record stream at the checkpoint's sequence.
//
// The pair has one deployment: a cache server exposes ServeWAL and
// ServeCheckpoint (server.EnableReplication), and a read replica pulls
// both over HTTP. Stream frames are the WAL's own frames, so corruption
// detection and the prefix property are the WAL's.

// Stream HTTP headers.
const (
	// StreamIDHeader carries the stream identity; a follower seeing a
	// different value than it last applied must resync.
	StreamIDHeader = "X-Landlord-Stream"
	// StreamFromHeader is the sequence of the first frame in the body.
	StreamFromHeader = "X-Landlord-Stream-From"
	// StreamNextHeader is the sequence after the last frame in the body
	// (the follower's next watermark once it applies everything).
	StreamNextHeader = "X-Landlord-Stream-Next"
)

// ErrStreamGap reports that a follower's watermark cannot be served
// from the streamer's ring (aged out, or the stream identity changed):
// the follower must resync from a checkpoint.
var ErrStreamGap = errors.New("persist: stream gap, checkpoint resync required")

// DefaultStreamRing is how many records a Streamer retains before
// laggards are forced through a checkpoint resync.
const DefaultStreamRing = 4096

// decodeFrames invokes fn for every intact frame in b, in order,
// stopping at the first torn or corrupt frame. It returns how many
// frames were decoded and why decoding stopped: nil for a clean end,
// io.ErrUnexpectedEOF for a torn tail, an ErrCorrupt-wrapped error for
// a failed checksum or length, or fn's error. The prefix property
// holds: bytes after a bad frame are never interpreted.
func decodeFrames(b []byte, fn func(payload []byte) error) (int, error) {
	br := bufio.NewReader(bytes.NewReader(b))
	n := 0
	for {
		payload, err := readFrame(br, nil)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return n, nil
			}
			return n, err
		}
		if err := fn(payload); err != nil {
			return n, err
		}
		n++
	}
}

// StreamBatch is one slice of the record stream: Count frames covering
// sequences [From, Next).
type StreamBatch struct {
	StreamID uint64 `json:"stream"`
	From     uint64 `json:"from"`
	Count    int    `json:"count"`
	Next     uint64 `json:"next"`
	// Frames is the concatenated CRC-framed records.
	Frames []byte `json:"frames,omitempty"`
}

// StreamCheckpointBatch is a checkpoint resync: one framed checkpoint
// payload that replaces the follower's state, after which the follower
// re-enters the record stream at Next.
type StreamCheckpointBatch struct {
	StreamID uint64 `json:"stream"`
	Next     uint64 `json:"next"`
	// Frame is the single CRC-framed checkpoint payload.
	Frame []byte `json:"frame"`
}

// StreamCheckpoint is the conventional checkpoint payload for cache
// streams: the full exported manager state plus the stream position it
// is consistent with. Providers marshal one under the same exclusion
// that serializes Publish so State and Next agree.
type StreamCheckpoint struct {
	Next  uint64            `json:"next"`
	State core.ManagerState `json:"state"`
}

// CheckpointFunc captures a resync checkpoint. It must return a
// payload consistent with a specific stream position: every record
// published before `next` is reflected in the payload and none at or
// after it — which the provider guarantees by capturing state and
// reading Streamer.Next under the same exclusion that serializes
// Publish calls (for the cache server, the all-shard exclusive lock).
type CheckpointFunc func() (payload []byte, next uint64, err error)

// Streamer is the primary side of WAL streaming: a bounded ring of
// framed records with contiguous sequence numbers, plus the checkpoint
// provider that rescues followers the ring no longer covers.
type Streamer struct {
	ckpt CheckpointFunc

	mu     sync.Mutex
	id     uint64
	floor  uint64 // sequence of frames[0]
	next   uint64 // sequence the next Publish assigns
	frames [][]byte
}

// NewStreamer creates a streamer with identity id (must be non-zero;
// followers treat 0 as "no stream yet") retaining up to
// DefaultStreamRing frames. ckpt provides resync checkpoints; nil
// disables resync (gapped followers stay gapped).
func NewStreamer(id uint64, ckpt CheckpointFunc) *Streamer {
	return &Streamer{id: id, floor: 1, next: 1, ckpt: ckpt}
}

// Next returns the sequence the next published record will get (one
// past the newest buffered record).
func (s *Streamer) Next() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.next
}

// Publish frames payload, appends it to the ring, and returns its
// sequence. The payload is copied; callers may reuse the slice.
func (s *Streamer) Publish(payload []byte) uint64 {
	frame := appendFrame(make([]byte, 0, frameHeaderSize+len(payload)), payload)
	s.mu.Lock()
	defer s.mu.Unlock()
	seq := s.next
	s.next++
	s.frames = append(s.frames, frame)
	if len(s.frames) > DefaultStreamRing {
		drop := len(s.frames) - DefaultStreamRing
		s.frames = append([][]byte(nil), s.frames[drop:]...)
		s.floor += uint64(drop)
	}
	return seq
}

// Batch returns frames covering [from, next), capped at maxBytes of
// frame data (<= 0: no cap; at least one frame is always included when
// available). ok is false when the ring cannot serve from — the
// watermark predates the ring's floor or exceeds next — and the caller
// should fall back to Checkpoint.
func (s *Streamer) Batch(from uint64, maxBytes int) (StreamBatch, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if from < s.floor || from > s.next {
		return StreamBatch{StreamID: s.id}, false
	}
	b := StreamBatch{StreamID: s.id, From: from, Next: from}
	for i := int(from - s.floor); i < len(s.frames); i++ {
		f := s.frames[i]
		if maxBytes > 0 && len(b.Frames) > 0 && len(b.Frames)+len(f) > maxBytes {
			break
		}
		b.Frames = append(b.Frames, f...)
		b.Count++
		b.Next++
	}
	return b, true
}

// Checkpoint captures a resync batch from the provider.
func (s *Streamer) Checkpoint() (StreamCheckpointBatch, error) {
	if s.ckpt == nil {
		return StreamCheckpointBatch{}, fmt.Errorf("persist: streamer has no checkpoint provider")
	}
	payload, next, err := s.ckpt()
	if err != nil {
		return StreamCheckpointBatch{}, err
	}
	s.mu.Lock()
	id := s.id
	s.mu.Unlock()
	return StreamCheckpointBatch{
		StreamID: id,
		Next:     next,
		Frame:    appendFrame(nil, payload),
	}, nil
}

// ServeWAL is the pull endpoint: GET ?from=N[&max=M] returns the
// concatenated frames from sequence N as a binary body, with the
// stream headers describing what was served. A gapped watermark gets
// 410 Gone — the follower's cue to hit ServeCheckpoint.
func (s *Streamer) ServeWAL(w http.ResponseWriter, r *http.Request) {
	from, err := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
	if err != nil {
		http.Error(w, "wal needs ?from=<uint64>", http.StatusBadRequest)
		return
	}
	maxBytes := 0
	if v := r.URL.Query().Get("max"); v != "" {
		if m, err := strconv.Atoi(v); err == nil {
			maxBytes = m
		}
	}
	b, ok := s.Batch(from, maxBytes)
	w.Header().Set(StreamIDHeader, strconv.FormatUint(b.StreamID, 10))
	if !ok {
		w.Header().Set(StreamNextHeader, strconv.FormatUint(s.Next(), 10))
		http.Error(w, "watermark gapped; resync from checkpoint", http.StatusGone)
		return
	}
	w.Header().Set(StreamFromHeader, strconv.FormatUint(b.From, 10))
	w.Header().Set(StreamNextHeader, strconv.FormatUint(b.Next, 10))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(b.Frames)
}

// ServeCheckpoint is the resync endpoint: GET returns one framed
// checkpoint payload as the body, with StreamNextHeader naming the
// sequence the follower re-enters the record stream at.
func (s *Streamer) ServeCheckpoint(w http.ResponseWriter, r *http.Request) {
	cb, err := s.Checkpoint()
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	w.Header().Set(StreamIDHeader, strconv.FormatUint(cb.StreamID, 10))
	w.Header().Set(StreamNextHeader, strconv.FormatUint(cb.Next, 10))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(cb.Frame)
}

// Follower is the replica side: it applies streamed records through
// Apply and checkpoint payloads through Restore, tracking the
// watermark (Next) that acks everything applied.
type Follower struct {
	// Apply consumes one streamed record payload.
	Apply func(payload []byte) error
	// Restore replaces the replica's state from a checkpoint payload.
	Restore func(payload []byte) error

	mu      sync.Mutex
	stream  uint64
	next    uint64
	applied uint64
	resyncs int
}

// NewFollower creates a follower expecting a fresh stream (watermark
// 1, no stream identity yet).
func NewFollower(apply, restore func(payload []byte) error) *Follower {
	return &Follower{Apply: apply, Restore: restore, next: 1}
}

// Next returns the follower's watermark: the sequence it needs next,
// which acks every earlier record.
func (f *Follower) Next() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.next
}

// Applied returns how many records have been applied in total.
func (f *Follower) Applied() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.applied
}

// Resyncs returns how many checkpoint resyncs the follower performed.
func (f *Follower) Resyncs() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.resyncs
}

// ApplyBatch applies the framed records of one batch beginning at
// sequence from on stream id. Records below the watermark are decoded
// and skipped (overlapping batches are harmless); a batch from a
// different stream or beyond the watermark returns ErrStreamGap. A
// torn or corrupt tail ends the batch early with no error — the clean
// prefix is applied, and the unchanged watermark makes the next poll
// re-fetch the rest. Apply errors abort and are returned; a merge
// delta its image's version refuses (core.ErrDeltaBase) means a record
// before it never arrived, which retrying the same sequence cannot
// repair, so it is reported as ErrStreamGap and Pull resyncs from a
// checkpoint.
func (f *Follower) ApplyBatch(stream, from uint64, frames []byte) (int, error) {
	f.mu.Lock()
	if f.stream == 0 && f.applied == 0 {
		f.stream = stream // first contact: adopt the stream
	}
	if stream != f.stream || from > f.next {
		f.mu.Unlock()
		return 0, ErrStreamGap
	}
	skip := int(f.next - from)
	f.mu.Unlock()

	applied := 0
	_, err := decodeFrames(frames, func(payload []byte) error {
		if skip > 0 {
			skip--
			return nil
		}
		if err := f.Apply(payload); err != nil {
			return err
		}
		applied++
		f.mu.Lock()
		f.next++
		f.applied++
		f.mu.Unlock()
		return nil
	})
	if err != nil && (errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, ErrCorrupt)) {
		// Torn/corrupt tail: the applied prefix is sound, the watermark
		// re-fetches the rest.
		return applied, nil
	}
	if errors.Is(err, core.ErrDeltaBase) {
		err = fmt.Errorf("%w: %v", ErrStreamGap, err)
	}
	return applied, err
}

// ApplyCheckpoint resyncs the follower: restore from the framed
// checkpoint payload, adopt the stream identity, and re-enter the
// record stream at next.
func (f *Follower) ApplyCheckpoint(stream, next uint64, frame []byte) error {
	var payload []byte
	n, err := decodeFrames(frame, func(p []byte) error {
		payload = append([]byte(nil), p...)
		return nil
	})
	if err != nil {
		return fmt.Errorf("persist: checkpoint frame: %w", err)
	}
	if n != 1 {
		return fmt.Errorf("persist: checkpoint batch carried %d frames, want 1", n)
	}
	if err := f.Restore(payload); err != nil {
		return err
	}
	f.mu.Lock()
	f.stream = stream
	f.next = next
	f.resyncs++
	f.mu.Unlock()
	return nil
}

// Pull performs one HTTP replication poll against a Streamer mounted
// at base+"/wal" and base+"/checkpoint": fetch from the watermark,
// apply what arrives, resync from the checkpoint on a gap (410, a
// stream identity change, or a watermark the primary cannot serve).
// It returns how many records were applied.
func (f *Follower) Pull(ctx context.Context, hc *http.Client, base string) (int, error) {
	if hc == nil {
		hc = http.DefaultClient
	}
	stream, next, body, status, err := f.fetch(ctx, hc,
		fmt.Sprintf("%s/wal?from=%d", base, f.Next()))
	if err != nil {
		return 0, err
	}
	gap := status == http.StatusGone
	if !gap && status != http.StatusOK {
		return 0, fmt.Errorf("persist: wal pull: status %d", status)
	}
	if !gap {
		n, err := f.ApplyBatch(stream, f.Next(), body)
		if err == nil {
			return n, nil
		}
		if !errors.Is(err, ErrStreamGap) {
			return n, err
		}
	}
	stream, next, body, status, err = f.fetch(ctx, hc, base+"/checkpoint")
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("persist: checkpoint pull: status %d", status)
	}
	if err := f.ApplyCheckpoint(stream, next, body); err != nil {
		return 0, err
	}
	return 0, nil
}

// fetch GETs url and returns the stream headers, body, and status.
func (f *Follower) fetch(ctx context.Context, hc *http.Client, url string) (stream, next uint64, body []byte, status int, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, 0, nil, 0, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, 0, nil, 0, err
	}
	defer resp.Body.Close()
	stream, _ = strconv.ParseUint(resp.Header.Get(StreamIDHeader), 10, 64)
	next, _ = strconv.ParseUint(resp.Header.Get(StreamNextHeader), 10, 64)
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		// A torn body is a torn tail: the clean prefix is still usable.
		err = nil
	}
	return stream, next, body, resp.StatusCode, nil
}
