package persist

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/core"
	"repro/internal/pkggraph"
)

// Frame format, shared by WAL records and checkpoint files:
//
//	uint32 LE payload length | uint32 LE CRC32C(payload) | payload
//
// The CRC covers only the payload; a flipped bit anywhere in the
// frame (including the length, which then frames the wrong bytes)
// fails the check with probability 1-2^-32.

const (
	frameHeaderSize = 8
	// MaxRecordBytes caps a single frame's payload, so a corrupted
	// length field cannot drive a multi-gigabyte allocation. A 16 MB
	// record would hold a ~100k-package image; at paper scale a touch
	// is ~80 bytes, a merge delta ~6 KB and an insert ~14 KB, and a
	// checkpoint (one frame) a few hundred kilobytes.
	MaxRecordBytes = 16 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports a frame that is present but fails validation
// (bad length, bad checksum). A torn tail surfaces as
// io.ErrUnexpectedEOF instead.
var ErrCorrupt = errors.New("persist: corrupt record")

// sealFrame fills in the header of frame, whose payload is already in
// place after the frameHeaderSize bytes reserved for it.
func sealFrame(frame []byte) {
	payload := frame[frameHeaderSize:]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
}

// readFrame reads and validates one frame into buf's storage, growing
// it when the payload does not fit (callers that keep the payload pass
// nil and get storage of their own). io.EOF means a clean end of
// stream; io.ErrUnexpectedEOF a torn (partially written) frame; and
// ErrCorrupt a frame that fails its length sanity check or checksum.
//
// A stream ends cleanly where it ends, or where every byte left is
// zero: the zeros an open WAL segment is extended with ahead of its
// writer (Store.Commit). A zero header with anything but zeros after
// it is a frame of length 0, corrupt as ever, and a short header with
// a nonzero byte a torn one.
func readFrame(r *bufio.Reader, buf []byte) ([]byte, error) {
	// The header is read in place in r's buffer: an array handed to
	// r.Read would be one heap allocation per frame.
	hdr, err := r.Peek(frameHeaderSize)
	if allZero(hdr) {
		switch {
		case err == io.EOF:
			return nil, io.EOF
		case err != nil:
			return nil, io.ErrUnexpectedEOF
		case mutantEnabled("zerotail") || zeroToEOF(r):
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: frame length 0", ErrCorrupt)
	}
	if err != nil {
		return nil, io.ErrUnexpectedEOF
	}
	length, sum := binary.LittleEndian.Uint32(hdr[0:4]), binary.LittleEndian.Uint32(hdr[4:8])
	if length == 0 || length > MaxRecordBytes {
		return nil, fmt.Errorf("%w: frame length %d", ErrCorrupt, length)
	}
	r.Discard(frameHeaderSize) // cannot fail: Peek buffered these bytes
	if uint32(cap(buf)) < length {
		// append's growth, so a run of ever larger records does not
		// reallocate at each one.
		buf = append(buf[:0], make([]byte, length)...)
	}
	payload := buf[:length]
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, io.ErrUnexpectedEOF
	}
	if crc32.Checksum(payload, castagnoli) != sum {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return payload, nil
}

// allZero reports whether every byte of b is zero; an empty b is.
func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// zeroToEOF reports whether every byte left in r, read to its end, is
// zero. It consumes what it reads. A read error other than io.EOF
// answers false.
func zeroToEOF(r *bufio.Reader) bool {
	for {
		if r.Buffered() == 0 {
			if _, err := r.Peek(1); err != nil {
				return err == io.EOF
			}
		}
		b, _ := r.Peek(r.Buffered())
		if !allZero(b) {
			return false
		}
		r.Discard(len(b))
	}
}

// EncodeRecord frames one mutation for appending to a WAL segment. The
// payload is written into buf in place behind its header, which is
// filled in afterwards.
func EncodeRecord(buf []byte, mut core.Mutation) ([]byte, error) {
	start := len(buf)
	buf = append(buf, make([]byte, frameHeaderSize)...)
	out, ok := appendRecord(buf, mut)
	if !ok {
		payload, err := json.Marshal(mut)
		if err != nil {
			return buf[:start], err
		}
		out = append(buf, payload...)
	}
	sealFrame(out[start:])
	return out, nil
}

// segmentReader replays WAL segments through one frame buffer and one
// record, reused from record to record and from segment to segment.
type segmentReader struct {
	br    *bufio.Reader
	frame []byte
	dec   recordDecoder
	bytes int64 // size of the intact frames read so far, headers included
}

// newSegmentReader creates a reader that resolves keys against repo,
// whose buffer holds a few of the largest records the cache writes (a
// ~14 KB insert), so a record rarely straddles a refill.
func newSegmentReader(repo *pkggraph.Repo) *segmentReader {
	return &segmentReader{br: bufio.NewReaderSize(nil, 64<<10), dec: recordDecoder{repo: repo}}
}

// each decodes the records of segment r in order and hands each to fn.
// It stops where ReadSegment does and returns the reason ReadSegment
// returns. A record and its lists are valid only until fn returns.
func (sr *segmentReader) each(r io.Reader, fn func(*core.Record)) error {
	sr.br.Reset(r)
	for {
		payload, err := readFrame(sr.br, sr.frame)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		sr.frame = payload
		sr.bytes += frameHeaderSize + int64(len(payload))
		rec, err := sr.dec.decode(payload)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		fn(rec)
	}
}

// ReadRecords decodes the records of segment r as recovery does, each
// resolved against repo, and hands each to fn in order. A record and
// its lists are valid only until fn returns. It stops where ReadSegment
// does, for the same reasons.
func ReadRecords(r io.Reader, repo *pkggraph.Repo, fn func(*core.Record)) error {
	return newSegmentReader(repo).each(r, fn)
}

// ReadSegment decodes every intact record from r, stopping at the
// first torn or corrupt frame. It returns the decoded mutations and
// the reason decoding stopped early: nil for a clean end,
// io.ErrUnexpectedEOF for a torn tail, an ErrCorrupt-wrapped error for
// a failed checksum or length, or a JSON error for a record that
// frames valid bytes that do not parse.
//
// A prefix property holds by construction: whatever bytes follow a bad
// frame are never interpreted, so the result is always a prefix of the
// records originally appended.
//
// Recovery does not come through here: it resolves each record's keys
// as it scans them (ReadRecords). This is the collecting form, for
// callers that want the records themselves, and it reads each payload
// with encoding/json.
func ReadSegment(r io.Reader) ([]core.Mutation, error) {
	br := bufio.NewReader(r)
	var out []core.Mutation
	for {
		payload, err := readFrame(br, nil)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		var mut core.Mutation
		if err := json.Unmarshal(payload, &mut); err != nil {
			return out, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		out = append(out, mut)
	}
}
