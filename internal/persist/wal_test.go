package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
)

func sampleMutations() []core.Mutation {
	return []core.Mutation{
		{Kind: core.MutInsert, ImageID: 0, LastUse: 1, RequestBytes: 30, Packages: []string{"a/1/x", "b/1/x"}},
		{Kind: core.MutTouch, ImageID: 0, LastUse: 2, RequestBytes: 10},
		{Kind: core.MutMerge, ImageID: 0, LastUse: 3, Version: 1, Merges: 1, RequestBytes: 20, Added: []string{"c/1/x"}},
		{Kind: core.MutMerge, ImageID: 0, LastUse: 4, Version: 2, Merges: 2, RequestBytes: 30, Added: []string{"e/1/x", "d/1/x"}},
		// A merge as logged before deltas: the full post-merge list.
		{Kind: core.MutMerge, ImageID: 0, LastUse: 5, Version: 3, Merges: 3, RequestBytes: 20, Packages: []string{"a/1/x", "b/1/x", "c/1/x", "d/1/x", "e/1/x", "f/1/x"}},
		{Kind: core.MutDelete, ImageID: 0},
		{Kind: core.MutSplit, ImageID: 4, Version: 2, Packages: []string{"c/1/x"}},
	}
}

// appendFrame appends the framed payload to buf and returns it.
func appendFrame(buf, payload []byte) []byte {
	start := len(buf)
	buf = append(append(buf, make([]byte, frameHeaderSize)...), payload...)
	sealFrame(buf[start:])
	return buf
}

func encodeAll(t *testing.T, muts []core.Mutation) []byte {
	t.Helper()
	var buf []byte
	for _, mut := range muts {
		var err error
		buf, err = EncodeRecord(buf, mut)
		if err != nil {
			t.Fatalf("EncodeRecord: %v", err)
		}
	}
	return buf
}

func TestRecordRoundTrip(t *testing.T) {
	muts := sampleMutations()
	data := encodeAll(t, muts)
	got, err := ReadSegment(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("ReadSegment: %v", err)
	}
	if !reflect.DeepEqual(got, muts) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, muts)
	}
}

func TestReadSegmentEmpty(t *testing.T) {
	got, err := ReadSegment(bytes.NewReader(nil))
	if err != nil || len(got) != 0 {
		t.Fatalf("empty segment: got %d records, err %v", len(got), err)
	}
}

func TestReadSegmentTornTail(t *testing.T) {
	muts := sampleMutations()
	data := encodeAll(t, muts)
	// Every strict prefix decodes to a prefix of the records, and any
	// cut that does not land exactly on a record boundary reports a
	// torn tail.
	bounds := map[int]int{0: 0} // byte offset -> records intact
	off := 0
	for i, mut := range muts {
		rec, err := EncodeRecord(nil, mut)
		if err != nil {
			t.Fatal(err)
		}
		off += len(rec)
		bounds[off] = i + 1
	}
	for cut := 0; cut <= len(data); cut++ {
		got, err := ReadSegment(bytes.NewReader(data[:cut]))
		if n, boundary := bounds[cut]; boundary {
			if err != nil {
				t.Fatalf("cut %d (boundary): unexpected error %v", cut, err)
			}
			if len(got) != n {
				t.Fatalf("cut %d: %d records, want %d", cut, len(got), n)
			}
		} else {
			if !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("cut %d (torn): err = %v, want torn/corrupt", cut, err)
			}
		}
		for i, mut := range got {
			if !reflect.DeepEqual(mut, muts[i]) {
				t.Fatalf("cut %d: record %d differs", cut, i)
			}
		}
	}
}

func TestReadSegmentRejectsBitFlips(t *testing.T) {
	muts := sampleMutations()
	data := encodeAll(t, muts)
	for off := range data {
		mutated := append([]byte(nil), data...)
		mutated[off] ^= 0xFF
		got, err := ReadSegment(bytes.NewReader(mutated))
		// The decode must stop at or before the record containing the
		// flip, and everything it returned must be an intact prefix.
		if err == nil && len(got) == len(muts) {
			t.Fatalf("flip at %d went undetected", off)
		}
		for i, mut := range got {
			if !reflect.DeepEqual(mut, muts[i]) {
				t.Fatalf("flip at %d: surviving record %d corrupted: %+v", off, i, mut)
			}
		}
	}
}

func TestReadSegmentLengthCap(t *testing.T) {
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], MaxRecordBytes+1)
	_, err := ReadSegment(bytes.NewReader(hdr[:]))
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized length: err = %v, want ErrCorrupt", err)
	}
}

func TestCheckpointFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "checkpoint-test.ckpt")
	ck := Checkpoint{
		SavedUnixNano: 12345,
		WALSeq:        7,
		Meta:          map[string]string{"repo_seed": "1"},
		State: core.ManagerState{
			Images: []core.ImageSnapshot{{ID: 3, Packages: []string{"a/1/x"}, LastUse: 9, Version: 2}},
			NextID: 4,
			Clock:  9,
			Stats:  core.Stats{Requests: 9, Hits: 8, Inserts: 1},
		},
	}
	if err := WriteCheckpointFile(path, ck); err != nil {
		t.Fatalf("WriteCheckpointFile: %v", err)
	}
	got, err := ReadCheckpointFile(path)
	if err != nil {
		t.Fatalf("ReadCheckpointFile: %v", err)
	}
	if !reflect.DeepEqual(got, ck) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, ck)
	}
}

func TestCheckpointFileDetectsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.ckpt")
	if err := WriteCheckpointFile(path, Checkpoint{SavedUnixNano: 1}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for off := range data {
		mutated := append([]byte(nil), data...)
		mutated[off] ^= 0x01
		if err := os.WriteFile(path, mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadCheckpointFile(path); err == nil {
			t.Fatalf("flip at %d went undetected", off)
		}
	}
	// Trailing garbage is also rejected: a checkpoint is one record.
	if err := os.WriteFile(path, append(data, 'x'), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCheckpointFile(path); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}
