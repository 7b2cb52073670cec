package persist

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"repro/internal/core"
)

// Checkpoint is the durable envelope around a complete manager state.
// It is written as a single CRC-framed JSON record, so checkpoint
// validation reuses the WAL frame codec.
type Checkpoint struct {
	// SavedUnixNano timestamps the checkpoint (for checkpoint-age
	// monitoring and operator forensics).
	SavedUnixNano int64 `json:"saved_unix_nano"`
	// WALSeq is the first WAL segment NOT covered by this checkpoint;
	// recovery replays segments with seq >= WALSeq. Zero for
	// standalone checkpoints (the cmd/landlord wrapper, which keeps no
	// WAL).
	WALSeq uint64 `json:"wal_seq,omitempty"`
	// Meta carries embedder-defined context, e.g. the wrapper records
	// which repository the state was built against.
	Meta map[string]string `json:"meta,omitempty"`
	// State is the full manager state.
	State core.ManagerState `json:"state"`
}

// WriteCheckpointFile atomically writes ck to path: the frame goes to
// a temporary file in the same directory, is fsynced, renamed into
// place, and the directory is fsynced so the rename itself is durable.
func WriteCheckpointFile(path string, ck Checkpoint) error {
	return writeCheckpointFile(OSFS{}, path, ck)
}

// writeCheckpointFile is WriteCheckpointFile over an arbitrary FS; the
// store routes its checkpoints through here so fault injection covers
// the temp-write/sync/rename/dir-sync sequence too.
func writeCheckpointFile(fsys FS, path string, ck Checkpoint) error {
	data, err := encodeCheckpoint(&ck)
	if err != nil {
		return fmt.Errorf("persist: encoding checkpoint: %w", err)
	}
	dir := filepath.Dir(path)
	tmp, err := fsys.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer fsys.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := fsys.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(fsys, dir)
}

// ReadCheckpointFile reads and validates a checkpoint written by
// WriteCheckpointFile. Trailing garbage after the single frame is
// rejected: a checkpoint is exactly one record.
func ReadCheckpointFile(path string) (Checkpoint, error) {
	ck, _, err := readCheckpointFile(OSFS{}, path)
	return ck, err
}

// readCheckpointFile is ReadCheckpointFile over an arbitrary FS;
// reference reports that the payload was not in the shape this code
// writes and went through encoding/json.
func readCheckpointFile(fsys FS, path string) (ck Checkpoint, reference bool, err error) {
	f, err := fsys.Open(path)
	if err != nil {
		return Checkpoint{}, false, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	payload, err := readFrame(br, nil)
	if err != nil {
		return Checkpoint{}, false, fmt.Errorf("persist: checkpoint %s: %w", path, err)
	}
	if _, err := br.ReadByte(); err == nil {
		return Checkpoint{}, false, fmt.Errorf("persist: checkpoint %s: %w: trailing data", path, ErrCorrupt)
	}
	ck, reference, err = decodeCheckpoint(payload)
	if err != nil {
		return Checkpoint{}, reference, fmt.Errorf("persist: checkpoint %s: %w: %v", path, ErrCorrupt, err)
	}
	return ck, reference, nil
}

// syncDir fsyncs a directory so a just-renamed file's directory entry
// is durable. Failures are returned; on filesystems that reject
// directory syncs (some network mounts) callers may ignore them.
func syncDir(fsys FS, dir string) error {
	d, err := fsys.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// The checkpoint payload: one Checkpoint as JSON, with the record
// codec's treatment (canon.go). The shape json.Marshal writes is
//
//	{"saved_unix_nano":N[,"wal_seq":N][,"meta":{"k":"v",…}],
//	 "state":{"images":null|[]|[{"id":N,"packages":["k",…],
//	 "last_use":N,"merges":N[,"version":N]},…],"next_id":N,"clock":N,
//	 "stats":{"requests":N,…,"container_eff_sum":F}}}
//
// with meta's keys sorted. The float F is written by json.Marshal's
// rule (appendFloat) and read with strconv.ParseFloat over a number in
// JSON's grammar, as encoding/json reads it. Package keys are views
// into one copy of the payload — ImportState resolves each to an id
// and drops it — while meta's strings, which an embedder keeps, are
// copied.

// encodeCheckpoint frames ck's payload: appendCheckpoint's bytes, or
// json.Marshal's when a string needs an escape or the float is not
// finite (json.Marshal's error is then returned).
func encodeCheckpoint(ck *Checkpoint) ([]byte, error) {
	size := frameHeaderSize + 512
	for _, img := range ck.State.Images {
		size += 96
		for _, k := range img.Packages {
			size += len(k) + 3
		}
	}
	buf := make([]byte, frameHeaderSize, size)
	out, ok := appendCheckpoint(buf, ck)
	if !ok {
		payload, err := json.Marshal(ck)
		if err != nil {
			return nil, err
		}
		out = append(buf, payload...)
	}
	sealFrame(out)
	return out, nil
}

// appendCheckpoint appends ck's payload to buf; false means a string is
// not plain or the float is not finite, and what was appended is to be
// discarded.
func appendCheckpoint(buf []byte, ck *Checkpoint) ([]byte, bool) {
	ok := true
	buf = strconv.AppendInt(append(buf, `{"saved_unix_nano":`...), ck.SavedUnixNano, 10)
	if ck.WALSeq != 0 {
		buf = strconv.AppendUint(append(buf, `,"wal_seq":`...), ck.WALSeq, 10)
	}
	if len(ck.Meta) > 0 {
		names := make([]string, 0, len(ck.Meta))
		for k := range ck.Meta {
			names = append(names, k)
		}
		slices.Sort(names)
		sep := `,"meta":{`
		for _, k := range names {
			buf, ok = AppendString(append(buf, sep...), k)
			if !ok {
				return buf, false
			}
			if buf, ok = AppendString(append(buf, ':'), ck.Meta[k]); !ok {
				return buf, false
			}
			sep = ","
		}
		buf = append(buf, '}')
	}
	st := &ck.State
	buf = append(buf, `,"state":{"images":`...)
	if st.Images == nil {
		buf = append(buf, "null"...)
	} else {
		sep := byte('[')
		for i := range st.Images {
			img := &st.Images[i]
			buf = strconv.AppendUint(append(append(buf, sep), `{"id":`...), img.ID, 10)
			if buf, ok = AppendStrings(append(buf, `,"packages":`...), img.Packages); !ok {
				return buf, false
			}
			buf = strconv.AppendUint(append(buf, `,"last_use":`...), img.LastUse, 10)
			buf = strconv.AppendInt(append(buf, `,"merges":`...), int64(img.Merges), 10)
			if img.Version != 0 {
				buf = strconv.AppendUint(append(buf, `,"version":`...), img.Version, 10)
			}
			buf = append(buf, '}')
			sep = ','
		}
		if sep == '[' {
			buf = append(buf, '[')
		}
		buf = append(buf, ']')
	}
	buf = strconv.AppendUint(append(buf, `,"next_id":`...), st.NextID, 10)
	buf = strconv.AppendUint(append(buf, `,"clock":`...), st.Clock, 10)
	s := &st.Stats
	for _, f := range [...]struct {
		name string
		n    int64
	}{
		{`,"stats":{"requests":`, s.Requests}, {`,"hits":`, s.Hits}, {`,"inserts":`, s.Inserts},
		{`,"merges":`, s.Merges}, {`,"deletes":`, s.Deletes}, {`,"splits":`, s.Splits},
		{`,"bytes_written":`, s.BytesWritten}, {`,"requested_bytes":`, s.RequestedBytes},
	} {
		buf = strconv.AppendInt(append(buf, f.name...), f.n, 10)
	}
	if buf, ok = appendFloat(append(buf, `,"container_eff_sum":`...), s.ContainerEffSum); !ok {
		return buf, false
	}
	return append(buf, "}}}"...), true
}

// decodeCheckpoint decodes a checkpoint payload; reference reports that
// it went through encoding/json. The error is json.Unmarshal's.
func decodeCheckpoint(payload []byte) (ck Checkpoint, reference bool, err error) {
	if ck, ok := scanCheckpoint(payload); ok {
		return ck, false, nil
	}
	err = json.Unmarshal(payload, &ck)
	return ck, true, err
}

// scanCheckpoint recognises the canonical shape. false means the
// payload is something else, not that it is invalid.
func scanCheckpoint(p []byte) (ck Checkpoint, ok bool) {
	c := NewCursor(p)
	if !c.Lit(`{"saved_unix_nano":`) {
		return ck, false
	}
	ck.SavedUnixNano = c.Int(math.MaxInt64)
	if c.Lit(`,"wal_seq":`) {
		ck.WALSeq = c.Uint(math.MaxUint64)
	}
	if c.Lit(`,"meta":{`) {
		ck.Meta = make(map[string]string)
		for {
			k := strings.Clone(c.Str())
			if !c.Lit(`:`) {
				return ck, false
			}
			ck.Meta[k] = strings.Clone(c.Str())
			if !c.Lit(`,`) {
				break
			}
		}
		if !c.Lit(`}`) {
			return ck, false
		}
	}
	if !c.Lit(`,"state":{"images":`) {
		return ck, false
	}
	st := &ck.State
	switch {
	case c.Lit(`null`):
	case c.Lit(`[]`):
		st.Images = []core.ImageSnapshot{}
	case c.Lit(`[`):
		// Every image and every key in one slice each, sized from the
		// separators (which no plain key holds).
		images := bytes.Count(p, []byte(`{"id":`))
		st.Images = make([]core.ImageSnapshot, 0, images)
		keys := make([]string, 0, bytes.Count(p, []byte(`","`))+images)
		for {
			var img core.ImageSnapshot
			if !c.Lit(`{"id":`) {
				return ck, false
			}
			img.ID = c.Uint(math.MaxUint64)
			if !c.Lit(`,"packages":`) {
				return ck, false
			}
			start := len(keys)
			keys = c.List(keys)
			img.Packages = keys[start:len(keys):len(keys)]
			if !c.Lit(`,"last_use":`) {
				return ck, false
			}
			img.LastUse = c.Uint(math.MaxUint64)
			if !c.Lit(`,"merges":`) {
				return ck, false
			}
			img.Merges = int(c.Int(math.MaxInt))
			if c.Lit(`,"version":`) {
				img.Version = c.Uint(math.MaxUint64)
			}
			if !c.Lit(`}`) {
				return ck, false
			}
			st.Images = append(st.Images, img)
			if !c.Lit(`,`) {
				break
			}
		}
		if !c.Lit(`]`) {
			return ck, false
		}
		if mutantEnabled("ckptscan") {
			st.Images = st.Images[:len(st.Images)-1]
		}
	default:
		return ck, false
	}
	if !c.Lit(`,"next_id":`) {
		return ck, false
	}
	st.NextID = c.Uint(math.MaxUint64)
	if !c.Lit(`,"clock":`) {
		return ck, false
	}
	st.Clock = c.Uint(math.MaxUint64)
	s := &st.Stats
	for _, f := range [...]struct {
		name string
		n    *int64
	}{
		{`,"stats":{"requests":`, &s.Requests}, {`,"hits":`, &s.Hits}, {`,"inserts":`, &s.Inserts},
		{`,"merges":`, &s.Merges}, {`,"deletes":`, &s.Deletes}, {`,"splits":`, &s.Splits},
		{`,"bytes_written":`, &s.BytesWritten}, {`,"requested_bytes":`, &s.RequestedBytes},
	} {
		if !c.Lit(f.name) {
			return ck, false
		}
		*f.n = c.Int(math.MaxInt64)
	}
	if !c.Lit(`,"container_eff_sum":`) {
		return ck, false
	}
	s.ContainerEffSum = c.float()
	if !c.Lit(`}}}`) || !c.End() {
		return ck, false
	}
	return ck, true
}
