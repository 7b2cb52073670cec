package persist

import (
	"bufio"
	"encoding/json"
	"fmt"
	"path/filepath"

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
	payload, err := json.Marshal(&ck)
	if err != nil {
		return fmt.Errorf("persist: encoding checkpoint: %w", err)
	}
	data := appendFrame(nil, payload)
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
	return readCheckpointFile(OSFS{}, path)
}

// readCheckpointFile is ReadCheckpointFile over an arbitrary FS.
func readCheckpointFile(fsys FS, path string) (Checkpoint, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return Checkpoint{}, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	payload, err := readFrame(br, nil)
	if err != nil {
		return Checkpoint{}, fmt.Errorf("persist: checkpoint %s: %w", path, err)
	}
	if _, err := br.ReadByte(); err == nil {
		return Checkpoint{}, fmt.Errorf("persist: checkpoint %s: %w: trailing data", path, ErrCorrupt)
	}
	var ck Checkpoint
	if err := json.Unmarshal(payload, &ck); err != nil {
		return Checkpoint{}, fmt.Errorf("persist: checkpoint %s: %w: %v", path, ErrCorrupt, err)
	}
	return ck, nil
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
