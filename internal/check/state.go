package check

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/pkggraph"
)

// stateJSON renders a manager state canonically: ManagerState keeps
// images in last-use order (each request stamps a unique clock), so
// equal caches marshal to identical bytes.
func stateJSON(st core.ManagerState) []byte {
	b, err := json.Marshal(st)
	if err != nil {
		panic(fmt.Sprintf("check: marshaling manager state: %v", err))
	}
	return b
}

// StateHash fingerprints a manager state. Two runs of the same seed
// must produce the same hash — the determinism tests compare exactly
// this.
func StateHash(st core.ManagerState) string {
	sum := sha256.Sum256(stateJSON(st))
	return hex.EncodeToString(sum[:])
}

// statesEqual compares two manager states byte for byte, returning a
// bounded diff on mismatch.
func statesEqual(want, got core.ManagerState) error {
	wb, gb := stateJSON(want), stateJSON(got)
	if bytes.Equal(wb, gb) {
		return nil
	}
	if len(want.Images) != len(got.Images) {
		return fmt.Errorf("%d images, want %d", len(got.Images), len(want.Images))
	}
	for i := range want.Images {
		if fmt.Sprintf("%+v", want.Images[i]) != fmt.Sprintf("%+v", got.Images[i]) {
			return fmt.Errorf("image[%d] = %+v, want %+v", i, got.Images[i], want.Images[i])
		}
	}
	return fmt.Errorf("counters differ: got clock=%d next_id=%d stats=%+v, want clock=%d next_id=%d stats=%+v",
		got.Clock, got.NextID, got.Stats, want.Clock, want.NextID, want.Stats)
}

// newReplayer returns a cache without a commit hook holding exactly
// base: where a replay of the mutations that followed base starts.
func newReplayer(repo *pkggraph.Repo, mcfg core.Config, base core.ManagerState) (*core.ShardedManager, error) {
	mcfg.Commit = nil
	c, err := core.NewSharded(repo, mcfg)
	if err != nil {
		return nil, err
	}
	if err := c.ImportState(base); err != nil {
		return nil, fmt.Errorf("importing the base state: %w", err)
	}
	return c, nil
}
