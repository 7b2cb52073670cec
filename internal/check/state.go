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

// shardStates exports every shard's own state, in shard order. Replay
// audits compare these, not the merged ExportState: merging sums the
// shards' float counters in shard order and keeps the largest shard
// allocator as NextID, and importing a merged state puts the whole
// Stats on shard 0 and rounds NextID up per residue class, so a merged
// state is not what a replay rebuilds bit for bit.
func shardStates(sm *core.ShardedManager) []core.ManagerState {
	var out []core.ManagerState
	sm.WithSharedAll(func(ms []*core.Manager) {
		for _, m := range ms {
			out = append(out, m.ExportState())
		}
	})
	return out
}

// shardReplayer returns a cache of len(base) shards, without a commit
// hook, each shard holding exactly its state in base: where a
// shard-by-shard replay starts.
func shardReplayer(repo *pkggraph.Repo, mcfg core.Config, base []core.ManagerState) (*core.ShardedManager, error) {
	mcfg.Commit, mcfg.Shards = nil, len(base)
	sm, err := core.NewSharded(repo, mcfg)
	if err != nil {
		return nil, err
	}
	sm.WithExclusiveAll(func(ms []*core.Manager) {
		for i := 0; i < len(ms) && err == nil; i++ {
			if err = ms[i].ImportState(base[i]); err != nil {
				err = fmt.Errorf("importing shard %d's base state: %w", i, err)
			}
		}
	})
	return sm, err
}

// shardsEqual is statesEqual shard by shard, naming the first shard
// that differs when there is more than one.
func shardsEqual(want, got []core.ManagerState) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d shards, want %d", len(got), len(want))
	}
	for i := range want {
		if err := statesEqual(want[i], got[i]); err != nil {
			if len(want) == 1 {
				return err
			}
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}
