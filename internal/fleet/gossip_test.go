package fleet

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
)

// applyAll drives follower through frames in order, resolving gaps the
// way the wire protocol does: on DeltaGap the follower asks the leader
// for a Full frame.
func applyAll(t *testing.T, dir *Directory, f *Follower, frames []DirDelta) {
	t.Helper()
	for _, fr := range frames {
		if f.Apply(fr) == DeltaGap {
			if got := f.Apply(dir.Full()); got != DeltaApplied && got != DeltaStale {
				t.Fatalf("full resync after gap: %v", got)
			}
		}
	}
}

// lossyWire is the transport of the out-of-order gossip tests: every
// frame crosses a JSON hop like the real heartbeat body, ~30% are
// duplicated, and delivery is shuffled within a sliding window of 6 so
// ordering is violated but not unboundedly.
func lossyWire(t *testing.T, rng *rand.Rand, frames []DirDelta) []DirDelta {
	t.Helper()
	delivered := make([]DirDelta, 0, len(frames)*2)
	for _, fr := range frames {
		b, err := json.Marshal(fr)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var back DirDelta
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		delivered = append(delivered, back)
		if rng.Float64() < 0.3 {
			delivered = append(delivered, back)
		}
	}
	for i := range delivered {
		j := i + rng.Intn(6)
		if j >= len(delivered) {
			j = len(delivered) - 1
		}
		delivered[i], delivered[j] = delivered[j], delivered[i]
	}
	return delivered
}

func assertConverged(t *testing.T, dir *Directory, f *Follower) {
	t.Helper()
	// A final delta from the follower's ack must close any remaining
	// distance (the steady-state heartbeat does exactly this).
	if res := f.Apply(dir.DeltaSince(f.Rev())); res == DeltaGap {
		if got := f.Apply(dir.Full()); got != DeltaApplied && got != DeltaStale {
			t.Fatalf("final full resync: %v", got)
		}
	}
	if f.Rev() != dir.Rev() {
		t.Fatalf("follower rev %d, leader rev %d", f.Rev(), dir.Rev())
	}
	if !reflect.DeepEqual(f.Entries(), dir.sortedEntries()) {
		t.Fatalf("directories diverge:\nfollower: %+v\nleader:   %+v", f.Entries(), dir.sortedEntries())
	}
}

func TestDirectoryDeltaBasics(t *testing.T) {
	dir := NewDirectory(0)
	f := NewFollower(NewKeyDict())

	dir.Put(DirEntry{ID: 1, Version: 1, Size: 100})
	dir.Put(DirEntry{ID: 2, Version: 1, Size: 200})
	d := dir.DeltaSince(0)
	if d.From != 0 || d.To != 2 || len(d.Upserts) != 2 {
		t.Fatalf("unexpected delta: %+v", d)
	}
	if got := f.Apply(d); got != DeltaApplied {
		t.Fatalf("apply: %v", got)
	}

	// Idempotent Put must not move the revision.
	rev := dir.Rev()
	dir.Put(DirEntry{ID: 1, Version: 1, Size: 100})
	if dir.Rev() != rev {
		t.Fatalf("idempotent Put bumped rev %d -> %d", rev, dir.Rev())
	}

	// Version bump coalesces with a later remove: only the remove ships.
	dir.Put(DirEntry{ID: 2, Version: 2, Size: 222})
	dir.Remove(2)
	d = dir.DeltaSince(f.Rev())
	if len(d.Upserts) != 0 || len(d.Removes) != 1 || d.Removes[0] != 2 {
		t.Fatalf("coalesced delta wrong: %+v", d)
	}
	if got := f.Apply(d); got != DeltaApplied {
		t.Fatalf("apply coalesced: %v", got)
	}
	assertConverged(t, dir, f)
}

func TestDirectoryDeltaStaleAndGap(t *testing.T) {
	dir := NewDirectory(0)
	f := NewFollower(NewKeyDict())
	dir.Put(DirEntry{ID: 1, Version: 1, Size: 10})
	first := dir.DeltaSince(0)
	if got := f.Apply(first); got != DeltaApplied {
		t.Fatalf("apply: %v", got)
	}
	// Duplicate of an already-applied frame: stale, no change.
	if got := f.Apply(first); got != DeltaStale {
		t.Fatalf("duplicate frame: got %v, want stale", got)
	}
	// A frame whose From is ahead of the follower: gap.
	dir.Put(DirEntry{ID: 2, Version: 1, Size: 20})
	dir.Put(DirEntry{ID: 3, Version: 1, Size: 30})
	ahead := dir.DeltaSince(2) // follower is at rev 1
	if got := f.Apply(ahead); got != DeltaGap {
		t.Fatalf("gapped frame: got %v, want gap", got)
	}
	if f.Rev() != 1 {
		t.Fatalf("gap mutated follower to rev %d", f.Rev())
	}
	// Full resync closes the gap; a stale Full afterwards is dropped.
	full := dir.Full()
	if got := f.Apply(full); got != DeltaApplied {
		t.Fatalf("full: %v", got)
	}
	if got := f.Apply(full); got != DeltaStale {
		t.Fatalf("replayed full: got %v, want stale", got)
	}
	assertConverged(t, dir, f)
}

func TestDirectoryJournalAgingForcesFull(t *testing.T) {
	dir := NewDirectory(8)
	for i := 0; i < 40; i++ {
		dir.Put(DirEntry{ID: uint64(i), Version: 1, Size: int64(i)})
	}
	d := dir.DeltaSince(2) // long since aged out of the 8-entry journal
	if !d.Full {
		t.Fatalf("aged-out ack did not force a full frame: %+v", d)
	}
	f := NewFollower(NewKeyDict())
	if got := f.Apply(d); got != DeltaApplied {
		t.Fatalf("apply full: %v", got)
	}
	assertConverged(t, dir, f)
}

// TestGossipLossyTransport is the out-of-order delta-application test
// over a lossy wire: frames are generated from a seeded mutation
// schedule, then delivered reordered (bounded shuffle window) and
// duplicated. The follower must drop stale frames, detect gaps, resync
// via Full frames, and converge to the leader's exact directory —
// covering the transport-level stale-peer cases the in-process
// TestDeltaSyncStalePeer cannot reach.
func TestGossipLossyTransport(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dir := NewDirectory(64)
		f := NewFollower(NewKeyDict())

		// Generate frames the way heartbeats would: mutate a little,
		// emit DeltaSince(lastAck) — but only advance the ack when the
		// frame would have been delivered in order, so later frames
		// genuinely overlap and conflict.
		var frames []DirDelta
		ack := uint64(0)
		live := map[uint64]uint64{} // id -> version
		for batch := 0; batch < 60; batch++ {
			for n := rng.Intn(4); n >= 0; n-- {
				id := uint64(rng.Intn(24))
				if v, ok := live[id]; ok && rng.Float64() < 0.3 {
					delete(live, id)
					dir.Remove(id)
					_ = v
				} else {
					live[id]++
					dir.Put(DirEntry{ID: id, Version: live[id], Size: int64(id * 10)})
				}
			}
			d := dir.DeltaSince(ack)
			frames = append(frames, d)
			if rng.Float64() < 0.7 { // the "ack arrived" case
				ack = d.To
			}
		}

		delivered := lossyWire(t, rng, frames)

		applyAll(t, dir, f, delivered)
		assertConverged(t, dir, f)
	}
}

// TestFollowerReset pins the generation-change contract: after Reset a
// follower accepts a fresh leader's stream from revision zero.
func TestFollowerReset(t *testing.T) {
	old := NewDirectory(0)
	old.Put(DirEntry{ID: 9, Version: 9, Size: 9})
	f := NewFollower(NewKeyDict())
	if got := f.Apply(old.Full()); got != DeltaApplied {
		t.Fatalf("apply: %v", got)
	}

	// Leader restarts: new Directory, revisions restart from zero. Its
	// early frames would look stale to the old follower state.
	fresh := NewDirectory(0)
	fresh.Put(DirEntry{ID: 1, Version: 1, Size: 1})
	if got := f.Apply(fresh.DeltaSince(0)); got != DeltaStale {
		t.Fatalf("pre-reset frame: got %v, want stale (this is why Reset exists)", got)
	}
	f.Reset()
	if got := f.Apply(fresh.DeltaSince(0)); got != DeltaApplied {
		t.Fatalf("post-reset frame: %v", got)
	}
	assertConverged(t, fresh, f)
}
