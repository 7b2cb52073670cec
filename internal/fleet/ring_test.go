package fleet

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"testing"
	"time"
)

// rendezvousOwner is a key's owner among members: the head of its
// rendezvous order ("" for no members), as routeLocked names it.
func rendezvousOwner(members []string, key uint64) string {
	if order := RendezvousOrder(members, key); len(order) > 0 {
		return order[0]
	}
	return ""
}

func agentNames(n int) []string {
	members := make([]string, n)
	for i := range members {
		members[i] = fmt.Sprintf("agent-%d", i)
	}
	return members
}

func owners(members []string, keys int) []string {
	out := make([]string, keys)
	for k := 0; k < keys; k++ {
		out[k] = rendezvousOwner(members, uint64(k)*0x9e3779b97f4a7c15)
	}
	return out
}

// without returns members minus one.
func without(members []string, gone string) []string {
	return slices.DeleteFunc(slices.Clone(members), func(m string) bool { return m == gone })
}

// TestRingKeyMovementBound pins the placement contract the fleet-chaos
// harness audits on a live master: removing one of N members moves at
// most 2/N of the keyspace, every moved key was the removed member's,
// re-adding it restores the exact assignment, and adding a fresh member
// moves at most 2/(N+1), all of it to the newcomer.
func TestRingKeyMovementBound(t *testing.T) {
	const keys = 20000
	for _, n := range []int{2, 3, 4, 8, 16} {
		members := agentNames(n)
		before := owners(members, keys)

		victim := members[n/2]
		after := owners(without(members, victim), keys)
		moved := 0
		for k := 0; k < keys; k++ {
			if before[k] != after[k] {
				moved++
				if before[k] != victim {
					t.Fatalf("n=%d: key %d moved %s -> %s without involving removed member %s",
						n, k, before[k], after[k], victim)
				}
			}
		}
		bound := 2 * keys / n
		if moved > bound {
			t.Fatalf("n=%d: removal moved %d/%d keys, bound %d (2/N)", n, moved, keys, bound)
		}
		if moved == 0 {
			t.Fatalf("n=%d: removal moved nothing; the member owned no keyspace", n)
		}

		// Re-adding restores the exact original assignment, in whatever
		// position the member comes back: the owner is a pure function
		// of the member set.
		restored := owners(append(without(members, victim), victim), keys)
		for k := 0; k < keys; k++ {
			if restored[k] != before[k] {
				t.Fatalf("n=%d: key %d not restored after re-add: %s != %s", n, k, restored[k], before[k])
			}
		}

		grown := owners(append(slices.Clone(members), "agent-new"), keys)
		moved = 0
		for k := 0; k < keys; k++ {
			if before[k] != grown[k] {
				moved++
				if grown[k] != "agent-new" {
					t.Fatalf("n=%d: key %d moved to %s, not the new member", n, k, grown[k])
				}
			}
		}
		if bound := 2 * keys / (n + 1); moved > bound {
			t.Fatalf("n=%d: addition moved %d/%d keys, bound %d", n, moved, keys, bound)
		}
	}
}

// TestRingBalance checks the spread: with no virtual nodes to tune,
// each of 6 members owns within 10% of its fair share of 30,000 keys
// (the share is binomial, σ ≈ 1.3% of it, so the bound is ~7.7σ).
func TestRingBalance(t *testing.T) {
	const keys, n = 30000, 6
	counts := map[string]int{}
	for _, o := range owners(agentNames(n), keys) {
		counts[o]++
	}
	fair := keys / n
	if len(counts) != n {
		t.Fatalf("%d of %d members own keys: %v", len(counts), n, counts)
	}
	for m, c := range counts {
		if c > fair*11/10 || c < fair*9/10 {
			t.Fatalf("member %s owns %d of %d keys (fair %d): spread too lumpy", m, c, keys, fair)
		}
	}
}

func TestRingEmptyAndSingle(t *testing.T) {
	if got := rendezvousOwner(nil, 42); got != "" {
		t.Fatalf("no members: owner %q", got)
	}
	for k := uint64(0); k < 100; k++ {
		if got := rendezvousOwner([]string{"only"}, k); got != "only" {
			t.Fatalf("single member: owner %q", got)
		}
	}
	// The same holds on a master: no live member names no owner and no
	// candidate, even while a dead one is still in the table.
	m := NewMaster(MasterConfig{SuspectAfter: -1})
	seedMember(t, m, "only")
	m.mu.Lock()
	m.ms.members["only"].state = AgentDead
	info := m.routeLocked(42, KeyQuery{}, false)
	m.mu.Unlock()
	if info.Owner != "" || len(info.Candidates) != 0 {
		t.Fatalf("only member dead: route %+v, want no owner and no candidates", info)
	}
}

// TestRendezvousStableUnderChurn pins the failover-order property: the
// relative order of surviving members for a key is unchanged by other
// members joining or leaving.
func TestRendezvousStableUnderChurn(t *testing.T) {
	members := []string{"a", "b", "c", "d", "e"}
	for key := uint64(0); key < 200; key++ {
		full := RendezvousOrder(members, key)
		// Drop "c"; the order of the rest must be the full order with
		// "c" deleted.
		var want []string
		for _, m := range full {
			if m != "c" {
				want = append(want, m)
			}
		}
		got := RendezvousOrder([]string{"a", "b", "d", "e"}, key)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("key %d: survivor order changed after churn: got %v want %v", key, got, want)
			}
		}
	}
}

// TestRingDeterministicAcrossInsertionOrder: placement is a pure
// function of the member set, not of the order members are listed in —
// a restarted master re-learning members in arbitrary order must route
// identically.
func TestRingDeterministicAcrossInsertionOrder(t *testing.T) {
	a := []string{"x", "y", "z", "w"}
	b := []string{"w", "z", "x", "y"}
	for k := uint64(0); k < 5000; k++ {
		if !slices.Equal(RendezvousOrder(a, k), RendezvousOrder(b, k)) {
			t.Fatalf("key %d routes differently across insertion orders", k)
		}
	}
}

// tieredRoute is the candidate order the master computed when a
// consistent-hash ring named the owner: four tiers built around an
// owner chosen apart from the rendezvous order. Kept here only as the
// reference routeLocked's single partition must reproduce, given the
// rendezvous owner.
func tieredRoute(ms *Membership, owner string, key uint64, q KeyQuery, known bool, maxAttempts int) RouteInfo {
	info := RouteInfo{Key: key, Owner: owner}
	routable := ms.Routable()
	ownerRoutable := contains(routable, owner)
	order := RendezvousOrder(routable, key)
	ownerHolds := false
	if known {
		ownerHolds = ownerRoutable && ms.HoldsSuperset(owner, q)
		if ownerHolds {
			info.Candidates = append(info.Candidates, owner)
		}
		for _, id := range order {
			if id != owner && ms.HoldsSuperset(id, q) {
				info.Candidates = append(info.Candidates, id)
			}
		}
		info.Affinity = !ownerHolds && len(info.Candidates) > 0
	}
	if ownerRoutable && !ownerHolds {
		info.Candidates = append(info.Candidates, owner)
	}
	for _, id := range order {
		if id == owner || contains(info.Candidates, id) {
			continue
		}
		info.Candidates = append(info.Candidates, id)
	}
	if len(info.Candidates) > maxAttempts {
		info.Candidates = info.Candidates[:maxAttempts]
	}
	return info
}

// TestRouteOrderDifferential holds routeLocked's one partition of the
// rendezvous order to the four-tier order it replaced, fed the
// rendezvous owner: 1–8 agents in random healthy/suspect/dead states,
// random subsets holding a superset of the request, MaxAttempts 1–5,
// and requests the dictionary knows, partly knows, or does not know.
func TestRouteOrderDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	states := []AgentState{AgentHealthy, AgentSuspect, AgentDead}
	pkgs := []string{"p0", "p1", "p2", "p3", "p4", "p5"}
	var redirects, spilled, truncated int
	for round := 0; round < 2000; round++ {
		maxAttempts := 1 + rng.Intn(5)
		m := NewMaster(MasterConfig{SuspectAfter: -1, MaxAttempts: maxAttempts})
		n := 1 + rng.Intn(8)
		req := []string{pkgs[rng.Intn(3)], pkgs[3+rng.Intn(3)]}
		if rng.Intn(5) == 0 {
			req = append(req, "unknown-"+strconv.Itoa(round))
		}
		for i := 0; i < n; i++ {
			id := "agent-" + strconv.Itoa(i)
			var entries []DirEntry
			if rng.Intn(2) == 0 {
				// A superset of the request's known keys.
				entries = append(entries, DirEntry{ID: 1, Version: 1, Size: 1, Packages: append([]string{"extra"}, req...)})
			} else {
				// Every key of the request but its first.
				entries = append(entries, DirEntry{ID: 1, Version: 1, Size: 1, Packages: append([]string{"extra"}, req[1:]...)})
			}
			seedMember(t, m, id, entries...)
		}
		m.mu.Lock()
		for i := 0; i < n; i++ {
			m.ms.members["agent-"+strconv.Itoa(i)].state = states[rng.Intn(len(states))]
		}
		key, q, known := m.ms.dict.Route(keyViews(req))
		for _, k := range []struct {
			q     KeyQuery
			known bool
		}{{q, known}, {KeyQuery{}, false}} {
			got := m.routeLocked(key, k.q, k.known)
			want := tieredRoute(m.ms, rendezvousOwner(m.ms.Live(), key), key, k.q, k.known, maxAttempts)
			if got.Owner != want.Owner || got.Affinity != want.Affinity || !slices.Equal(got.Candidates, want.Candidates) {
				snap := m.ms.Snapshot(time.Unix(0, 0))
				m.mu.Unlock()
				t.Fatalf("round %d (n=%d, max %d, known %v, members %+v): route %+v, four-tier order %+v",
					round, n, maxAttempts, k.known, snap, got, want)
			}
			if got.Affinity {
				redirects++
			}
			if got.Owner != "" && !contains(got.Candidates, got.Owner) {
				spilled++
			}
			if len(got.Candidates) == maxAttempts && maxAttempts < len(m.ms.Routable()) {
				truncated++
			}
		}
		m.mu.Unlock()
	}
	// Every branch the partition replaces must have been exercised.
	if redirects == 0 || spilled == 0 || truncated == 0 {
		t.Fatalf("rounds with an affinity redirect %d, an unrouted owner %d, a truncated list %d: want all nonzero", redirects, spilled, truncated)
	}
	t.Logf("affinity redirects %d, unrouted owners %d, truncated lists %d", redirects, spilled, truncated)
}

func TestRouteKeyOrderInsensitive(t *testing.T) {
	a := RouteKey([]string{"pkg-a", "pkg-b", "pkg-c"})
	b := RouteKey([]string{"pkg-c", "pkg-a", "pkg-b"})
	if a != b {
		t.Fatalf("RouteKey depends on package order: %x != %x", a, b)
	}
	if a == RouteKey([]string{"pkg-a", "pkg-b"}) {
		t.Fatal("distinct specs collided trivially")
	}
}
