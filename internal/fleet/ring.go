package fleet

import (
	"sort"
	"strconv"

	"repro/internal/spec"
)

// Consistent-hash ring with virtual nodes, plus rendezvous ordering
// for failover.
//
// The ring answers "who owns this spec?": each member contributes
// VNodes points on a 64-bit circle and a key belongs to the first
// point clockwise from its hash. Removing a member reassigns only the
// keys its own points owned — in expectation 1/N of the keyspace, and
// the fleet-chaos harness asserts the 2/N bound — while every other
// key keeps its owner. That stability is the whole reason the master
// hashes instead of load-balancing: a spec that re-lands on the same
// agent is a local cache hit instead of a rebuild.
//
// Rendezvous (highest-random-weight) hashing provides the *failover
// order*: when the ring's pick is suspect, open-circuited, or
// refusing, the master walks the remaining members by rendezvous score
// for the key. Unlike "next clockwise on the ring", the rendezvous
// order for a key is independent of vnode layout and is stable under
// churn — members joining or leaving never reshuffle the relative
// order of the survivors, so retries during membership transitions
// stay consistent.

// DefaultVNodes is the virtual-node count per member: enough that the
// per-member load imbalance and the removal bound stay tight at small
// fleet sizes.
const DefaultVNodes = 96

// Ring is a consistent-hash ring. Not goroutine-safe; the Master
// guards it with its route lock.
type Ring struct {
	vnodes  int
	points  []ringPoint // sorted by hash
	members map[string]bool
}

type ringPoint struct {
	hash  uint64
	owner string
}

// NewRing creates an empty ring with the given virtual-node count per
// member (<= 0 takes DefaultVNodes).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	return &Ring{vnodes: vnodes, members: make(map[string]bool)}
}

// Members returns the member set, sorted.
func (r *Ring) Members() []string {
	out := make([]string, 0, len(r.members))
	for m := range r.members {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Len returns the member count.
func (r *Ring) Len() int { return len(r.members) }

// Has reports membership.
func (r *Ring) Has(member string) bool { return r.members[member] }

// Add inserts a member's virtual nodes (no-op if present).
func (r *Ring) Add(member string) {
	if r.members[member] {
		return
	}
	r.members[member] = true
	for i := 0; i < r.vnodes; i++ {
		h := spec.RouteMix(hashString(member + "#" + strconv.Itoa(i)))
		r.points = append(r.points, ringPoint{hash: h, owner: member})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Tie on the circle: lexicographic owner keeps Lookup
		// deterministic regardless of insertion order.
		return r.points[i].owner < r.points[j].owner
	})
}

// Remove deletes a member's virtual nodes (no-op if absent).
func (r *Ring) Remove(member string) {
	if !r.members[member] {
		return
	}
	delete(r.members, member)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.owner != member {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Lookup returns the member owning key ("" on an empty ring).
func (r *Ring) Lookup(key uint64) string {
	if len(r.points) == 0 {
		return ""
	}
	h := spec.RouteMix(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: first point clockwise
	}
	return r.points[i].owner
}

// RendezvousOrder returns members sorted by descending
// highest-random-weight score for key: the failover order after the
// ring's pick. The order is a pure function of (key, member), so churn
// elsewhere in the fleet never reorders the survivors.
func RendezvousOrder(members []string, key uint64) []string {
	type scored struct {
		member string
		score  uint64
	}
	ss := make([]scored, 0, len(members))
	for _, m := range members {
		ss = append(ss, scored{member: m, score: spec.RouteMix(key ^ hashString(m))})
	}
	sort.Slice(ss, func(i, j int) bool {
		if ss[i].score != ss[j].score {
			return ss[i].score > ss[j].score
		}
		return ss[i].member < ss[j].member
	})
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = s.member
	}
	return out
}
