package spec

import "repro/internal/pkggraph"

// Route fold.
//
// Both routing levels place a request by one order-free fold over its
// package keys. Each key contributes a term, fnv64a over the key's
// bytes and a '\n', and the terms are summed: a sum needs no sort, a
// pair of equal keys does not cancel as it would under XOR, and a term
// can be computed once per key and kept under a dense id. The cache's
// shard router (core.ShardFor) sums a table indexed by PkgID, built at
// repository load; the fleet master's key dictionary (fleet.KeyDict)
// stores a key's term when gossip first names it. Beside each table
// stands a string form that streams the same terms (core.ShardRoute,
// fleet.RouteKey), which the audits hold the table to. The levels
// finalise the sum differently — the shard level by RouteMix mod N, the
// fleet with a seed of its own — so that a spec's agent and its shard
// inside that agent are independent draws.

// fnv64a's parameters.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// RouteTerm is key's term in a route sum: fnv64a over the key's bytes
// followed by a '\n'.
func RouteTerm[K string | []byte](key K) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * fnvPrime64
	}
	return (h ^ '\n') * fnvPrime64
}

// RouteSum is the streamed fold: every key's term, summed. A repeated
// key counts each time; a caller to whom a repeat must not matter
// removes duplicates first.
func RouteSum(keys []string) uint64 {
	var sum uint64
	for _, k := range keys {
		sum += RouteTerm(k)
	}
	return sum
}

// RouteTerms is the interned fold: term i belongs to the key with dense
// id i. It only grows (Append), so a sum over ids taken earlier stays
// valid.
type RouteTerms []uint64

// NewRouteTerms tabulates the terms of repo's packages by PkgID.
func NewRouteTerms(repo *pkggraph.Repo) RouteTerms {
	t := make(RouteTerms, 0, repo.Len())
	for i := 0; i < repo.Len(); i++ {
		t = t.Append(repo.Package(pkggraph.PkgID(i)).Key())
	}
	return t
}

// Append returns t with key's term under the next id.
func (t RouteTerms) Append(key string) RouteTerms {
	term := RouteTerm(key)
	if mutantEnabled("route") && len(t)%5 == 3 {
		term++
	}
	return append(t, term)
}

// Sum folds s through the table: one load and one add per package, no
// key byte read. It equals RouteSum over s's keys.
func (t RouteTerms) Sum(s Spec) uint64 {
	var sum uint64
	for _, id := range s.IDs() {
		sum += t[id]
	}
	return sum
}

// RouteMix is the splitmix64 finaliser. A route sum concentrates its
// entropy in the low bits poorly, so it is mixed before it is reduced
// mod a shard count or placed on a ring.
func RouteMix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
