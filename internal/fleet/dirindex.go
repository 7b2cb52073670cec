package fleet

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"
)

// Directory-mirror index.
//
// Affinity routing asks, for every routed request and every candidate
// agent, Algorithm 1's superset test against each image the agent
// gossiped. The mirror answers it the way internal/core does: package
// keys become dense bit positions and the test becomes a word-wise
// AND-NOT. The master has no repository to intern against, so the
// universe is a KeyDict grown from what gossip mentions; each Follower
// keeps one imageBits per mirrored image, built where the mirror
// changes (gossip.go). A request costs one dictionary lookup per key
// and a few dozen words per candidate image, and allocates nothing.

// KeyDict is the master-wide package-key dictionary: key → dense id in
// first-mention order. Ids are never reassigned or dropped, so bitsets
// built earlier stay valid as the dictionary grows; its size is bounded
// by the repository the agents share. The map keys are the gossiped
// strings themselves, not copies. Each key also has a lexicographic
// rank, refreshed on the gossip path (rerank), never on the request
// path. Not goroutine-safe: the Master guards it with its route lock.
type KeyDict struct {
	ids  map[string]uint32
	keys []string // by id
	// rank is each id's position in sorted key order, byRank its inverse;
	// ids assigned since the last rerank have none yet.
	rank, byRank []uint32
	// scratch and rankBits are the request being routed as bitsets over
	// ids and ranks, unknown its keys without a rank. They grow with the
	// dictionary, so Route never allocates.
	scratch, rankBits []uint64
	unknown           [][]byte
}

// NewKeyDict creates an empty dictionary.
func NewKeyDict() *KeyDict {
	return &KeyDict{ids: make(map[string]uint32)}
}

// id returns key's bit position, assigning the next one on first
// mention.
func (d *KeyDict) id(key string) uint32 {
	id, ok := d.ids[key]
	if !ok {
		id = uint32(len(d.keys))
		d.ids[key] = id
		d.keys = append(d.keys, key)
		if int(id>>6) >= len(d.scratch) {
			d.scratch = append(d.scratch, 0)
			d.rankBits = append(d.rankBits, 0)
		}
	}
	return id
}

// rerank gives the ids assigned since the last call their ranks: the
// new keys are sorted among themselves and merged into the ranked
// order, which is linear in the dictionary's size.
func (d *KeyDict) rerank() {
	n := len(d.rank)
	if n == len(d.keys) {
		return
	}
	fresh := make([]uint32, len(d.keys)-n)
	for i := range fresh {
		fresh[i] = uint32(n + i)
	}
	if mutantEnabled("rankstale") {
		d.byRank = append(d.byRank, fresh...)
	} else {
		slices.SortFunc(fresh, func(a, b uint32) int { return strings.Compare(d.keys[a], d.keys[b]) })
		merged := make([]uint32, 0, len(d.keys))
		for old := d.byRank; len(old)+len(fresh) > 0; {
			if len(fresh) > 0 && (len(old) == 0 || d.keys[fresh[0]] < d.keys[old[0]]) {
				merged, fresh = append(merged, fresh[0]), fresh[1:]
			} else {
				merged, old = append(merged, old[0]), old[1:]
			}
		}
		d.byRank = merged
	}
	d.rank = slices.Grow(d.rank, len(d.keys)-n)[:len(d.keys)]
	for r, id := range d.byRank {
		d.rank[id] = uint32(r)
	}
}

// checkRanks audits the rank table: every key ranked, byRank a
// permutation whose inverse is rank, and the keys strictly increasing in
// rank order — so rank[id(k)] is k's position among the sorted keys.
func (d *KeyDict) checkRanks() error {
	if len(d.rank) != len(d.keys) || len(d.byRank) != len(d.keys) {
		return fmt.Errorf("key dictionary: %d keys, %d ranked, rank order of %d", len(d.keys), len(d.rank), len(d.byRank))
	}
	for r, id := range d.byRank {
		if int(id) >= len(d.rank) || d.rank[id] != uint32(r) {
			return fmt.Errorf("key dictionary: rank %d names id %d, which does not have that rank", r, id)
		}
		if r > 0 && d.keys[d.byRank[r-1]] >= d.keys[id] {
			return fmt.Errorf("key dictionary: rank %d %q does not sort after rank %d %q", r, d.keys[id], r-1, d.keys[d.byRank[r-1]])
		}
	}
	return nil
}

// imageBits is one mirrored image's package set over a KeyDict. words
// reaches only to the image's highest id, so an image indexed before
// the dictionary grew needs no rebuild; card is the distinct-key count.
type imageBits struct {
	words []uint64
	card  int
}

// bitsOf indexes one image's package keys, growing the dictionary with
// any key it has not seen.
func (d *KeyDict) bitsOf(keys []string) imageBits {
	var b imageBits
	for _, k := range keys {
		id := d.id(k)
		w, bit := int(id>>6), uint64(1)<<(id&63)
		for w >= len(b.words) {
			b.words = append(b.words, 0)
		}
		if b.words[w]&bit == 0 {
			b.words[w] |= bit
			b.card++
		}
	}
	return b
}

func (b imageBits) equal(o imageBits) bool {
	return b.card == o.card && slices.Equal(b.words, o.words)
}

// covers reports req ⊆ b: no requested bit missing, exiting at the
// first word that has one.
func (b imageBits) covers(req []uint64) bool {
	for i, w := range req {
		if w == 0 {
			continue
		}
		if i >= len(b.words) || w&^b.words[i] != 0 {
			return false
		}
	}
	return true
}

// KeyQuery is a request's package keys translated by KeyDict.Route. It
// aliases the dictionary's scratch words: valid until the next Route.
type KeyQuery struct {
	words    []uint64
	distinct int
}

// Route translates a request's package keys (views into its body) in
// one pass into RouteKey's value and into the id space of the affinity
// question. A key's one map lookup sets its id bit and its rank bit, and
// walking the rank bits hashes the distinct keys in sorted order. Keys
// without a rank (never gossiped, or not yet reranked) are sorted apart
// and merged in before the rank their binary search finds. known is
// false when some key was never gossiped: no mirrored image can hold
// the spec, so the caller skips every scan.
func (d *KeyDict) Route(packages [][]byte) (key uint64, q KeyQuery, known bool) {
	clear(d.scratch)
	clear(d.rankBits)
	unknown := d.unknown[:0]
	known = true
	for _, k := range packages {
		id, ok := d.ids[string(k)]
		if !ok {
			known = false
			unknown = append(unknown, k)
			continue
		}
		w, bit := id>>6, uint64(1)<<(id&63)
		if d.scratch[w]&bit != 0 {
			continue
		}
		d.scratch[w] |= bit
		q.distinct++
		if int(id) >= len(d.rank) {
			unknown = append(unknown, k)
			continue
		}
		r := d.rank[id]
		d.rankBits[r>>6] |= 1 << (r & 63)
	}
	slices.SortFunc(unknown, bytes.Compare)
	unknown = slices.CompactFunc(unknown, bytes.Equal)
	// at is the rank before which unknown[u] sorts.
	at := func(u int) int {
		if u == len(unknown) {
			return math.MaxInt
		}
		return sort.Search(len(d.byRank), func(r int) bool { return d.keys[d.byRank[r]] >= string(unknown[u]) })
	}
	key = offset64
	u, next := 0, at(0)
	for wi, w := range d.rankBits {
		for ; w != 0; w &= w - 1 {
			r := wi<<6 | bits.TrailingZeros64(w)
			for ; next <= r; u, next = u+1, at(u+1) {
				key = hashLine(key, unknown[u])
			}
			key = hashLine(key, d.keys[d.byRank[r]])
		}
	}
	for ; u < len(unknown); u++ {
		key = hashLine(key, unknown[u])
	}
	clear(unknown)
	d.unknown = unknown[:0]
	if known {
		q.words = d.scratch
	}
	return key, q, known
}

// HoldsSuperset reports whether some mirrored image contains every key
// of q, which must come from the follower's own dictionary.
func (f *Follower) HoldsSuperset(q KeyQuery) bool {
	for _, img := range f.index {
		if img.card >= q.distinct && img.covers(q.words) {
			return true
		}
	}
	return false
}

// checkIndex rebuilds every mirrored image's bitset from its entry and
// compares it with the maintained one, and requires the index to hold
// nothing the mirror dropped. Images are visited in ID order so a
// violation reads the same on every run.
func (f *Follower) checkIndex() error {
	for _, e := range f.Entries() {
		got, ok := f.index[e.ID]
		if !ok {
			return fmt.Errorf("image %d is mirrored but not indexed", e.ID)
		}
		if want := f.dict.bitsOf(e.Packages); !got.equal(want) {
			return fmt.Errorf("image %d v%d: indexed bitset (%d keys) differs from its mirrored package set (%d keys)",
				e.ID, e.Version, got.card, want.card)
		}
	}
	if len(f.index) != len(f.entries) {
		var stale []uint64
		for id := range f.index {
			if _, ok := f.entries[id]; !ok {
				stale = append(stale, id)
			}
		}
		slices.Sort(stale)
		return fmt.Errorf("index still holds image(s) %v the mirror removed", stale)
	}
	return nil
}
