package fleet

import (
	"bytes"
	"fmt"
	"slices"
	"strings"

	"repro/internal/spec"
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
// by the repository the agents share. A key is cloned the first time
// gossip names it, since gossip hands over views into a heartbeat body;
// the mirrors store the dictionary's string, so all of them share one
// per key and none pins a body. Each key's route term (spec.RouteTerm)
// is stored beside it when gossip first names it, never on the request
// path. Not goroutine-safe: the Master guards it with its route lock.
type KeyDict struct {
	ids   map[string]uint32
	keys  []string        // by id
	terms spec.RouteTerms // by id
	// scratch is the request being routed as a bitset over ids, unknown
	// its keys with no id. Both are reused, so Route never allocates.
	scratch []uint64
	unknown [][]byte
}

// NewKeyDict creates an empty dictionary.
func NewKeyDict() *KeyDict {
	return &KeyDict{ids: make(map[string]uint32)}
}

// id returns key's bit position, assigning the next one, and storing a
// clone of the key and its route term, on first mention.
func (d *KeyDict) id(key string) uint32 {
	id, ok := d.ids[key]
	if !ok {
		key = strings.Clone(key)
		id = uint32(len(d.keys))
		d.ids[key] = id
		d.keys = append(d.keys, key)
		d.terms = d.terms.Append(key)
		if int(id>>6) >= len(d.scratch) {
			d.scratch = append(d.scratch, 0)
		}
	}
	return id
}

// checkTerms recomputes every key's route term and compares it with
// the stored one. Nothing else reads a stored term, so a wrong one
// would move every spec holding its key to another agent in silence.
func (d *KeyDict) checkTerms() error {
	if len(d.terms) != len(d.keys) {
		return fmt.Errorf("key dictionary: %d keys, %d route terms", len(d.keys), len(d.terms))
	}
	for id, k := range d.keys {
		if want := spec.RouteTerm(k); d.terms[id] != want {
			return fmt.Errorf("key dictionary: id %d %q stores route term %x, its key's is %x", id, k, d.terms[id], want)
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
// any key it has not seen. With interned non-nil, interned[i] is set to
// the dictionary's string for keys[i].
func (d *KeyDict) bitsOf(keys, interned []string) imageBits {
	var b imageBits
	for i, k := range keys {
		id := d.id(k)
		if interned != nil {
			interned[i] = d.keys[id]
		}
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
// question. A key's one map lookup sets its id bit and, the first time,
// adds its stored route term. Keys with no id (never gossiped) are
// deduplicated among themselves and their terms streamed. known is
// false when some key was never gossiped: no mirrored image can hold
// the spec, so the caller skips every scan.
func (d *KeyDict) Route(packages [][]byte) (key uint64, q KeyQuery, known bool) {
	clear(d.scratch)
	unknown := d.unknown[:0]
	var sum uint64
	for _, k := range packages {
		id, ok := d.ids[string(k)]
		if !ok {
			unknown = append(unknown, k)
			continue
		}
		w, bit := id>>6, uint64(1)<<(id&63)
		if d.scratch[w]&bit == 0 {
			d.scratch[w] |= bit
			q.distinct++
			sum += d.terms[id]
		}
	}
	known = len(unknown) == 0
	if known {
		q.words = d.scratch
	} else {
		slices.SortFunc(unknown, bytes.Compare)
		for _, k := range slices.CompactFunc(unknown, bytes.Equal) {
			sum += spec.RouteTerm(k)
		}
		clear(unknown)
	}
	d.unknown = unknown[:0]
	return routeKey(sum), q, known
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
		if want := f.dict.bitsOf(e.Packages, nil); !got.equal(want) {
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
