package server

import (
	"hash/maphash"
	"slices"
	"sync/atomic"

	"repro/internal/pkggraph"
	"repro/internal/spec"
)

// The request memo: a batch system sends the same job environment over
// and over — Algorithm 1's steady state is a superset hit — and every
// such body used to be scanned, resolved key by key and closed again.
// requestMemo remembers, per body, the spec it came to, and hands it
// back for a body that is byte for byte the same.
//
// It is a fixed array of slots, each an atomic pointer to an immutable
// entry, in pairs; a seeded maphash of the whole body picks the pair,
// and the body is looked for in both slots. A hit needs the body to
// equal, byte for byte and in length, the entry's canonical rendering —
// `{"packages":["`, Repo.Key of each id joined by `","`, a closing quote
// and the entry's suffix — so an entry answers exactly one body, one
// the decode path has read to this spec before, and a hash collision
// costs a miss, never another body's spec. An entry is made only for a
// body the scan took, whose spec the cache just answered with a hit,
// and which renders back to itself: traffic of fresh specs pays one
// hash and one pair of slot loads, never an allocation. It takes an
// empty slot of its pair, else the one its hash names. The repository
// is immutable for a server's life, so an entry never goes stale. The
// seed is the process's: every server in a process files a body in the
// same pair, so a harness that runs one fleet twice sees the same memo
// hits both times.
//
// Memory is bounded by constants: memoSlots entries, each holding at
// most memoMaxIDs package ids (the body's, then the spec's), so at most
// memoSlots × memoMaxIDs × 4 bytes = 8 MiB of ids.
const (
	memoSlots  = 1024
	memoMaxIDs = 2048
)

var memoSeed = maphash.MakeSeed()

// memoPrefix opens every canonical body, up to the first key; the keys
// are joined by `","`, and the last one's closing quote is followed by
// one of memoSuffixes.
const memoPrefix = `{"packages":["`

var memoSuffixes = [...]string{`]}`, `],"close":true}`, `],"close":false}`}

// memoEntry is one remembered body. It is never modified once stored.
type memoEntry struct {
	// hash is the body's memo hash: an entry of another body in the
	// same pair is passed over without reading the body.
	hash uint64
	// size is the length of the canonical rendering, checked first.
	size int
	// ids are the body's package ids in body order, duplicates kept.
	ids []pkggraph.PkgID
	// suffix closes the rendering (one of memoSuffixes).
	suffix string
	// spec is what the body decodes to: spec.New(ids), or
	// spec.WithClosure for close:true.
	spec spec.Spec
}

type requestMemo struct {
	repo  *pkggraph.Repo
	slots [memoSlots]atomic.Pointer[memoEntry]
}

func newRequestMemo(repo *pkggraph.Repo) *requestMemo {
	return &requestMemo{repo: repo}
}

// pair returns the two slots a body of this hash may be in.
func (m *requestMemo) pair(hash uint64) []atomic.Pointer[memoEntry] {
	i := hash % (memoSlots / 2) * 2
	return m.slots[i : i+2]
}

// lookup returns the entry body renders to, or nil. hash is the body's
// hash, which remember needs again.
func (m *requestMemo) lookup(body []byte) (*memoEntry, uint64) {
	hash := maphash.Bytes(memoSeed, memoBytes(body))
	pair := m.pair(hash)
	for i := range pair {
		if e := pair[i].Load(); e != nil && e.hash == hash && e.renders(m.repo, body) {
			return e, hash
		}
	}
	return nil, hash
}

// remember stores an entry for d's body as decoding to sp, which the
// cache has just answered with a hit. Only a body the scan took, whose
// keys Resolve turned into d.ids, is remembered, and not one that does
// not render back to itself (whitespace between tokens) or whose ids
// would pass memoMaxIDs.
func (m *requestMemo) remember(d *DecodedRequest, sp spec.Spec) {
	if !d.scanned || len(d.ids)+sp.Len() > memoMaxIDs {
		return
	}
	suffix := memoSuffix(d.buf)
	if suffix == "" {
		return
	}
	e := &memoEntry{hash: d.hash, ids: slices.Clone(d.ids), suffix: suffix, spec: sp}
	e.size = len(memoPrefix) + 3*(len(e.ids)-1) + 1 + len(suffix)
	for _, id := range e.ids {
		e.size += len(m.repo.Key(id))
	}
	if !e.renders(m.repo, d.buf) {
		return
	}
	pair := m.pair(d.hash)
	way := int(d.hash>>32) & 1
	if pair[0].Load() == nil {
		way = 0
	} else if pair[1].Load() == nil {
		way = 1
	}
	pair[way].Store(e)
}

// memoSuffix returns the canonical closing body ends with, or "".
func memoSuffix(body []byte) string {
	for _, s := range memoSuffixes {
		if len(body) >= len(s) && string(body[len(body)-len(s):]) == s {
			return s
		}
	}
	return ""
}

// renders reports whether body is exactly e's canonical rendering.
func (e *memoEntry) renders(repo *pkggraph.Repo, body []byte) bool {
	if mutantEnabled("reqmemo") {
		body = memoBytes(body) // the suffix goes unread, and so does the length
	} else if len(body) != e.size {
		return false
	}
	if len(body) < len(memoPrefix) || string(body[:len(memoPrefix)]) != memoPrefix {
		return false
	}
	i := len(memoPrefix)
	for n, id := range e.ids {
		if n > 0 {
			if len(body)-i < 3 || string(body[i:i+3]) != `","` {
				return false
			}
			i += 3
		}
		key := repo.Key(id)
		if len(body)-i < len(key) || string(body[i:i+len(key)]) != key {
			return false
		}
		i += len(key)
	}
	if i == len(body) || body[i] != '"' {
		return false
	}
	if mutantEnabled("reqmemo") {
		return i+1 == len(body)
	}
	return string(body[i+1:]) == e.suffix
}

// memoBytes is the part of a body the memo hashes: all of it, except
// under the reqmemo mutant, which stops before the suffix: bodies that
// differ only in their close flag then share a slot, so the mutant's
// verification, which ignores the suffix, meets the body it wrongly
// accepts.
func memoBytes(body []byte) []byte {
	if mutantEnabled("reqmemo") {
		if s := memoSuffix(body); s != "" {
			return body[:len(body)-len(s)]
		}
	}
	return body
}
