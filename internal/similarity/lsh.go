package similarity

import (
	"fmt"
	"slices"
)

// LSHIndex is a banded locality-sensitive index over MinHash
// signatures, for retrieving merge candidates from image populations
// far larger than a linear scan can serve (site-wide registries with
// tens of thousands of images, rather than the tens a single head-node
// cache holds).
//
// Signatures of length bands*rows are cut into `bands` bands of `rows`
// values; two sets collide when any band matches exactly. The
// probability that sets with Jaccard similarity s share a band is
//
//	1 - (1 - s^rows)^bands
//
// With rows=1 the index retrieves even weakly similar sets with high
// probability (miss probability (1-s)^bands), which suits LANDLORD's
// merge search where the interesting similarity threshold 1-α can be
// as low as 0.05. Larger rows sharpen the cutoff for high-similarity
// retrieval at the cost of recall below it.
//
// Retrieval is probabilistic: a true candidate can be missed, so an
// index-backed search is an approximation of Algorithm 1's exact scan.
// The index is not safe for concurrent use.
type LSHIndex struct {
	bands, rows int
	tables      []map[uint64][]uint64 // band -> band hash -> ids
	sigs        map[uint64]Signature  // id -> signature (for Remove)
	// spare is the storage of emptied buckets, taken by the next bucket
	// created: a merge moves an id from a bucket it was alone in to a
	// new one, and an eviction's 64 buckets serve the next insert.
	spare [][]uint64
}

// NewLSHIndex creates an index for signatures of length bands*rows.
func NewLSHIndex(bands, rows int) (*LSHIndex, error) {
	if bands < 1 || rows < 1 {
		return nil, fmt.Errorf("similarity: LSH needs bands >= 1 and rows >= 1, got %d x %d", bands, rows)
	}
	x := &LSHIndex{
		bands:  bands,
		rows:   rows,
		tables: make([]map[uint64][]uint64, bands),
		sigs:   make(map[uint64]Signature, 64),
	}
	for i := range x.tables {
		x.tables[i] = make(map[uint64][]uint64)
	}
	return x, nil
}

// SignatureLen returns the signature length the index expects.
func (x *LSHIndex) SignatureLen() int { return x.bands * x.rows }

// Len returns the number of indexed sets.
func (x *LSHIndex) Len() int { return len(x.sigs) }

// Signature returns the signature id is indexed under — the index's own
// copy, which the caller must not modify — and whether id is indexed.
func (x *LSHIndex) Signature(id uint64) (Signature, bool) {
	sig, ok := x.sigs[id]
	return sig, ok
}

// bandHash mixes one band of the signature into a bucket key.
func bandHash(band Signature) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range band {
		h ^= v
		h *= 1099511628211
		h ^= h >> 29
	}
	return h
}

// Insert adds a set under id. Inserting an id that is already present
// is an error; use Update to change a signature.
func (x *LSHIndex) Insert(id uint64, sig Signature) error {
	if len(sig) != x.SignatureLen() {
		return fmt.Errorf("similarity: signature length %d, index expects %d", len(sig), x.SignatureLen())
	}
	if _, dup := x.sigs[id]; dup {
		return fmt.Errorf("similarity: id %d already indexed", id)
	}
	own := make(Signature, len(sig))
	copy(own, sig)
	x.sigs[id] = own
	for b := 0; b < x.bands; b++ {
		x.bucket(b, bandHash(own[b*x.rows:(b+1)*x.rows]), id)
	}
	return nil
}

// bucket adds id to one band's bucket, creating it from spare storage
// when there is some.
func (x *LSHIndex) bucket(b int, key, id uint64) {
	ids, ok := x.tables[b][key]
	if n := len(x.spare); !ok && n > 0 {
		ids, x.spare = x.spare[n-1], x.spare[:n-1]
	}
	x.tables[b][key] = append(ids, id)
}

// Remove deletes an id from the index. Removing an absent id is a
// no-op.
func (x *LSHIndex) Remove(id uint64) {
	sig, ok := x.sigs[id]
	if !ok {
		return
	}
	delete(x.sigs, id)
	for b := 0; b < x.bands; b++ {
		x.unbucket(b, bandHash(sig[b*x.rows:(b+1)*x.rows]), id)
	}
}

// unbucket takes id out of one band's bucket, deleting the bucket and
// keeping its storage when id was alone in it.
func (x *LSHIndex) unbucket(b int, key, id uint64) {
	ids := x.tables[b][key]
	for i, v := range ids {
		if v == id {
			ids[i] = ids[len(ids)-1]
			ids = ids[:len(ids)-1]
			break
		}
	}
	if len(ids) > 0 {
		x.tables[b][key] = ids
		return
	}
	delete(x.tables[b], key)
	if cap(ids) > 0 {
		x.spare = append(x.spare, ids)
	}
}

// Update replaces an id's signature (for merged images whose contents
// grew), inserting the id if it is absent. The stored copy is
// overwritten in place and only the bands whose values changed are
// re-bucketed — after a min-fold most have not. Buckets are unordered
// and retrieval sorts, so candidates are what Remove + Insert gives.
func (x *LSHIndex) Update(id uint64, sig Signature) error {
	if len(sig) != x.SignatureLen() {
		return fmt.Errorf("similarity: signature length %d, index expects %d", len(sig), x.SignatureLen())
	}
	own, ok := x.sigs[id]
	if !ok {
		return x.Insert(id, sig)
	}
	for b := 0; b < x.bands; b++ {
		was, now := own[b*x.rows:(b+1)*x.rows], sig[b*x.rows:(b+1)*x.rows]
		if slices.Equal(was, now) {
			continue
		}
		oldKey, newKey := bandHash(was), bandHash(now)
		copy(was, now)
		if oldKey != newKey {
			x.unbucket(b, oldKey, id)
			x.bucket(b, newKey, id)
		}
	}
	return nil
}

// CandidatesAppend appends to dst the ids sharing at least one band
// with sig, in ascending order without duplicates, and returns the
// (possibly regrown) slice. The query itself (if indexed) is included.
// Bucket contents are appended, then sorted and deduplicated in place:
// this is the merge scan's *primary* candidate source, so it must not
// allocate once dst has warmed up to the typical candidate count.
func (x *LSHIndex) CandidatesAppend(sig Signature, dst []uint64) ([]uint64, error) {
	if len(sig) != x.SignatureLen() {
		return dst, fmt.Errorf("similarity: signature length %d, index expects %d", len(sig), x.SignatureLen())
	}
	base := len(dst)
	for b := 0; b < x.bands; b++ {
		key := bandHash(sig[b*x.rows : (b+1)*x.rows])
		dst = append(dst, x.tables[b][key]...)
	}
	tail := dst[base:]
	slices.Sort(tail)
	dst = dst[:base+len(dedupSorted(tail))]
	return dst, nil
}

// dedupSorted removes adjacent duplicates in place and returns the
// shortened slice.
func dedupSorted(ids []uint64) []uint64 {
	if len(ids) < 2 {
		return ids
	}
	out := ids[:1]
	for _, id := range ids[1:] {
		if id != out[len(out)-1] {
			out = append(out, id)
		}
	}
	return out
}
