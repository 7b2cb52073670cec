// Package similarity implements the specification similarity metric at
// the heart of LANDLORD's merge policy: the Jaccard distance over
// package sets, plus the MinHash sketch (Broder 1997) the paper cites
// as "a constant-time approximation of the Jaccard metric … important
// in practice due to the sizes of the data involved".
package similarity

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/pkggraph"
	"repro/internal/spec"
)

// JaccardDistance returns
//
//	d_j(A, B) = 1 - |A ∩ B| / |A ∪ B|
//
// for the package sets of a and b. Two empty specifications are defined
// to have distance 0 (they are identical); an empty versus a non-empty
// specification has distance 1.
func JaccardDistance(a, b spec.Spec) float64 {
	if a.Empty() && b.Empty() {
		return 0
	}
	inter := a.IntersectionLen(b)
	union := a.Len() + b.Len() - inter
	return 1 - float64(inter)/float64(union)
}

// JaccardSimilarity returns 1 - JaccardDistance(a, b).
func JaccardSimilarity(a, b spec.Spec) float64 {
	return 1 - JaccardDistance(a, b)
}

// splitmix64 is the SplitMix64 finalizer: a fast, well-distributed
// 64-bit mixing function used to derive the K independent hash
// functions MinHash requires.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Signature is a MinHash sketch: the per-hash-function minima over a
// specification's package IDs. Signatures produced by the same Hasher
// are comparable with EstimateDistance.
type Signature []uint64

// Hasher produces MinHash signatures with k hash functions derived from
// a seed. It is safe for concurrent use; its only mutable state is the
// probe index (probe.go), built lazily on the first dense set it signs
// and published through an atomic pointer.
type Hasher struct {
	seeds []uint64

	hint  atomic.Int64 // universe size the owner expects ids to stay under
	index atomic.Pointer[probeIndex]
	build sync.Mutex // serialises index builds
	bits  sync.Pool  // *[]uint64 membership scratch for signProbe
}

// NewHasher creates a Hasher with k hash functions (k >= 1). Larger k
// reduces the estimator's standard error, which is about 1/sqrt(k).
func NewHasher(k int, seed int64) (*Hasher, error) {
	if k < 1 {
		return nil, fmt.Errorf("similarity: MinHash needs k >= 1, got %d", k)
	}
	h := &Hasher{seeds: make([]uint64, k)}
	s := uint64(seed)
	for i := range h.seeds {
		s = splitmix64(s + uint64(i) + 1)
		h.seeds[i] = s
	}
	return h, nil
}

// MustNewHasher is NewHasher that panics on error.
func MustNewHasher(k int, seed int64) *Hasher {
	h, err := NewHasher(k, seed)
	if err != nil {
		panic(err)
	}
	return h
}

// K returns the number of hash functions.
func (h *Hasher) K() int { return len(h.seeds) }

// HintUniverse tells the hasher that the ids it will sign lie in
// [0, n) — a repository's length — so the probe index is sized once.
// Without a hint, or past it, the index covers the largest id seen and
// regrows when a larger one appears. Signatures do not depend on it.
func (h *Hasher) HintUniverse(n int) { h.hint.Store(int64(n)) }

// hashID is hash function `seed` applied to one package id.
func hashID(id pkggraph.PkgID, seed uint64) uint64 {
	return splitmix64((uint64(id) + 0x100000001) ^ seed)
}

// minHash is the direct kernel for one position: the minimum of one
// hash function over ids, math.MaxUint64 for none.
func minHash(seed uint64, ids []pkggraph.PkgID) uint64 {
	lo := uint64(math.MaxUint64)
	for _, id := range ids {
		if v := hashID(id, seed); v < lo {
			lo = v
		}
	}
	return lo
}

// Sign computes the MinHash signature of s. An empty specification
// yields a signature of all math.MaxUint64, which estimates distance 0
// against another empty signature and (almost surely) 1 against any
// non-empty one — matching JaccardDistance's conventions.
func (h *Hasher) Sign(s spec.Spec) Signature {
	return h.SignInto(make(Signature, len(h.seeds)), s)
}

// SignInto is Sign into caller-owned storage: dst must have length
// h.K(). A set dense in its universe is signed through the probe index
// (probe.go), any other by the direct kernel; the two agree bit for
// bit. With a reused dst the miss path's signing is allocation-free.
func (h *Hasher) SignInto(dst Signature, s spec.Spec) Signature {
	if len(dst) != len(h.seeds) {
		panic(fmt.Sprintf("similarity: SignInto dst length %d, hasher has k=%d", len(dst), len(h.seeds)))
	}
	ids := s.IDs()
	if ix := h.probeFor(ids); ix != nil {
		h.signProbe(dst, ids, ix)
	} else {
		h.signDirect(dst, ids)
	}
	return dst
}

// SignDirect is Sign by the direct kernel alone — k hashes of every id,
// no index. It is what audits re-sign with (core.CheckIntegrity), so
// that they check the probe rather than repeat it.
func (h *Hasher) SignDirect(s spec.Spec) Signature {
	sig := make(Signature, len(h.seeds))
	h.signDirect(sig, s.IDs())
	return sig
}

func (h *Hasher) signDirect(dst Signature, ids []pkggraph.PkgID) {
	for i, seed := range h.seeds {
		dst[i] = minHash(seed, ids)
	}
}

// EstimateDistance estimates the Jaccard distance between the sets
// underlying two signatures as the fraction of positions whose minima
// differ. Both signatures must come from the same Hasher; it panics on
// length mismatch because comparing sketches from different hashers is
// meaningless and always a caller bug.
func EstimateDistance(a, b Signature) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("similarity: signature length mismatch %d vs %d", len(a), len(b)))
	}
	if len(a) == 0 {
		return 0
	}
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	return 1 - float64(same)/float64(len(a))
}

// MergeSignaturesInto folds b into dst in place, making dst the
// signature of the union of the two underlying sets: the positionwise
// minimum. This lets the cache manager maintain the sketch of a merged
// image in O(k) without re-signing the union or allocating.
func MergeSignaturesInto(dst, b Signature) {
	if len(dst) != len(b) {
		panic(fmt.Sprintf("similarity: signature length mismatch %d vs %d", len(dst), len(b)))
	}
	for i := range dst {
		if b[i] < dst[i] {
			dst[i] = b[i]
		}
	}
}
