package similarity

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/pkggraph"
)

// probeListLen is how many ids of the universe each hash function
// lists, give or take the binomial spread: 33 KB of index at k=64, and
// short enough that sorting the lists stays a quarter of the build,
// which hashes every id k times whatever the length.
const probeListLen = 128

// probeIndex lists, for each of the k hash functions, the ids of the
// universe [0, n) whose hash is at most one threshold, in ascending
// hash order. Every listed id hashes below every unlisted one, so the
// minimum of h_i over a set S ⊆ [0, n) is h_i of the first id in list
// i that is a member of S — when there is one.
type probeIndex struct {
	n   int
	off []uint32 // list i is ids[off[i]:off[i+1]]
	ids []uint32
}

func buildProbeIndex(seeds []uint64, n int) *probeIndex {
	limit := uint64(math.MaxUint64)
	if n > probeListLen {
		limit = math.MaxUint64 / uint64(n) * probeListLen
	}
	ix := &probeIndex{
		n:   n,
		off: make([]uint32, len(seeds)+1),
		ids: make([]uint32, 0, len(seeds)*min(n, probeListLen+probeListLen/8)),
	}
	type entry struct {
		v  uint64
		id uint32
	}
	list := make([]entry, 0, 2*probeListLen)
	for i, seed := range seeds {
		list = list[:0]
		// Four ids a round: their hashes overlap in the pipeline, and one
		// compare of the minimum passes the 19 rounds in 20 that list
		// nothing (a fifth off the build, which is all hashing).
		id := 0
		for ; id+4 <= n; id += 4 {
			a, b := hashID(pkggraph.PkgID(id), seed), hashID(pkggraph.PkgID(id+1), seed)
			c, d := hashID(pkggraph.PkgID(id+2), seed), hashID(pkggraph.PkgID(id+3), seed)
			if min(a, b, c, d) <= limit {
				for j, v := range [4]uint64{a, b, c, d} {
					if v <= limit {
						list = append(list, entry{v, uint32(id + j)})
					}
				}
			}
		}
		for ; id < n; id++ {
			if v := hashID(pkggraph.PkgID(id), seed); v <= limit {
				list = append(list, entry{v, uint32(id)})
			}
		}
		// Ids with equal hashes give the same minimum in either order.
		slices.SortFunc(list, func(a, b entry) int { return cmp.Compare(a.v, b.v) })
		for _, e := range list {
			ix.ids = append(ix.ids, e.id)
		}
		ix.off[i+1] = uint32(len(ix.ids))
	}
	return ix
}

// probeDense reports whether size ids out of a universe of n are dense
// enough for the probe to beat the direct kernel: two listed members
// expected per position, so that at most e^-2 of the positions fall
// back, and a walk to the first member (≈ n/size probes) shorter than
// the size hashes it replaces. Deltas of a few keys, tiny specs and
// small repositories fail it; nothing but the two sizes decides.
func probeDense(size, n int) bool {
	return size*probeListLen >= 2*n && size*size >= 2*n
}

// probeFor returns the index to sign ids with, or nil when they should
// take the direct kernel. The index is built on the first dense set,
// over the hinted universe or the set's largest id, whichever is more,
// and rebuilt at least a quarter larger when a dense set outgrows it —
// it is exact for any n above the set's largest id.
func (h *Hasher) probeFor(ids []pkggraph.PkgID) *probeIndex {
	if len(ids) == 0 {
		return nil
	}
	need := int(ids[len(ids)-1]) + 1 // ids are sorted: the last is the largest
	ix := h.index.Load()
	covered := ix != nil && ix.n >= need
	var n int
	switch {
	case covered:
		n = ix.n
	case ix == nil:
		n = max(need, int(h.hint.Load()))
	default:
		n = max(need, int(h.hint.Load()), ix.n+ix.n/4)
	}
	if !probeDense(len(ids), n) {
		return nil
	}
	if !covered {
		h.build.Lock()
		defer h.build.Unlock()
		if ix = h.index.Load(); ix == nil || ix.n < need {
			ix = buildProbeIndex(h.seeds, n)
			h.index.Store(ix)
		}
	}
	return ix
}

// signProbe fills dst with the signature of ids, all below ix.n:
// position i is h_i of the first listed id that is a member, by a
// dense bitset from the pooled scratch; a position with no listed
// member takes the direct minimum.
func (h *Hasher) signProbe(dst Signature, ids []pkggraph.PkgID, ix *probeIndex) {
	wp, _ := h.bits.Get().(*[]uint64)
	if wp == nil {
		wp = new([]uint64)
	}
	if nw := (ix.n + 63) / 64; len(*wp) < nw {
		*wp = make([]uint64, nw)
	}
	words := *wp // all zero between uses
	for _, id := range ids {
		words[id>>6] |= 1 << (id & 63)
	}
positions:
	for i, seed := range h.seeds {
		list := ix.ids[ix.off[i]:ix.off[i+1]]
		if mutantEnabled("probeskip") && len(list) > 0 {
			list = list[1:]
		}
		for _, id := range list {
			if words[id>>6]&(1<<(id&63)) != 0 {
				dst[i] = hashID(pkggraph.PkgID(id), seed)
				continue positions
			}
		}
		dst[i] = minHash(seed, ids)
	}
	clear(words)
	h.bits.Put(wp)
}
