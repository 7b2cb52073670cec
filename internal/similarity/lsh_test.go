package similarity

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/pkggraph"
	"repro/internal/spec"
)

func TestNewLSHIndexValidation(t *testing.T) {
	if _, err := NewLSHIndex(0, 1); err == nil {
		t.Error("bands=0 accepted")
	}
	if _, err := NewLSHIndex(1, 0); err == nil {
		t.Error("rows=0 accepted")
	}
	x, err := NewLSHIndex(16, 4)
	if err != nil || x.SignatureLen() != 64 {
		t.Fatalf("NewLSHIndex: %v, len=%d", err, x.SignatureLen())
	}
}

func TestLSHInsertRemove(t *testing.T) {
	x, _ := NewLSHIndex(8, 2)
	h := MustNewHasher(16, 1)
	sig := h.Sign(sp(1, 2, 3))
	if err := x.Insert(7, sig); err != nil {
		t.Fatal(err)
	}
	if x.Len() != 1 {
		t.Fatalf("Len = %d", x.Len())
	}
	if err := x.Insert(7, sig); err == nil {
		t.Fatal("duplicate id accepted")
	}
	cands, err := x.CandidatesAppend(sig, nil)
	if err != nil || len(cands) != 1 || cands[0] != 7 {
		t.Fatalf("Candidates = %v, %v", cands, err)
	}
	x.Remove(7)
	if x.Len() != 0 {
		t.Fatal("Remove failed")
	}
	x.Remove(7) // no-op
	cands, _ = x.CandidatesAppend(sig, nil)
	if len(cands) != 0 {
		t.Fatalf("stale candidates: %v", cands)
	}
}

func TestLSHLengthMismatch(t *testing.T) {
	x, _ := NewLSHIndex(8, 2)
	short := make(Signature, 4)
	if err := x.Insert(1, short); err == nil {
		t.Error("short insert accepted")
	}
	if err := x.Update(1, short); err == nil {
		t.Error("short update accepted")
	}
	if _, err := x.CandidatesAppend(short, nil); err == nil {
		t.Error("short query accepted")
	}
}

func TestLSHIdenticalSetsAlwaysCollide(t *testing.T) {
	x, _ := NewLSHIndex(16, 4)
	h := MustNewHasher(64, 2)
	a := h.Sign(sp(10, 20, 30, 40))
	b := h.Sign(sp(40, 30, 20, 10))
	x.Insert(1, a)
	cands, _ := x.CandidatesAppend(b, nil)
	if len(cands) != 1 || cands[0] != 1 {
		t.Fatalf("identical sets did not collide: %v", cands)
	}
}

func TestLSHInsertCopiesSignature(t *testing.T) {
	x, _ := NewLSHIndex(4, 1)
	h := MustNewHasher(4, 3)
	sig := h.Sign(sp(1, 2))
	x.Insert(1, sig)
	sig[0] = 12345 // caller mutates its slice
	cands, _ := x.CandidatesAppend(h.Sign(sp(1, 2)), nil)
	if len(cands) != 1 {
		t.Fatal("index shared caller's slice")
	}
}

func TestLSHUpdate(t *testing.T) {
	x, _ := NewLSHIndex(16, 1)
	h := MustNewHasher(16, 4)
	old := h.Sign(sp(1, 2, 3))
	x.Insert(5, old)
	grown := h.Sign(sp(1, 2, 3, 4, 5, 6))
	if err := x.Update(5, grown); err != nil {
		t.Fatal(err)
	}
	if x.Len() != 1 {
		t.Fatalf("Len = %d after update", x.Len())
	}
	cands, _ := x.CandidatesAppend(grown, nil)
	if len(cands) != 1 || cands[0] != 5 {
		t.Fatalf("updated signature not retrievable: %v", cands)
	}
}

// TestLSHRecall checks the banded retrieval probability: with rows=1
// and 64 bands, sets sharing >= 25% similarity must essentially always
// be retrieved, while retrieval of unrelated sets stays rare.
func TestLSHRecall(t *testing.T) {
	const k = 64
	h := MustNewHasher(k, 7)
	x, _ := NewLSHIndex(k, 1)
	rng := rand.New(rand.NewSource(9))

	base := make([]pkggraph.PkgID, 200)
	for i := range base {
		base[i] = pkggraph.PkgID(i)
	}
	query := spec.New(base)

	// 40 similar sets (share half of base) and 40 disjoint sets.
	for i := 0; i < 40; i++ {
		ids := append([]pkggraph.PkgID{}, base[:100]...)
		for j := 0; j < 100; j++ {
			ids = append(ids, pkggraph.PkgID(10000+i*1000+rng.Intn(900)))
		}
		x.Insert(uint64(i), h.Sign(spec.New(ids)))
	}
	for i := 0; i < 40; i++ {
		ids := make([]pkggraph.PkgID, 200)
		for j := range ids {
			ids[j] = pkggraph.PkgID(100000 + i*1000 + j)
		}
		x.Insert(uint64(1000+i), h.Sign(spec.New(ids)))
	}

	cands, err := x.CandidatesAppend(h.Sign(query), nil)
	if err != nil {
		t.Fatal(err)
	}
	similar, disjoint := 0, 0
	for _, id := range cands {
		if id < 1000 {
			similar++
		} else {
			disjoint++
		}
	}
	// Similar sets have s ~= 1/3: miss probability (2/3)^64 ~ 0. All 40
	// must be retrieved.
	if similar < 38 {
		t.Errorf("retrieved %d/40 similar sets", similar)
	}
	// Disjoint sets only collide through hash accidents.
	if disjoint > 4 {
		t.Errorf("retrieved %d/40 disjoint sets", disjoint)
	}
}

// TestLSHRowsSharpenCutoff verifies that more rows per band suppress
// weakly similar candidates.
func TestLSHRowsSharpenCutoff(t *testing.T) {
	const k = 64
	h := MustNewHasher(k, 11)
	sharp, _ := NewLSHIndex(8, 8) // s must be high to match 8 rows
	rng := rand.New(rand.NewSource(4))

	// Weakly similar set: ~10% overlap with the query.
	query := make([]pkggraph.PkgID, 100)
	for i := range query {
		query[i] = pkggraph.PkgID(i)
	}
	weak := append([]pkggraph.PkgID{}, query[:10]...)
	for j := 0; j < 90; j++ {
		weak = append(weak, pkggraph.PkgID(5000+rng.Intn(5000)))
	}
	sharp.Insert(1, h.Sign(spec.New(weak)))
	cands, _ := sharp.CandidatesAppend(h.Sign(spec.New(query)), nil)
	if len(cands) != 0 {
		t.Errorf("8-row bands retrieved a ~5%%-similar set: %v", cands)
	}

	// The same pair under rows=1 is found essentially always.
	loose, _ := NewLSHIndex(64, 1)
	loose.Insert(1, h.Sign(spec.New(weak)))
	cands, _ = loose.CandidatesAppend(h.Sign(spec.New(query)), nil)
	if len(cands) != 1 {
		t.Errorf("1-row bands missed a ~5%%-similar set")
	}
}

// removeInsert is Update as it was before it worked in place: the
// reference TestLSHUpdateInPlace holds the new one to.
func removeInsert(x *LSHIndex, id uint64, sig Signature) error {
	x.Remove(id)
	return x.Insert(id, sig)
}

// TestLSHUpdateInPlace drives two indexes through the same random
// sequence of inserts, min-folds, replacements and removals — one
// through Update, one through Remove + Insert — and requires the same
// candidates for every stored and every fresh signature, and no bucket
// left behind once everything is removed.
func TestLSHUpdateInPlace(t *testing.T) {
	for _, shape := range [][2]int{{64, 1}, {16, 4}, {1, 8}} {
		bands, rows := shape[0], shape[1]
		got, _ := NewLSHIndex(bands, rows)
		want, _ := NewLSHIndex(bands, rows)
		h := MustNewHasher(bands*rows, 3)
		rng := rand.New(rand.NewSource(int64(bands)))
		sigs := map[uint64]Signature{}
		compare := func(step int, sig Signature) {
			t.Helper()
			g, _ := got.CandidatesAppend(sig, nil)
			w, _ := want.CandidatesAppend(sig, nil)
			if !slices.Equal(g, w) {
				t.Fatalf("%dx%d step %d: candidates %v, remove+insert gives %v", bands, rows, step, g, w)
			}
		}
		for step := 0; step < 1500; step++ {
			id := uint64(rng.Intn(40))
			fresh := h.Sign(randomSet(rng, 1+rng.Intn(30), 200))
			switch cur, ok := sigs[id]; {
			case ok && rng.Intn(10) == 0:
				got.Remove(id)
				want.Remove(id)
				delete(sigs, id)
			case ok && rng.Intn(3) > 0:
				MergeSignaturesInto(fresh, cur) // a merge: most bands keep their value
				fallthrough
			default: // replace (a split), or insert through Update
				if err := got.Update(id, fresh); err != nil {
					t.Fatal(err)
				}
				if err := removeInsert(want, id, fresh); err != nil {
					t.Fatal(err)
				}
				sigs[id] = fresh
			}
			if got.Len() != want.Len() {
				t.Fatalf("step %d: Len %d, want %d", step, got.Len(), want.Len())
			}
			compare(step, fresh)
			for _, sig := range sigs {
				compare(step, sig)
			}
		}
		for id := range sigs {
			got.Remove(id)
		}
		for b, table := range got.tables {
			if len(table) != 0 {
				t.Fatalf("%dx%d: band %d keeps %d buckets after every id was removed", bands, rows, b, len(table))
			}
		}
	}
}

func TestLSHUpdateDoesNotAliasCaller(t *testing.T) {
	x, _ := NewLSHIndex(4, 1)
	a, b := Signature{1, 2, 3, 4}, Signature{1, 9, 3, 4}
	x.Insert(1, a)
	x.Update(1, b)
	b[1] = 7 // the caller's storage is its own (core folds img.sig in place)
	if c, _ := x.CandidatesAppend(Signature{0, 9, 0, 0}, nil); len(c) != 1 {
		t.Fatalf("candidates by the updated band: %v", c)
	}
	x.Remove(1)
	for band, table := range x.tables {
		if len(table) != 0 {
			t.Fatalf("band %d keeps a bucket after Remove", band)
		}
	}
}

// BenchmarkLSHUpdate is a merge's index update: an image's signature
// min-folded with a request's, then back (so the index does not drift),
// among 200 resident images. In place it allocates nothing: the stored
// copy is overwritten and a new bucket takes an emptied one's storage.
func BenchmarkLSHUpdate(b *testing.B) {
	const k = 64
	x, _ := NewLSHIndex(k, 1)
	h := MustNewHasher(k, 1)
	rng := rand.New(rand.NewSource(1))
	var base, folded []Signature
	for id := 0; id < 200; id++ {
		sig := h.Sign(randomSet(rng, 322, 9660))
		base = append(base, sig)
		fold := h.Sign(randomSet(rng, 40, 9660))
		MergeSignaturesInto(fold, sig)
		folded = append(folded, fold)
		x.Insert(uint64(id), sig)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := i % 200
		sig := folded[id]
		if i/200%2 == 1 {
			sig = base[id]
		}
		if err := x.Update(uint64(id), sig); err != nil {
			b.Fatal(err)
		}
	}
}
