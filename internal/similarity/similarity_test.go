package similarity

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/pkggraph"
	"repro/internal/spec"
)

func sp(vs ...pkggraph.PkgID) spec.Spec { return spec.New(vs) }

func TestJaccardIdentical(t *testing.T) {
	a := sp(1, 2, 3)
	if d := JaccardDistance(a, a); d != 0 {
		t.Fatalf("distance to self = %v, want 0", d)
	}
}

func TestJaccardDisjoint(t *testing.T) {
	if d := JaccardDistance(sp(1, 2), sp(3, 4)); d != 1 {
		t.Fatalf("disjoint distance = %v, want 1", d)
	}
}

func TestJaccardEmptyConventions(t *testing.T) {
	if d := JaccardDistance(spec.Spec{}, spec.Spec{}); d != 0 {
		t.Fatalf("empty-empty = %v, want 0", d)
	}
	if d := JaccardDistance(spec.Spec{}, sp(1)); d != 1 {
		t.Fatalf("empty-nonempty = %v, want 1", d)
	}
}

func TestJaccardKnownValue(t *testing.T) {
	// |A∩B| = 2, |A∪B| = 4 -> d = 0.5
	if d := JaccardDistance(sp(1, 2, 3), sp(2, 3, 4)); d != 0.5 {
		t.Fatalf("distance = %v, want 0.5", d)
	}
}

func TestJaccardOneElementDiff(t *testing.T) {
	// Paper: "two specifications that differ only by one element" have
	// small distance.
	big := make([]pkggraph.PkgID, 100)
	for i := range big {
		big[i] = pkggraph.PkgID(i)
	}
	a := spec.New(big)
	b := spec.New(append(big[:99:99], 200))
	d := JaccardDistance(a, b)
	if d > 0.03 {
		t.Fatalf("one-element difference distance = %v, want small", d)
	}
}

func TestJaccardSimilarityComplement(t *testing.T) {
	a, b := sp(1, 2, 3), sp(3, 4)
	if s := JaccardSimilarity(a, b); math.Abs(s+JaccardDistance(a, b)-1) > 1e-15 {
		t.Fatal("similarity + distance != 1")
	}
}

// Property: Jaccard distance is a metric on the support we use —
// symmetric, bounded in [0,1], zero iff equal, and satisfies the
// triangle inequality.
func TestJaccardMetricProperties(t *testing.T) {
	f := func(xs, ys, zs []uint8) bool {
		a := specFrom(xs)
		b := specFrom(ys)
		c := specFrom(zs)
		dab := JaccardDistance(a, b)
		dba := JaccardDistance(b, a)
		if dab != dba {
			return false
		}
		if dab < 0 || dab > 1 {
			return false
		}
		if (dab == 0) != a.Equal(b) {
			return false
		}
		dac := JaccardDistance(a, c)
		dcb := JaccardDistance(c, b)
		return dab <= dac+dcb+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func specFrom(xs []uint8) spec.Spec {
	ids := make([]pkggraph.PkgID, len(xs))
	for i, x := range xs {
		ids[i] = pkggraph.PkgID(x % 32)
	}
	return spec.New(ids)
}

func TestNewHasherValidation(t *testing.T) {
	if _, err := NewHasher(0, 1); err == nil {
		t.Fatal("expected error for k=0")
	}
	h, err := NewHasher(16, 1)
	if err != nil || h.K() != 16 {
		t.Fatalf("NewHasher: %v, k=%d", err, h.K())
	}
}

func TestMustNewHasherPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNewHasher(-1, 0)
}

func TestSignDeterministic(t *testing.T) {
	h := MustNewHasher(32, 7)
	a := h.Sign(sp(1, 2, 3))
	b := h.Sign(sp(3, 2, 1))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("signature depends on order (it must not)")
		}
	}
}

func TestSignEmpty(t *testing.T) {
	h := MustNewHasher(8, 7)
	e := h.Sign(spec.Spec{})
	for _, v := range e {
		if v != math.MaxUint64 {
			t.Fatal("empty signature should be all MaxUint64")
		}
	}
	if d := EstimateDistance(e, h.Sign(spec.Spec{})); d != 0 {
		t.Fatalf("empty-empty estimate = %v, want 0", d)
	}
	if d := EstimateDistance(e, h.Sign(sp(1, 2, 3))); d != 1 {
		t.Fatalf("empty-nonempty estimate = %v, want 1", d)
	}
}

func TestEstimateDistanceIdentical(t *testing.T) {
	h := MustNewHasher(64, 3)
	s := h.Sign(sp(5, 6, 7, 8))
	if d := EstimateDistance(s, s); d != 0 {
		t.Fatalf("self estimate = %v", d)
	}
}

func TestEstimateDistanceMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	EstimateDistance(make(Signature, 4), make(Signature, 8))
}

func TestEstimateDistanceZeroLength(t *testing.T) {
	if d := EstimateDistance(Signature{}, Signature{}); d != 0 {
		t.Fatalf("zero-length estimate = %v", d)
	}
}

// TestMinHashAccuracy draws random set pairs with known Jaccard
// distance and checks the k=128 estimator lands within a few standard
// errors.
func TestMinHashAccuracy(t *testing.T) {
	h := MustNewHasher(128, 42)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		n := 200 + rng.Intn(400)
		overlap := rng.Intn(n)
		a := make([]pkggraph.PkgID, 0, n)
		b := make([]pkggraph.PkgID, 0, n)
		for i := 0; i < n; i++ {
			a = append(a, pkggraph.PkgID(i))
		}
		for i := 0; i < overlap; i++ {
			b = append(b, pkggraph.PkgID(i))
		}
		for i := 0; i < n-overlap; i++ {
			b = append(b, pkggraph.PkgID(100000+i))
		}
		sa, sb := spec.New(a), spec.New(b)
		exact := JaccardDistance(sa, sb)
		est := EstimateDistance(h.Sign(sa), h.Sign(sb))
		// Standard error ~ sqrt(d(1-d)/k) <= 0.045 at k=128; allow 4σ.
		if math.Abs(est-exact) > 0.18 {
			t.Errorf("trial %d: exact %.3f est %.3f (|Δ|=%.3f)", trial, exact, est, math.Abs(est-exact))
		}
	}
}

// Property: merging signatures equals signing the union.
func TestMergeSignaturesProperty(t *testing.T) {
	h := MustNewHasher(32, 9)
	f := func(xs, ys []uint8) bool {
		a := specFrom(xs)
		b := specFrom(ys)
		merged := h.Sign(a)
		MergeSignaturesInto(merged, h.Sign(b))
		direct := h.Sign(a.Union(b))
		for i := range merged {
			if merged[i] != direct[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeSignaturesMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MergeSignaturesInto(make(Signature, 2), make(Signature, 3))
}

// Property: estimator is always in [0,1] and symmetric.
func TestEstimatorRangeProperty(t *testing.T) {
	h := MustNewHasher(16, 11)
	f := func(xs, ys []uint8) bool {
		a := h.Sign(specFrom(xs))
		b := h.Sign(specFrom(ys))
		d1 := EstimateDistance(a, b)
		d2 := EstimateDistance(b, a)
		return d1 == d2 && d1 >= 0 && d1 <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
