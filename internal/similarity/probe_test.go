package similarity

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/pkggraph"
	"repro/internal/spec"
)

// referenceSign is the signing loop as it stood before the probe index:
// k hashes of every id, minima kept in place. It lives here only, as
// the oracle SignInto is held to.
func referenceSign(h *Hasher, s spec.Spec) Signature {
	sig := make(Signature, len(h.seeds))
	for i := range sig {
		sig[i] = math.MaxUint64
	}
	for _, id := range s.IDs() {
		x := uint64(id) + 0x100000001
		for i, seed := range h.seeds {
			v := splitmix64(x ^ seed)
			if v < sig[i] {
				sig[i] = v
			}
		}
	}
	return sig
}

// randomSet draws size distinct ids from [0, n).
func randomSet(rng *rand.Rand, size, n int) spec.Spec {
	ids := make([]pkggraph.PkgID, 0, size)
	if size*2 > n {
		for _, v := range rng.Perm(n)[:size] {
			ids = append(ids, pkggraph.PkgID(v))
		}
		return spec.New(ids)
	}
	seen := make(map[int]bool, size)
	for len(ids) < size {
		if v := rng.Intn(n); !seen[v] {
			seen[v] = true
			ids = append(ids, pkggraph.PkgID(v))
		}
	}
	return spec.New(ids)
}

// signChecker signs through SignInto with one reused destination and
// compares with the reference, counting the sets it has seen.
type signChecker struct {
	t    *testing.T
	h    *Hasher
	dst  Signature
	sets int
}

func newSignChecker(t *testing.T, h *Hasher) *signChecker {
	return &signChecker{t: t, h: h, dst: make(Signature, h.K())}
}

func (c *signChecker) check(s spec.Spec, what string) {
	c.t.Helper()
	c.sets++
	got, want := c.h.SignInto(c.dst, s), referenceSign(c.h, s)
	if !slices.Equal(got, want) {
		for i := range want {
			if got[i] != want[i] {
				c.t.Fatalf("%s: k=%d, %d ids: position %d is %#x, reference %#x", what, c.h.K(), s.Len(), i, got[i], want[i])
			}
		}
	}
	if fresh := c.h.Sign(s); !slices.Equal(fresh, want) {
		c.t.Fatalf("%s: Sign differs from the reference", what)
	}
}

func TestProbeSignDifferential(t *testing.T) {
	reps := 80
	if testing.Short() {
		reps = 3
	}
	rng := rand.New(rand.NewSource(22))
	total := 0
	for _, k := range []int{1, 7, 64, 128} {
		for _, n := range []int{1, 63, 64, 65, 300, 9660} {
			h := MustNewHasher(k, int64(k*31+n))
			h.HintUniverse(n)
			c := newSignChecker(t, h)
			what := fmt.Sprintf("universe %d", n)
			c.check(spec.Spec{}, what+" empty")
			c.check(sp(0), what+" {0}")
			c.check(sp(pkggraph.PkgID(n-1)), what+" {n-1}")
			c.check(sp(0, pkggraph.PkgID(n-1)), what+" {0,n-1}")
			// Every size once, then seeded sizes: small universes are
			// cheap, so they carry most of the count.
			for size := 1; size <= min(n, 2000); size++ {
				c.check(randomSet(rng, size, n), what)
			}
			for r := 0; r < reps*6000/(n+50); r++ {
				c.check(randomSet(rng, 1+rng.Intn(min(n, 1500)), n), what)
			}
			if ix := h.index.Load(); n >= 300 && (ix == nil || ix.n != n) {
				t.Fatalf("universe %d: dense sets were signed but the index is %+v", n, ix)
			}
			total += c.sets
		}
	}
	if !testing.Short() && total < 100000 {
		t.Fatalf("only %d sets compared, want at least 100000", total)
	}
	t.Logf("%d sets compared", total)
}

// TestProbeSparseSetsBuildNoIndex pins the gate's other side: sets too
// sparse to probe take the direct kernel and never pay for an index.
func TestProbeSparseSetsBuildNoIndex(t *testing.T) {
	h := MustNewHasher(64, 1)
	h.HintUniverse(9660)
	c := newSignChecker(t, h)
	rng := rand.New(rand.NewSource(1))
	for size := 0; size < 139; size++ {
		c.check(randomSet(rng, size, 9660), "sparse")
	}
	c.check(sp(3, 4000000000), "huge id")
	if ix := h.index.Load(); ix != nil {
		t.Fatalf("sparse sets built an index over %d ids", ix.n)
	}
}

// TestProbeRegrow signs ids at and beyond the hinted universe, and a
// creeping maximum on an unhinted hasher: the index must be rebuilt to
// cover them, geometrically, and stay exact.
func TestProbeRegrow(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	h := MustNewHasher(64, 9)
	h.HintUniverse(300)
	c := newSignChecker(t, h)
	c.check(randomSet(rng, 200, 300), "hinted")
	if ix := h.index.Load(); ix == nil || ix.n != 300 {
		t.Fatalf("index after a hinted dense set: %+v", ix)
	}
	beyond := randomSet(rng, 200, 300).Union(sp(300))
	c.check(beyond, "id == hint")
	if ix := h.index.Load(); ix.n != 375 {
		t.Fatalf("regrown index covers %d ids, want 300 + 300/4", ix.n)
	}
	c.check(randomSet(rng, 700, 5000), "far beyond the hint")
	if ix := h.index.Load(); ix.n < 4000 {
		t.Fatalf("index covers %d ids after a set drawn from 5000", ix.n)
	}

	h = MustNewHasher(64, 10)
	c = newSignChecker(t, h)
	builds, last := 0, 0
	for n := 400; n < 4000; n += 7 {
		c.check(randomSet(rng, n/2, n), "creeping maximum")
		if ix := h.index.Load(); ix.n != last {
			builds, last = builds+1, ix.n
		}
	}
	if builds > 12 {
		t.Fatalf("a maximum creeping from 400 to 4000 rebuilt the index %d times", builds)
	}
}

// TestProbeFallback signs sets built to hold none of the ids one
// position lists, so that position has to take the direct minimum.
func TestProbeFallback(t *testing.T) {
	const n = 9660
	h := MustNewHasher(64, 5)
	h.HintUniverse(n)
	c := newSignChecker(t, h)
	rng := rand.New(rand.NewSource(3))
	c.check(randomSet(rng, 400, n), "warm-up")
	ix := h.index.Load()
	if ix == nil {
		t.Fatal("no index after a dense set")
	}
	for pos := 0; pos < h.K(); pos++ {
		listed := make([]pkggraph.PkgID, 0, probeListLen*2)
		for _, id := range ix.ids[ix.off[pos]:ix.off[pos+1]] {
			listed = append(listed, pkggraph.PkgID(id))
		}
		if len(listed) < probeListLen/2 || len(listed) > probeListLen*2 {
			t.Fatalf("position %d lists %d ids, want about %d", pos, len(listed), probeListLen)
		}
		s := randomSet(rng, 600, n).Diff(spec.New(listed))
		c.check(s, fmt.Sprintf("no listed id of position %d", pos))
	}
}

// TestProbeConcurrentFirstUse races eight goroutines into a fresh
// hasher's first dense signs (the lazy build) and a regrow.
func TestProbeConcurrentFirstUse(t *testing.T) {
	h := MustNewHasher(64, 77)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			dst := make(Signature, h.K())
			for i := 0; i < 40; i++ {
				n := 2000 + 1500*(i/10) // three regrows on the way
				s := randomSet(rng, 100+rng.Intn(300), n)
				if !slices.Equal(h.SignInto(dst, s), referenceSign(h, s)) {
					t.Errorf("goroutine %d, set %d: signature differs from the reference", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// fuzzSignCase decodes a fuzz input: k, seed, hinted universe, then one
// byte per id giving its gap from the previous one — so a few hundred
// bytes make a set dense enough to probe, sorted and duplicate-free by
// construction.
func fuzzSignCase(data []byte) (k int, seed int64, hint int, ids []pkggraph.PkgID) {
	if len(data) < 5 {
		return 1, 0, 0, nil
	}
	k = 1 + int(data[0])%128
	seed = int64(data[1])
	hint = int(binary.LittleEndian.Uint16(data[2:4])) % 12001
	scale := 1 + int(data[4])%64 // widens gaps so ids can pass the hint
	next := 0
	for _, b := range data[5:] {
		next += int(b) * scale / 8
		ids = append(ids, pkggraph.PkgID(next))
		next++
	}
	return k, seed, hint, ids
}

func FuzzSign(f *testing.F) {
	dense := make([]byte, 5+400)
	copy(dense, []byte{63, 1, 0xbc, 0x25, 7}) // k=64, hint 9660, gaps ≈ 24
	for i := range dense[5:] {
		dense[5+i] = byte(i*37%61 + 1)
	}
	f.Add(dense)
	f.Add([]byte{63, 1, 0xbc, 0x25, 0})                    // empty set
	f.Add([]byte{0, 2, 0x2c, 0x01, 0, 5, 0, 0, 9, 200, 1}) // k=1, hint 300
	f.Add(append([]byte{6, 3, 0x40, 0x00, 0}, make([]byte, 64)...))
	f.Add(append([]byte{127, 4, 0x00, 0x00, 63}, dense[5:]...)) // unhinted, wide gaps
	f.Fuzz(func(t *testing.T, data []byte) {
		k, seed, hint, ids := fuzzSignCase(data)
		h := MustNewHasher(k, seed)
		h.HintUniverse(hint)
		c := newSignChecker(t, h)
		// A prefix first, so the whole set may have to regrow the index
		// the prefix built; then the whole set again on the warm index.
		c.check(spec.FromSorted(ids[:len(ids)/2]), "prefix")
		c.check(spec.FromSorted(ids), "whole")
		c.check(spec.FromSorted(ids), "again")
	})
}

func benchSet(size int) spec.Spec {
	return randomSet(rand.New(rand.NewSource(int64(size))), size, 9660)
}

func BenchmarkSignInto(b *testing.B) {
	for _, size := range []int{322, 160, 8} {
		b.Run(fmt.Sprintf("%dof9660", size), func(b *testing.B) {
			h := MustNewHasher(64, 1)
			h.HintUniverse(9660)
			s, dst := benchSet(size), make(Signature, 64)
			h.SignInto(dst, s)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.SignInto(dst, s)
			}
		})
	}
}

var benchIndex *probeIndex

func BenchmarkProbeIndexBuild(b *testing.B) {
	h := MustNewHasher(64, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchIndex = buildProbeIndex(h.seeds, 9660)
	}
}
