package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Abs(a-b) <= eps
}

func TestMedianOdd(t *testing.T) {
	got := Median([]float64{5, 1, 3})
	if got != 3 {
		t.Fatalf("Median = %v, want 3", got)
	}
}

func TestMedianEven(t *testing.T) {
	got := Median([]float64{4, 1, 3, 2})
	if got != 2.5 {
		t.Fatalf("Median = %v, want 2.5", got)
	}
}

func TestMedianEmpty(t *testing.T) {
	if !math.IsNaN(Median(nil)) {
		t.Fatal("Median(nil) should be NaN")
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("Median mutated input: %v", xs)
	}
}

func TestQuantileEndpoints(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	if got := Quantile(xs, 0); got != 10 {
		t.Errorf("q0 = %v, want 10", got)
	}
	if got := Quantile(xs, 1); got != 40 {
		t.Errorf("q1 = %v, want 40", got)
	}
}

func TestQuantileClamps(t *testing.T) {
	xs := []float64{1, 2}
	if got := Quantile(xs, -3); got != 1 {
		t.Errorf("q<0 = %v, want 1", got)
	}
	if got := Quantile(xs, 7); got != 2 {
		t.Errorf("q>1 = %v, want 2", got)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	if got := Quantile(xs, 0.25); got != 2.5 {
		t.Errorf("q0.25 = %v, want 2.5", got)
	}
}

func TestQuantileSingleton(t *testing.T) {
	if got := Quantile([]float64{42}, 0.9); got != 42 {
		t.Errorf("singleton quantile = %v, want 42", got)
	}
}

func TestMeanAndStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	want := math.Sqrt(32.0 / 7.0)
	if got := StdDev(xs); !almostEqual(got, want, 1e-12) {
		t.Errorf("StdDev = %v, want %v", got, want)
	}
}

func TestStdDevTooFew(t *testing.T) {
	if !math.IsNaN(StdDev([]float64{1})) {
		t.Fatal("StdDev of one sample should be NaN")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if Min(xs) != -1 {
		t.Errorf("Min = %v", Min(xs))
	}
	if Max(xs) != 7 {
		t.Errorf("Max = %v", Max(xs))
	}
	if !math.IsNaN(Min(nil)) || !math.IsNaN(Max(nil)) {
		t.Error("Min/Max of empty should be NaN")
	}
}

func TestMedianOfColumns(t *testing.T) {
	rows := [][]float64{
		{1, 10, 100},
		{2, 20, 200},
		{3, 30, 300},
	}
	got := MedianOfColumns(rows)
	want := []float64{2, 20, 200}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("col %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestMedianOfColumnsEmpty(t *testing.T) {
	if got := MedianOfColumns(nil); got != nil {
		t.Fatalf("want nil, got %v", got)
	}
}

func TestMedianOfColumnsRagged(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged rows")
		}
	}()
	MedianOfColumns([][]float64{{1, 2}, {1}})
}

func TestAccumulatorMatchesBatch(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	xs := make([]float64, 1000)
	var acc Accumulator
	for i := range xs {
		xs[i] = r.NormFloat64()*3 + 10
		acc.Add(xs[i])
	}
	if acc.N() != len(xs) {
		t.Fatalf("N = %d", acc.N())
	}
	if !almostEqual(acc.Mean(), Mean(xs), 1e-9) {
		t.Errorf("mean %v vs %v", acc.Mean(), Mean(xs))
	}
	if !almostEqual(acc.StdDev(), StdDev(xs), 1e-9) {
		t.Errorf("std %v vs %v", acc.StdDev(), StdDev(xs))
	}
	if acc.Min() != Min(xs) || acc.Max() != Max(xs) {
		t.Errorf("min/max mismatch")
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	var acc Accumulator
	if !math.IsNaN(acc.Mean()) || !math.IsNaN(acc.Min()) || !math.IsNaN(acc.Max()) {
		t.Fatal("empty accumulator should report NaN")
	}
}

// Property: the median always lies between min and max, and matches the
// middle element for sorted odd-length inputs.
func TestMedianProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := raw[:0]
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		m := Median(xs)
		return m >= Min(xs) && m <= Max(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: quantile is monotonic non-decreasing in q.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, q1, q2 float64) bool {
		xs := raw[:0]
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		a := math.Mod(math.Abs(q1), 1)
		b := math.Mod(math.Abs(q2), 1)
		if a > b {
			a, b = b, a
		}
		return Quantile(xs, a) <= Quantile(xs, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Median equals sorting and picking the midpoint convention.
func TestMedianAgainstSortProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		sorted := make([]float64, len(xs))
		copy(sorted, xs)
		sort.Float64s(sorted)
		var want float64
		n := len(sorted)
		if n%2 == 1 {
			want = sorted[n/2]
		} else {
			want = (sorted[n/2-1] + sorted[n/2]) / 2
		}
		return almostEqual(Median(xs), want, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFormatBytes(t *testing.T) {
	cases := []struct {
		in   int64
		want string
	}{
		{0, "0B"},
		{512, "512B"},
		{KB, "1.00KB"},
		{3 * MB / 2, "1.50MB"},
		{GB, "1.00GB"},
		{14 * TB / 10, "1.40TB"},
	}
	for _, c := range cases {
		if got := FormatBytes(c.in); got != c.want {
			t.Errorf("FormatBytes(%d) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestByteConversions(t *testing.T) {
	if BytesToGB(GB) != 1 {
		t.Errorf("BytesToGB(GB) = %v", BytesToGB(GB))
	}
	if BytesToTB(TB) != 1 {
		t.Errorf("BytesToTB(TB) = %v", BytesToTB(TB))
	}
}
