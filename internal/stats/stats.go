// Package stats provides the small statistical toolkit used by the
// LANDLORD simulation harness: order statistics (median, quantiles),
// moments, streaming accumulators, and column-wise reductions over
// repeated simulation runs.
//
// The paper reports the median over 20 repeated simulations for every
// point in its α sweeps; Median and MedianOfColumns implement exactly
// that reduction.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Median returns the median of xs. It copies the input, so the caller's
// slice is not reordered. Median of an empty slice is NaN.
func Median(xs []float64) float64 {
	return Quantile(xs, 0.5)
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between closest ranks. It copies the input. Quantile of
// an empty slice is NaN; q outside [0,1] is clamped.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Mean returns the arithmetic mean of xs, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the sample standard deviation of xs (n-1 denominator),
// or NaN when fewer than two samples are given.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(xs)-1))
}

// Min returns the minimum of xs, or NaN for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or NaN for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// MedianOfColumns reduces a matrix of repeated runs (rows = repetitions,
// columns = series points) to the per-column median. All rows must have
// equal length; it panics otherwise, since mismatched repetition output
// indicates a harness bug rather than a data condition.
func MedianOfColumns(rows [][]float64) []float64 {
	if len(rows) == 0 {
		return nil
	}
	width := len(rows[0])
	for i, r := range rows {
		if len(r) != width {
			panic(fmt.Sprintf("stats: row %d has %d columns, want %d", i, len(r), width))
		}
	}
	out := make([]float64, width)
	col := make([]float64, len(rows))
	for j := 0; j < width; j++ {
		for i := range rows {
			col[i] = rows[i][j]
		}
		out[j] = Median(col)
	}
	return out
}

// Accumulator is a streaming mean/variance/min/max accumulator using
// Welford's algorithm. The zero value is ready to use.
type Accumulator struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Add folds x into the accumulator.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
}

// N returns the number of samples added.
func (a *Accumulator) N() int { return a.n }

// Mean returns the running mean, or NaN when empty.
func (a *Accumulator) Mean() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return a.mean
}

// Variance returns the running sample variance, or NaN when fewer than
// two samples have been added.
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return math.NaN()
	}
	return a.m2 / float64(a.n-1)
}

// StdDev returns the running sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// Min returns the smallest sample seen, or NaN when empty.
func (a *Accumulator) Min() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return a.min
}

// Max returns the largest sample seen, or NaN when empty.
func (a *Accumulator) Max() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return a.max
}
