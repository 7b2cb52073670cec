package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0 <= p <= 1) of vals by the
// nearest-rank rule on a sorted copy. An empty input yields 0.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(vals []float64) float64 { return percentile(vals, 0.5) }

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// windowedPercentile splits vals, in the order given, into consecutive
// windows of size window, takes the p-quantile of each full window, and
// returns the median across windows with the window count. A burst from
// a noisy neighbour spoils one window's tail, not the median of tails.
// A trailing partial window is dropped; with fewer values than one
// window the whole input is one window.
func windowedPercentile(vals []float64, window int, p float64) (float64, int) {
	if len(vals) < window || window <= 0 {
		return percentile(vals, p), 1
	}
	var tails []float64
	for lo := 0; lo+window <= len(vals); lo += window {
		tails = append(tails, percentile(vals[lo:lo+window], p))
	}
	return median(tails), len(tails)
}

// quartiles returns Q1, median and Q3 by the same exclusive method as
// Python's statistics.quantiles(values, n=4), which the acceptance
// spread is defined by.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}
