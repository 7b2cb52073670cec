package main

import (
	"fmt"
	"io"
	"runtime"
)

// minPairs is the fewest parent/change pairs a verdict may rest on.
const minPairs = 10

// verdict applies the pairing rule of the choosing-metrics guide (§8)
// to one end-to-end metric of one workload. parent[i] and change[i] are
// the i-th pair, made back to back with the order alternating.
//
//	improved    the change wins at least nine tenths of the pairs (ties
//	            count for neither side) and the medians differ by more
//	            than the parent's own interquartile range
//	regressed   the change's median is worse than the parent's by more
//	            than the metric's paired bound
//	unresolved  too few pairs, or either side's interquartile range is
//	            wider than the paired bound — unless every run of the
//	            change reads better than every run of the parent
//	unchanged   otherwise
func verdict(d metricDef, parent, change []float64) (string, int) {
	n := len(parent)
	if len(change) < n {
		n = len(change)
	}
	parent, change = parent[:n], change[:n]
	better := func(a, b float64) bool { // a better than b
		if d.lower {
			return a < b
		}
		return a > b
	}
	wins := 0
	for i := 0; i < n; i++ {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	if n < minPairs {
		return fmt.Sprintf("unresolved (%d pairs, need %d)", n, minPairs), wins
	}
	pq1, pmed, pq3 := quartiles(parent)
	cq1, cmed, cq3 := quartiles(change)
	gap := cmed - pmed
	if gap < 0 {
		gap = -gap
	}
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			if !better(c, p) {
				allBetter = false
			}
		}
	}
	switch {
	case better(cmed, pmed) && 10*wins >= 9*n && gap > pq3-pq1:
		return "improved", wins
	case allBetter:
		return "improved", wins
	case better(pmed, cmed) && gap > d.paired*pmed:
		return "regressed", wins
	case pq3-pq1 > d.paired*pmed || cq3-cq1 > d.paired*cmed:
		return "unresolved (spread exceeds bound)", wins
	}
	return "unchanged", wins
}

// compareFiles prints one row per workload and end-to-end metric. The
// i-th runs of the two files are a pair. A pair with a run marked
// invalid (its generator ran late) is left out of latency_p50_ms, the
// metric the mark is about, so enough of them leave it unresolved.
func compareFiles(w io.Writer, parentPath, changePath string) error {
	parent, err := readRuns(parentPath)
	if err != nil {
		return err
	}
	change, err := readRuns(changePath)
	if err != nil {
		return err
	}
	procs := runtime.GOMAXPROCS(0)
	fmt.Fprintf(w, "%-14s %-22s %14s %14s %8s %7s  %s\n",
		"workload", "metric", "parent median", "change median", "diff", "wins", "verdict")
	for _, wl := range workloads {
		pr, cr := parent.runsOf(wl.name, procs), change.runsOf(wl.name, procs)
		for _, d := range endToEnd {
			var p, c []float64
			for i := 0; i < min(len(pr), len(cr)); i++ {
				if d.name == "latency_p50_ms" && (pr[i].Invalid != "" || cr[i].Invalid != "") {
					continue
				}
				p = append(p, pr[i].Result.Metrics[d.name].Value)
				c = append(c, cr[i].Result.Metrics[d.name].Value)
			}
			if len(p) == 0 {
				continue
			}
			v, wins := verdict(d, p, c)
			_, pmed, _ := quartiles(p)
			_, cmed, _ := quartiles(c)
			fmt.Fprintf(w, "%-14s %-22s %14.4f %14.4f %+7.1f%% %4d/%-2d  %s\n",
				wl.name, d.name, pmed, cmed, 100*(cmed-pmed)/pmed, wins, len(p), v)
		}
	}
	return nil
}
