package pkggraph

import "sort"

// RepoStats summarizes the structural properties the paper
// characterizes in Section VI ("Characterizing Package Dependencies").
type RepoStats struct {
	Packages     int
	Families     int
	TotalSize    int64
	TierCounts   map[Tier]int
	TierSizes    map[Tier]int64
	MaxDepth     int     // longest dependency chain
	MeanOutDeg   float64 // mean direct dependencies per package
	MeanInDeg    float64 // mean direct dependents per package
	MeanClosure  float64 // mean transitive closure cardinality (incl. self)
	MaxClosure   int
	TopDependees []PkgID // the 10 most depended-upon packages (transitively)
}

// Stats computes structural statistics over the repository.
func (r *Repo) Stats() RepoStats {
	s := RepoStats{
		Packages:   r.Len(),
		Families:   r.Families(),
		TotalSize:  r.TotalSize(),
		TierCounts: make(map[Tier]int),
		TierSizes:  make(map[Tier]int64),
	}
	if r.Len() == 0 {
		return s
	}
	var outDeg int
	inCount := r.TransitiveDependents()
	depth := make([]int, r.Len()) // longest chain ending at pkg
	for i := range r.pkgs {
		p := &r.pkgs[i]
		s.TierCounts[p.Tier]++
		s.TierSizes[p.Tier] += p.Size
		outDeg += len(p.Deps)
		closure := len(r.closures[i])
		s.MeanClosure += float64(closure)
		if closure > s.MaxClosure {
			s.MaxClosure = closure
		}
	}
	s.MeanClosure /= float64(r.Len())
	s.MeanOutDeg = float64(outDeg) / float64(r.Len())
	s.MeanInDeg = s.MeanOutDeg // every edge leaves one package and enters one

	// Depth: packages are not guaranteed to be in topological order by
	// ID, so walk a topological order.
	order, err := topoOrder(r.pkgs)
	if err == nil {
		for _, id := range order {
			d := 0
			for _, dep := range r.pkgs[id].Deps {
				if depth[dep]+1 > d {
					d = depth[dep] + 1
				}
			}
			depth[id] = d
			if d > s.MaxDepth {
				s.MaxDepth = d
			}
		}
	}

	type rankedPkg struct {
		id PkgID
		n  int
	}
	ranked := make([]rankedPkg, r.Len())
	for i := range inCount {
		ranked[i] = rankedPkg{PkgID(i), inCount[i]}
	}
	sort.Slice(ranked, func(a, b int) bool {
		if ranked[a].n != ranked[b].n {
			return ranked[a].n > ranked[b].n
		}
		return ranked[a].id < ranked[b].id
	})
	top := 10
	if top > len(ranked) {
		top = len(ranked)
	}
	for i := 0; i < top; i++ {
		s.TopDependees = append(s.TopDependees, ranked[i].id)
	}
	return s
}

// TransitiveDependents returns, for every package, the number of other
// packages whose closure contains it. Near-universal core components —
// the ones the paper observes "have a very high likelihood of appearing
// in every container image" — have counts close to Len().
func (r *Repo) TransitiveDependents() []int {
	counts := make([]int, r.Len())
	for i := range r.pkgs {
		for _, c := range r.closures[i] {
			if c != PkgID(i) {
				counts[c]++
			}
		}
	}
	return counts
}

// SharedCoreFraction reports the fraction of packages whose closure
// includes at least one TierCore package: a measure of how hierarchical
// the repository is.
func (r *Repo) SharedCoreFraction() float64 {
	if r.Len() == 0 {
		return 0
	}
	n := 0
	for i := range r.pkgs {
		for _, c := range r.closures[i] {
			if r.pkgs[c].Tier == TierCore {
				n++
				break
			}
		}
	}
	return float64(n) / float64(r.Len())
}
