// Package pkggraph models a structured software repository: a set of
// packages identified by name/version/platform, each with an installed
// size and a list of direct dependencies forming a DAG.
//
// This is the substrate the LANDLORD paper builds on. The paper extracts
// a dependency tree of the SFT CVMFS repository (9,660 packages) from
// build metadata; here the same shape is produced synthetically by
// Generate (see generate.go), calibrated so that dependency closures
// behave like the paper's Figure 3.
//
// All higher layers (specifications, the cache manager, the simulator)
// refer to packages by compact PkgID indices into a Repo: a set is a
// sorted ID slice, a union of closures a scan of one bit per package.
package pkggraph

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
)

// PkgID is a compact index of a package within a Repo. IDs are assigned
// densely from 0 in the order packages are given to New.
type PkgID uint32

// Tier classifies packages by their position in the dependency
// hierarchy the paper describes: a few near-universal core components, a
// middle of frameworks and libraries, and a long tail of application
// packages.
type Tier uint8

// Tiers, ordered from most to least depended-upon.
const (
	TierCore Tier = iota
	TierFramework
	TierLibrary
	TierApplication
)

// String returns the lower-case tier name.
func (t Tier) String() string {
	switch t {
	case TierCore:
		return "core"
	case TierFramework:
		return "framework"
	case TierLibrary:
		return "library"
	case TierApplication:
		return "application"
	default:
		return fmt.Sprintf("tier(%d)", uint8(t))
	}
}

// Package describes one installable unit of the repository. A program or
// library typically appears as several Packages: one per version and
// platform, exactly as in CVMFS.
type Package struct {
	ID        PkgID
	Name      string // family name, e.g. "ROOT"
	Version   string // e.g. "6.18.04"
	Platform  string // e.g. "x86_64-centos7-gcc8-opt"
	Tier      Tier
	Size      int64   // installed bytes
	FileCount int     // number of files, used by the CVMFS substrate
	Deps      []PkgID // direct dependencies, sorted ascending
}

// Key returns the unique name/version/platform string for the package,
// the identifier the paper's Jaccard metric operates over.
func (p *Package) Key() string {
	return p.Name + "/" + p.Version + "/" + p.Platform
}

// Repo is an immutable package repository with precomputed transitive
// closures. Construct with New; a Repo is safe for concurrent use.
type Repo struct {
	pkgs      []Package
	byKey     map[string]PkgID
	keys      []string           // per-PkgID key; shares byKey's strings
	families  map[string][]PkgID // family name -> versions, in insertion order
	closures  [][]PkgID          // per-package transitive closure (incl. self), sorted
	scratch   sync.Pool          // *idBits; a Closure call owns one from Get to Put
	totalSize int64
}

// New validates pkgs (dense IDs, unique keys, in-range acyclic deps) and
// builds a Repo with per-package transitive closures precomputed.
func New(pkgs []Package) (*Repo, error) {
	r := &Repo{
		pkgs:     pkgs,
		byKey:    make(map[string]PkgID, len(pkgs)),
		keys:     make([]string, len(pkgs)),
		families: make(map[string][]PkgID),
	}
	for i := range pkgs {
		p := &pkgs[i]
		if p.ID != PkgID(i) {
			return nil, fmt.Errorf("pkggraph: package %q has ID %d, want dense ID %d", p.Key(), p.ID, i)
		}
		if p.Size < 0 {
			return nil, fmt.Errorf("pkggraph: package %q has negative size %d", p.Key(), p.Size)
		}
		key := p.Key()
		if _, dup := r.byKey[key]; dup {
			return nil, fmt.Errorf("pkggraph: duplicate package key %q", key)
		}
		r.byKey[key] = p.ID
		r.keys[i] = key
		r.families[p.Name] = append(r.families[p.Name], p.ID)
		r.totalSize += p.Size
		for _, d := range p.Deps {
			if int(d) >= len(pkgs) {
				return nil, fmt.Errorf("pkggraph: package %q depends on out-of-range ID %d", key, d)
			}
			if d == p.ID {
				return nil, fmt.Errorf("pkggraph: package %q depends on itself", key)
			}
		}
		if !slices.IsSorted(p.Deps) {
			slices.Sort(p.Deps)
		}
	}
	order, err := topoOrder(pkgs)
	if err != nil {
		return nil, err
	}
	r.closures = buildClosures(pkgs, order)
	r.scratch.New = func() any { return newIDBits(len(pkgs)) }
	return r, nil
}

// topoOrder returns a dependency-first ordering of package IDs, or an
// error naming a package on a cycle.
func topoOrder(pkgs []Package) ([]PkgID, error) {
	n := len(pkgs)
	indeg := make([]int, n) // number of unprocessed dependencies
	rev := make([][]PkgID, n)
	for i := range pkgs {
		indeg[i] = len(pkgs[i].Deps)
		for _, d := range pkgs[i].Deps {
			rev[d] = append(rev[d], PkgID(i))
		}
	}
	queue := make([]PkgID, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, PkgID(i))
		}
	}
	order := make([]PkgID, 0, n)
	for len(queue) > 0 {
		id := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		order = append(order, id)
		for _, u := range rev[id] {
			indeg[u]--
			if indeg[u] == 0 {
				queue = append(queue, u)
			}
		}
	}
	if len(order) != n {
		for i := 0; i < n; i++ {
			if indeg[i] > 0 {
				return nil, fmt.Errorf("pkggraph: dependency cycle involving %q", pkgs[i].Key())
			}
		}
	}
	return order, nil
}

// idBits is the closure union's scratch: one bit per package of the
// repository, all zero between unions.
type idBits struct{ words []uint64 }

func newIDBits(n int) *idBits { return &idBits{make([]uint64, (n+63)/64)} }

// add sets the bit of every listed package.
func (b *idBits) add(ids []PkgID) {
	for _, id := range ids {
		b.words[id>>6] |= 1 << (id & 63)
	}
}

// drain returns the set packages as a new, exactly sized slice and
// zeroes the words. Words are read low to high and each word's bits
// lowest first, so the IDs come out ascending and nothing is sorted.
func (b *idBits) drain() []PkgID {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	out := make([]PkgID, 0, n)
	for i, w := range b.words {
		for ; w != 0; w &= w - 1 {
			out = append(out, PkgID(i<<6+bits.TrailingZeros64(w)))
		}
		b.words[i] = 0
	}
	return out
}

// buildClosures computes, in dependency-first order, each package's
// transitive closure (including itself) as a sorted ID slice.
func buildClosures(pkgs []Package, order []PkgID) [][]PkgID {
	closures := make([][]PkgID, len(pkgs))
	b := newIDBits(len(pkgs))
	for _, id := range order {
		b.add([]PkgID{id})
		for _, d := range pkgs[id].Deps {
			b.add(closures[d])
		}
		closures[id] = b.drain()
	}
	return closures
}

// Len returns the number of packages in the repository.
func (r *Repo) Len() int { return len(r.pkgs) }

// TotalSize returns the sum of all package sizes: the full-repository
// image size in Section III's "imperfect solution" discussion.
func (r *Repo) TotalSize() int64 { return r.totalSize }

// Package returns the package with the given ID. It panics on an
// out-of-range ID, which always indicates a caller bug.
func (r *Repo) Package(id PkgID) *Package { return &r.pkgs[id] }

// Key returns Package(id).Key() from a table built once by New, so
// rendering a specification's keys (WAL records, checkpoints) never
// concatenates. It panics on an out-of-range ID, like Package.
func (r *Repo) Key(id PkgID) string { return r.keys[id] }

// Lookup finds a package by its name/version/platform key.
func (r *Repo) Lookup(key string) (PkgID, bool) {
	id, ok := r.byKey[key]
	return id, ok
}

// LookupBytes is Lookup for a key held as bytes (a view into a request
// body): the map index converts without allocating.
func (r *Repo) LookupBytes(key []byte) (PkgID, bool) {
	id, ok := r.byKey[string(key)]
	return id, ok
}

// Families returns the number of distinct package family names.
func (r *Repo) Families() int { return len(r.families) }

// FamilyVersions returns the package IDs belonging to a family, in the
// order they were added (oldest version first). The returned slice must
// not be modified.
func (r *Repo) FamilyVersions(name string) []PkgID { return r.families[name] }

// PackageClosure returns the precomputed transitive closure (including
// the package itself) as a sorted ID slice. The returned slice is shared
// and must not be modified.
func (r *Repo) PackageClosure(id PkgID) []PkgID { return r.closures[id] }

// Closure expands a set of package IDs to its full dependency closure,
// returned as a new sorted, duplicate-free slice. This is the paper's
// image-construction step: "when building a simulated image, we
// recursively include dependencies of requested software".
func (r *Repo) Closure(ids []PkgID) []PkgID {
	if len(ids) == 0 {
		return nil
	}
	if len(ids) == 1 {
		out := make([]PkgID, len(r.closures[ids[0]]))
		copy(out, r.closures[ids[0]])
		return out
	}
	b := r.scratch.Get().(*idBits)
	for _, id := range ids {
		b.add(r.closures[id])
	}
	out := b.drain()
	r.scratch.Put(b)
	if mutantEnabled("closuredrop") {
		out = out[:len(out)-1]
	}
	return out
}

// SetSize returns the total installed size of a set of package IDs. The
// slice may contain duplicates; each distinct ID is counted once only if
// the input is sorted (the canonical form used throughout). For safety
// with unsorted input, duplicates are skipped via adjacency, so callers
// must pass sorted slices.
func (r *Repo) SetSize(ids []PkgID) int64 {
	var total int64
	var prev PkgID
	for i, id := range ids {
		if i > 0 && id == prev {
			continue
		}
		total += r.pkgs[id].Size
		prev = id
	}
	return total
}

// ClosureSize returns the installed size of the dependency closure of
// ids.
func (r *Repo) ClosureSize(ids []PkgID) int64 {
	return r.SetSize(r.Closure(ids))
}
