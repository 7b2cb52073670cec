// Package spec implements container specifications: declarative,
// unordered sets of package requirements.
//
// The paper's key insight (Section IV) is that specifications — unlike
// build recipes or built images — can be compared, reused when one is a
// subset of another, and automatically merged by taking unions. This
// package provides that algebra in canonical form: every Spec is a
// sorted, duplicate-free slice of pkggraph.PkgID, so subset, union,
// intersection and Jaccard computations are linear merge walks.
package spec

import (
	"hash/fnv"
	"slices"
	"sort"

	"repro/internal/pkggraph"
)

// Spec is an immutable set of required packages. The zero value is the
// empty specification. Specs are value types; copying is cheap (one
// slice header) and the underlying storage is never mutated after
// construction.
type Spec struct {
	ids []pkggraph.PkgID // sorted, unique
}

// New builds a Spec from ids, copying, sorting, and de-duplicating. An
// input already in canonical order (a body rendered from a Spec, a
// replayed record) is only copied.
func New(ids []pkggraph.PkgID) Spec {
	if len(ids) == 0 {
		return Spec{}
	}
	s := make([]pkggraph.PkgID, len(ids))
	copy(s, ids)
	if !strictlyIncreasing(s) {
		slices.Sort(s)
		s = slices.Compact(s)
	}
	return Spec{ids: s}
}

// FromSorted wraps an already sorted, duplicate-free slice without
// copying. The caller must not modify ids afterwards. It panics if the
// input is not strictly increasing, since silently accepting unsorted
// data would corrupt every set operation downstream.
func FromSorted(ids []pkggraph.PkgID) Spec {
	if !strictlyIncreasing(ids) {
		panic("spec: FromSorted input not strictly increasing")
	}
	return Spec{ids: ids}
}

// strictlyIncreasing reports whether ids is sorted and duplicate-free:
// the canonical form every Spec holds.
func strictlyIncreasing(ids []pkggraph.PkgID) bool {
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			return false
		}
	}
	return true
}

// WithClosure builds a Spec from the dependency closure of initial: the
// paper's image-request construction ("we chose a random selection of
// packages and then added the closure of the package dependencies").
func WithClosure(repo *pkggraph.Repo, initial []pkggraph.PkgID) Spec {
	return Spec{ids: repo.Closure(initial)}
}

// Len returns the number of packages in the specification.
func (s Spec) Len() int { return len(s.ids) }

// Empty reports whether the specification requires nothing.
func (s Spec) Empty() bool { return len(s.ids) == 0 }

// IDs returns the sorted package IDs. The returned slice is shared with
// the Spec and must not be modified.
func (s Spec) IDs() []pkggraph.PkgID { return s.ids }

// Contains reports whether the spec requires package id.
func (s Spec) Contains(id pkggraph.PkgID) bool {
	i := sort.Search(len(s.ids), func(i int) bool { return s.ids[i] >= id })
	return i < len(s.ids) && s.ids[i] == id
}

// Equal reports whether two specs require exactly the same packages.
func (s Spec) Equal(t Spec) bool {
	if len(s.ids) != len(t.ids) {
		return false
	}
	for i := range s.ids {
		if s.ids[i] != t.ids[i] {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every package in s is also in t: the paper's
// reuse condition ("if a specification requires a subset of packages in
// a previously built image, we should be able to use the latter").
func (s Spec) SubsetOf(t Spec) bool {
	if len(s.ids) > len(t.ids) {
		return false
	}
	i, j := 0, 0
	for i < len(s.ids) {
		// Remaining needles must fit in the remaining haystack.
		if len(s.ids)-i > len(t.ids)-j {
			return false
		}
		switch {
		case j >= len(t.ids):
			return false
		case s.ids[i] == t.ids[j]:
			i++
			j++
		case s.ids[i] > t.ids[j]:
			j++
		default: // s.ids[i] < t.ids[j]: missing from t
			return false
		}
	}
	return true
}

// IntersectionLen returns |s ∩ t| without allocating.
func (s Spec) IntersectionLen(t Spec) int {
	i, j, n := 0, 0, 0
	for i < len(s.ids) && j < len(t.ids) {
		switch {
		case s.ids[i] == t.ids[j]:
			n++
			i++
			j++
		case s.ids[i] < t.ids[j]:
			i++
		default:
			j++
		}
	}
	return n
}

// UnionLen returns |s ∪ t| without allocating.
func (s Spec) UnionLen(t Spec) int {
	return len(s.ids) + len(t.ids) - s.IntersectionLen(t)
}

// Union returns the merged specification s ∪ t: the paper's composite
// specification, usable in place of either constituent.
func (s Spec) Union(t Spec) Spec {
	if s.Empty() {
		return t
	}
	if t.Empty() {
		return s
	}
	out := make([]pkggraph.PkgID, 0, len(s.ids)+len(t.ids))
	i, j := 0, 0
	for i < len(s.ids) && j < len(t.ids) {
		switch {
		case s.ids[i] == t.ids[j]:
			out = append(out, s.ids[i])
			i++
			j++
		case s.ids[i] < t.ids[j]:
			out = append(out, s.ids[i])
			i++
		default:
			out = append(out, t.ids[j])
			j++
		}
	}
	out = append(out, s.ids[i:]...)
	out = append(out, t.ids[j:]...)
	return Spec{ids: out}
}

// Intersect returns s ∩ t.
func (s Spec) Intersect(t Spec) Spec {
	out := make([]pkggraph.PkgID, 0, min(len(s.ids), len(t.ids)))
	i, j := 0, 0
	for i < len(s.ids) && j < len(t.ids) {
		switch {
		case s.ids[i] == t.ids[j]:
			out = append(out, s.ids[i])
			i++
			j++
		case s.ids[i] < t.ids[j]:
			i++
		default:
			j++
		}
	}
	if len(out) == 0 {
		return Spec{}
	}
	return Spec{ids: out}
}

// Diff returns s \ t: packages required by s but not present in t.
func (s Spec) Diff(t Spec) Spec {
	out := make([]pkggraph.PkgID, 0, len(s.ids))
	i, j := 0, 0
	for i < len(s.ids) {
		switch {
		case j >= len(t.ids) || s.ids[i] < t.ids[j]:
			out = append(out, s.ids[i])
			i++
		case s.ids[i] == t.ids[j]:
			i++
			j++
		default:
			j++
		}
	}
	if len(out) == 0 {
		return Spec{}
	}
	return Spec{ids: out}
}

// Size returns the total installed size of the specification's packages.
func (s Spec) Size(repo *pkggraph.Repo) int64 {
	return repo.SetSize(s.ids)
}

// Hash returns a 64-bit FNV-1a hash of the canonical ID sequence,
// suitable for de-duplicating specs in workload generators and traces.
func (s Spec) Hash() uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, id := range s.ids {
		buf[0] = byte(id)
		buf[1] = byte(id >> 8)
		buf[2] = byte(id >> 16)
		buf[3] = byte(id >> 24)
		h.Write(buf[:])
	}
	return h.Sum64()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
