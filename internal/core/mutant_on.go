//go:build landlord_mutants

package core

import (
	"os"
	"sync"
)

// Mutants compiled in under the landlord_mutants tag, selected by the
// LANDLORD_MUTANT environment variable. Each one breaks exactly one
// invariant of Algorithm 1 so internal/check can prove its detectors
// fire:
//
//	superset  — hits accept images missing one requested package
//	threshold — merges accept distances up to α+0.2
//	conflict  — merges skip the conflict-policy check
//	lru       — eviction removes the most recently used image
//	capacity  — eviction tolerates 25% overflow
//	touch     — hits do not refresh the image's LRU stamp
//	weigh     — the eviction step weighs the cache's bytes less the
//	            image the request just used against the capacity, so
//	            the cache overruns it by up to that image
//	intern    — the package interner aliases two packages to one bit
//	            position (an intern collision): fast-path bitsets see
//	            them as the same package
//	popcount  — the fast path's intersection popcount undercounts by
//	            one, skewing every interned Jaccard distance
//	lshmiss   — the band index drops its first candidate, so the
//	            fast-path merge scan can miss the true closest target
//	deltadrop — a merge record omits one of the keys the merge added
//	            (when it added more than one), so replay rebuilds a
//	            smaller image than the live one
//	replaystale — a replay pass ends without settling the last image
//	            it changed, so that image keeps the spec, bits,
//	            signature and bands it had before the pass (or none, if
//	            the pass inserted it)
var (
	mutantOnce sync.Once
	mutantName string
)

// mutantEnabled reports whether the named mutant was selected via
// LANDLORD_MUTANT. An empty or unset variable disables all mutants, so
// a -tags landlord_mutants binary behaves identically to a normal one
// until a mutant is requested.
func mutantEnabled(name string) bool {
	mutantOnce.Do(func() { mutantName = os.Getenv("LANDLORD_MUTANT") })
	return mutantName == name
}
