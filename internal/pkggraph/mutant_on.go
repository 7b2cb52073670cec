//go:build landlord_mutants

package pkggraph

import (
	"os"
	"sync"
)

// Repository-layer mutants compiled in under the landlord_mutants tag,
// selected by the LANDLORD_MUTANT environment variable (the same
// mechanism as internal/core's, internal/fleet's and internal/server's
// mutants):
//
//	closuredrop — Repo.Closure loses the highest-numbered member of any
//	              union of two or more closures. A pure function of
//	              the input, so reruns stay byte-identical.
//	              check.RunFleetChaos must catch it: its client sends a
//	              seeded share of its bodies as close:true over a
//	              closed key list and audits the echoed package count.
var (
	mutantOnce sync.Once
	mutantName string
)

// mutantEnabled reports whether the named mutant was selected via
// LANDLORD_MUTANT. An empty or unset variable disables all mutants.
func mutantEnabled(name string) bool {
	mutantOnce.Do(func() { mutantName = os.Getenv("LANDLORD_MUTANT") })
	return mutantName == name
}
