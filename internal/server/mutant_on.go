//go:build landlord_mutants

package server

import (
	"os"
	"sync"
)

// Server-layer mutants compiled in under the landlord_mutants tag,
// selected by the LANDLORD_MUTANT environment variable (the same
// mechanism as internal/core's and internal/fleet's mutants):
//
//	reqscan — the request scanner takes a key containing a backslash as
//	          a literal instead of handing the body to encoding/json, so
//	          an escaped key resolves to the wrong package or to none.
//	          check.RunNetChaos must catch it: its client escapes a
//	          seeded share of its bodies and audits every answer.
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
