//go:build landlord_mutants

package similarity

import (
	"os"
	"sync"
)

// Signing mutants compiled in under the landlord_mutants tag, selected
// by the LANDLORD_MUTANT environment variable (the same mechanism as
// internal/core's, internal/fleet's, internal/server's,
// internal/pkggraph's and internal/persist's mutants):
//
//	probeskip — the probe starts at the second listed id of every
//	            position, so a set holding a position's first listed id
//	            and another listed one gets the wrong minimum there. A
//	            pure function of the input, so reruns stay
//	            byte-identical, and wrong the same way for a request and
//	            for the image it becomes — only an audit that re-signs
//	            with the direct kernel (core.CheckIntegrity) sees it.
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
