//go:build landlord_mutants

package spec

import (
	"os"
	"sync"
)

// Route-fold mutants compiled in under the landlord_mutants tag,
// selected by the LANDLORD_MUTANT environment variable (the same
// mechanism as internal/core's and internal/fleet's mutants):
//
//	route — the interned term table holds a wrong term for every fifth
//	        id, so the fleet's table routes part from their string
//	        form. The term audit in fleet's Master.CheckIntegrity must
//	        catch it.
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
