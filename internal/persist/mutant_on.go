//go:build landlord_mutants

package persist

import (
	"os"
	"sync"
)

// Durability-layer mutants compiled in under the landlord_mutants tag,
// selected by the LANDLORD_MUTANT environment variable (the same
// mechanism as internal/core's, internal/fleet's, internal/server's and
// internal/pkggraph's mutants):
//
//	walscan — the resolving record scanner drops the last id of any
//	          "added" list of two or more, so a replayed merge rebuilds a
//	          smaller image than the one logged. A pure function of the
//	          input, so reruns stay byte-identical.
//	          check.ShardShadow.VerifyState must catch it: it replays the
//	          mutations it observed through the record codec and the
//	          reader recovery uses, and compares the rebuilt state with
//	          the live one.
//	deltaoverlap — the record encoder writes a merge's first added key
//	          a second time, so the logged delta overlaps the image it
//	          grows — a package the merge adds twice — while the commit
//	          stream the harness audits stays clean. A union replay
//	          absorbs the repeat; the replay pass's settle check must
//	          refuse it, in VerifyState's replay or in recovery.
//	ckptscan — the checkpoint scanner drops the last image, so a
//	          recovery from a checkpoint loses it while the checkpoint
//	          on disk is whole. check.RunSim's crash audit must catch it
//	          at the first recovery from a checkpoint.
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
