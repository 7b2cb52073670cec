//go:build landlord_mutants

package fleet

import (
	"os"
	"sync"
)

// Fleet-layer mutants compiled in under the landlord_mutants tag,
// selected by the LANDLORD_MUTANT environment variable (the same
// mechanism as internal/core's mutants):
//
//	staleepoch — the agent's epoch gate accepts forwards from a
//	             demoted primary, so after a failover both the old
//	             and new master can mutate the same agent's cache.
//	             check.RunHAChaos must catch it via the per-agent
//	             epoch-monotonicity audit.
//	staleindex — a gossip frame's Removes drop the image from the
//	             master's directory mirror but not from the mirror's
//	             routing index, so affinity keeps steering specs to an
//	             agent that evicted the image. check.RunFleetChaos must
//	             catch it via Master.CheckIntegrity after its eviction
//	             round.
//	dirscan    — the heartbeat scanner drops the last package key of
//	             every upsert, so the master mirrors each image one
//	             package short while its index agrees with the mirror.
//	             check.RunFleetChaos must catch it via the mirror audit
//	             after a heartbeat round, which compares each master's
//	             mirror with the agent's own directory.
//
// The route mutant that reaches the master's key dictionary lives in
// the term table it shares with the shard router (internal/spec).
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
