//go:build !landlord_mutants

package check

import (
	"fmt"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// mutants lists the seeded bugs compiled in by -tags landlord_mutants
// (mutant_on.go in internal/core, internal/spec, internal/fleet,
// internal/server, internal/pkggraph, internal/persist and
// internal/similarity); each breaks exactly one clause of Algorithm 1,
// the route fold both routing levels share, one of two rules of the
// HA protocol (agent epoch fencing, two-tick promotion), one maintenance point of the master's mirror index, one
// fallback rule of the request scanner, the request memo's verification
// of a body's close flag, the merge record's completeness
// as written or as read back, the closure union's, the signing probe's
// first step, the end of a replay pass, the merge record's disjointness
// from its image, the completeness of a heartbeat frame or a
// checkpoint as read back, or the WAL reader's rule that only zeros to
// the end of a segment end it cleanly.
var mutants = []string{
	"superset", "threshold", "conflict", "lru", "capacity", "touch", "route", "weigh",
	"intern", "popcount", "lshmiss",
	"staleepoch", "leasetick", "staleindex",
	"reqscan", "reqmemo",
	"deltadrop",
	"closuredrop",
	"walscan",
	"probeskip",
	"replaystale", "deltaoverlap",
	"dirscan", "ckptscan",
	"zerotail",
}

// buildMutantBinary compiles this package's tests with the mutant tag
// once; the per-mutant runs then just set LANDLORD_MUTANT.
func buildMutantBinary(t *testing.T) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "mutant.test")
	cmd := exec.Command("go", "test", "-c", "-tags", "landlord_mutants", "-o", bin, "repro/internal/check")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building mutant test binary: %v\n%s", err, out)
	}
	return bin
}

func runMutant(t *testing.T, bin, mutant string, seed int64) string {
	t.Helper()
	cmd := exec.Command(bin, "-test.run", "^TestMutantSim$", "-test.count=1", fmt.Sprintf("-seed=%d", seed))
	cmd.Env = append(cmd.Environ(), "LANDLORD_MUTANT="+mutant)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("mutant %q was NOT detected by the harness:\n%s", mutant, out)
	}
	return string(out)
}

// mutantFailureLine extracts the machine-readable failure the inner
// test prints on detection.
func mutantFailureLine(t *testing.T, mutant, out string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "MUTANT_FAILURE "+mutant+":") {
			return line
		}
	}
	t.Fatalf("mutant %q run passed but printed no MUTANT_FAILURE line:\n%s", mutant, out)
	return ""
}

// TestMutantsAreDetected is the harness's self-test: for each seeded
// bug, the simulation suite must report a violation within its 1000
// requests. A mutant that survives means a whole class of real bug
// would survive too.
func TestMutantsAreDetected(t *testing.T) {
	if testing.Short() {
		t.Skip("rebuilds the package per mutant tag; skipped in -short")
	}
	bin := buildMutantBinary(t)
	for _, mutant := range mutants {
		mutant := mutant
		t.Run(mutant, func(t *testing.T) {
			out := runMutant(t, bin, mutant, *seedFlag)
			t.Log(mutantFailureLine(t, mutant, out))
		})
	}
}

// TestMutantFailureIsReproducible re-runs one known-bad mutant twice
// from the printed seed alone and requires the two diagnostics to be
// byte-identical — the contract that a reported seed is sufficient to
// reproduce a failure, with the same failing request index and the
// same message.
func TestMutantFailureIsReproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("rebuilds the package per mutant tag; skipped in -short")
	}
	bin := buildMutantBinary(t)
	const mutant = "conflict"
	first := mutantFailureLine(t, mutant, runMutant(t, bin, mutant, *seedFlag))
	second := mutantFailureLine(t, mutant, runMutant(t, bin, mutant, *seedFlag))
	if first != second {
		t.Fatalf("same seed, different diagnostics:\n first: %s\nsecond: %s", first, second)
	}
}
