//go:build landlord_mutants

package check

import (
	"fmt"
	"os"
	"testing"
)

// TestMutantSim runs under -tags landlord_mutants with LANDLORD_MUTANT
// naming one seeded bug in internal/core, internal/spec, internal/fleet,
// internal/server, internal/pkggraph, internal/persist or
// internal/similarity (see their mutant_on.go). It
// asserts the harness DETECTS the mutant: the staged suites —
// simulation (exact rows, MinHash rows), the fleet chaos suite's rows
// — must report a Failure
// before they run dry. It runs the
// stages twice and requires the two failures to be byte-identical — the
// reproducibility the printed seed promises.
//
// TestMutantsAreDetected drives this from a normal build; the
// MUTANT_FAILURE lines below are its machine-readable channel.
func TestMutantSim(t *testing.T) {
	mutant := os.Getenv("LANDLORD_MUTANT")
	if mutant == "" {
		t.Skip("LANDLORD_MUTANT not set")
	}

	// pairStage is the fleet control-plane stage: a short HA-pair row
	// without partitions whose first scheduled fault is a lease-holder
	// isolation — the exact scenario the staleepoch and leasetick
	// mutants break. A stale-accepting epoch gate lets the isolated old
	// primary keep acking alongside the newly promoted one, and the
	// round's dual-primary audit fires at the isolation step itself; a
	// standby that promotes after one missed tick fails the promotion
	// audit of the isolation's cut.
	pairStage := func() (string, int) {
		cfg := FleetChaosSuite(*seedFlag)[1]
		cfg.Steps, cfg.Kills, cfg.Isolations, cfg.PartitionEvery = 120, 1, 1, 0
		rep, f := RunFleetChaos(cfg)
		if f != nil {
			return f.Error(), rep.Steps
		}
		return "", rep.Steps
	}

	// fleetStage is a short plain-master row without kills, crashes or
	// partitions: what it keeps is the mid-stream eviction audit, the
	// only place a gossip frame carries Removes — the frames the
	// staleindex mutant mishandles — with Master.CheckIntegrity after
	// each, the CheckIntegrity of every step, whose term audit sees the
	// first wrong route term the route mutant leaves in the master's key
	// dictionary, the mirror audit of every heartbeat round, which sees
	// the first package key the dirscan mutant drops from a frame, and
	// the audits of every answered round. Its rounds are the only
	// requests sent over HTTP in more than one body shape, which is what
	// the reqscan mutant mishandles — the agent refuses the first escaped
	// body the master forwards — and the only ones whose close:true
	// answers are audited, which is where closuredrop shows; each such
	// round sends its list's last package alone with close:true and then
	// close:false, a hit both times, and the second is the body the
	// reqmemo mutant answers from the first one's memo entry.
	fleetStage := func() (string, int) {
		cfg := FleetChaosSuite(*seedFlag)[0]
		cfg.Steps, cfg.Kills, cfg.PartitionEvery = 60, 0, 0
		rep, f := RunFleetChaos(cfg)
		n := rep.Steps + mirrorAuditRequests
		if f != nil {
			return f.Error(), n
		}
		return "", n
	}

	// simStage is the simulation suite. Its replay audit —
	// the logged mutations, encoded and decoded as the WAL would hold
	// them, rebuild the live manager's state byte for byte — is the
	// only check that reads a merge record's keys against the image the
	// merge produced, which is what deltadrop breaks on the way into the
	// record and walscan on the way out of it.
	simRows := func(rows []SimConfig) (string, int) {
		requests := 0
		for _, cfg := range rows {
			rep, f := RunSim(cfg)
			requests += rep.Steps
			if f != nil {
				return f.Error(), requests
			}
		}
		return "", requests
	}
	simStage := func() (string, int) { return simRows(Suite(*seedFlag)) }

	// minhashStage is the suite's MinHash rows on their own: the only
	// rows in which a band index is consulted and a signature signed.
	minhashStage := func() (string, int) { return simRows(MinHashSuite(*seedFlag)) }

	// chaosStage is the persistent chaos suite's MinHash row: the only
	// row whose cache one replay pass rebuilds and CheckIntegrity then
	// audits — its re-sign with the direct kernel and its band audit,
	// right after every recovery — which is where replaystale shows, and
	// the only row that recovers from a checkpoint, which is where
	// ckptscan shows, to the crash audit. Each call runs in a fresh
	// directory.
	chaosStage := func() (string, int) {
		var rows []SimConfig
		for _, cfg := range ChaosSuite(*seedFlag, t.TempDir()) {
			if cfg.MinHash {
				rows = append(rows, cfg)
			}
		}
		return simRows(rows)
	}

	// zeroStage is the zero-header audit: a frame header zeroed in front
	// of intact records, in a sealed segment and in the newest one, at
	// each record boundary, recovered in turn. Nothing else writes a zero
	// header with records behind it — a crash leaves zeros only to the
	// end of a segment — so it is the only stage where zerotail, which
	// takes any zero header for the clean end, shows: at the first
	// boundary of the sealed segment.
	zeroStage := func() (string, int) { return zeroHeaderAudit(t, t.TempDir()) }

	detect := func() (string, int) {
		requests := 0
		// The fleet mutants are invisible to every single-process stage
		// — only the fleet harness spawns masters — and the decoder
		// and closure mutants to every stage that calls the cache
		// without HTTP (a stream closed by the same broken union is
		// merely a different stream), so each runs its fleet stage first;
		// lshmiss and probeskip live in code only a MinHash manager
		// reaches, so they start at the MinHash rows instead of sitting
		// through the 1000 exact-mode requests that cannot see them;
		// replaystale lives at the end of a replay pass of more than one
		// record, which only recovery runs, and ckptscan in the
		// checkpoint a recovery reads, so both start at the persistent
		// MinHash rows, and zerotail in a zero frame header with records
		// behind it, which only the zero-header audit writes. Core
		// mutants run the pair stage last (they fall to a cheaper stage
		// long before).
		ownStage := map[string]func() (string, int){
			"staleindex": fleetStage, "staleepoch": pairStage, "leasetick": pairStage, "reqscan": fleetStage, "reqmemo": fleetStage,
			"closuredrop": fleetStage, "route": fleetStage, "lshmiss": minhashStage, "probeskip": minhashStage,
			"replaystale": chaosStage, "dirscan": fleetStage, "ckptscan": chaosStage, "zerotail": zeroStage,
		}[mutant]
		if ownStage != nil {
			msg, n := ownStage()
			requests += n
			if msg != "" {
				return msg, requests
			}
		}
		// The suite's rows run next, and there is one pipeline in
		// them, so everything falls to the oracle or to the
		// audits it runs after every request. The six Algorithm 1 mutants and the
		// interned-representation ones fall to its re-derivation over
		// sorted id slices: superset, threshold, conflict, lru, capacity
		// and touch as before; popcount when a skewed distance moves a
		// merge decision; intern at the first request, to
		// CheckIntegrity's bitset round trip. lshmiss falls to the
		// margin-mode derivation — the oracle scans every image, so a
		// dropped band candidate is a merge production did not make —
		// and probeskip to CheckIntegrity's re-sign with the direct
		// kernel at the first MinHash insert. deltadrop, walscan and
		// deltaoverlap are caught when the first row ends, by the replay
		// audit (deltaoverlap by the settle check inside it). weigh falls
		// to the oracle's eviction derivation at the first eviction whose
		// victims the spared image's bytes change.
		msg, n := simStage()
		requests += n
		if msg != "" {
			return msg, requests
		}
		if mutant != "staleepoch" && mutant != "leasetick" {
			if msg, n := pairStage(); msg != "" {
				return msg, requests + n
			} else {
				requests += n
			}
		}
		return "", requests
	}

	first, n1 := detect()
	if first == "" {
		t.Fatalf("mutant %q survived %d requests undetected", mutant, n1)
	}
	second, _ := detect()
	if first != second {
		t.Fatalf("mutant %q failure is not reproducible under seed %d:\n first: %s\nsecond: %s",
			mutant, *seedFlag, first, second)
	}
	t.Logf("mutant %q detected within %d requests", mutant, n1)
	fmt.Printf("MUTANT_FAILURE %s: %s\n", mutant, first)
}
