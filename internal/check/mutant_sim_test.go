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
// simulation (one-shard exact rows, one-shard MinHash rows, sharded
// rows), HA — must report a Failure before they run dry. It runs the
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

	// haStage is the fleet control-plane stage: a short HA chaos run
	// whose first scheduled fault is a lease-holder isolation — the
	// exact scenario the staleepoch mutant breaks. A stale-accepting
	// epoch gate lets the isolated old primary keep acking alongside
	// the newly promoted one, and the round's dual-primary audit fires
	// at the isolation step itself.
	haStage := func() (string, int) {
		cfg := HAChaosDefault(*seedFlag)
		cfg.Steps, cfg.Kills, cfg.Isolations = 120, 1, 1
		rep, f := RunHAChaos(cfg)
		if f != nil {
			return f.Error(), rep.Steps
		}
		return "", rep.Steps
	}

	// fleetStage is a short fault-free fleet chaos run: what it keeps is
	// the mid-stream eviction audit, the only place a gossip frame
	// carries Removes — the frames the staleindex mutant mishandles —
	// with Master.CheckIntegrity after each, the CheckIntegrity of
	// every step, whose term audit sees the first wrong route term the
	// route mutant leaves in the master's key dictionary, and the mirror
	// audit of every heartbeat round, which sees the first package key
	// the dirscan mutant drops from a frame.
	fleetStage := func() (string, int) {
		cfg := FleetChaosDefault(*seedFlag)
		cfg.Steps, cfg.PartitionEvery, cfg.MasterKillEvery = 60, 0, 0
		rep, f := RunFleetChaos(cfg)
		n := rep.Steps + mirrorAuditRequests
		if f != nil {
			return f.Error(), n
		}
		return "", n
	}

	// netStage is a fault-free network chaos run: clean transport, no
	// disk faults, no crashes, and few enough requests that the shedder's
	// burst covers them all, so the run — and the step at which an
	// escaped body is first answered wrongly — is a function of the seed.
	// It is the only stage that sends bodies over HTTP in more than one
	// shape, which is what the reqscan mutant mishandles, and the only
	// one that audits what the server made of a close:true body, which
	// is where closuredrop shows.
	netStage := func() (string, int) {
		rep, f := RunNetChaos(NetChaosConfig{Seed: *seedFlag, Steps: 60, Alpha: 0.6, Dir: t.TempDir()})
		if f != nil {
			return f.Error(), rep.Steps
		}
		return "", rep.Steps
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

	// chaosRows is the persistent chaos suite's MinHash rows at the given
	// shard count (0: every count, one shard first): the only rows whose
	// cache one replay pass rebuilds and CheckIntegrity then audits — its
	// re-sign with the direct kernel and its band audit, right after
	// every recovery — which is where replaystale shows, and the only
	// rows that recover from a checkpoint, which is where ckptscan
	// shows, to the crash audit. Each call runs in fresh directories.
	chaosRows := func(shards int) []SimConfig {
		var rows []SimConfig
		for _, cfg := range ChaosSuite(*seedFlag, t.TempDir()) {
			if cfg.MinHash && (shards == 0 || max(cfg.Shards, 1) == shards) {
				rows = append(rows, cfg)
			}
		}
		return rows
	}
	chaosStage := func() (string, int) { return simRows(chaosRows(0)) }

	detect := func() (string, int) {
		requests := 0
		// The fleet mutants are invisible to every single-process stage
		// — only the fleet harnesses spawn masters — and the decoder
		// and closure mutants to every stage that calls the cache
		// without HTTP (a stream closed by the same broken union is
		// merely a different stream), so each runs its own stage first;
		// lshmiss and probeskip live in code only a MinHash manager
		// reaches, so they start at the MinHash rows instead of sitting
		// through the 1000 exact-mode requests that cannot see them;
		// replaystale lives at the end of a replay pass of more than one
		// record, which only recovery runs, and ckptscan in the
		// checkpoint a recovery reads, so both start at the persistent
		// MinHash rows. Core mutants run the HA stage last
		// (they fall to a cheaper stage long before).
		ownStage := map[string]func() (string, int){
			"staleindex": fleetStage, "staleepoch": haStage, "reqscan": netStage,
			"closuredrop": netStage, "lshmiss": minhashStage, "probeskip": minhashStage,
			"replaystale": chaosStage, "dirscan": fleetStage, "ckptscan": chaosStage,
		}[mutant]
		if ownStage != nil {
			msg, n := ownStage()
			requests += n
			if msg != "" {
				return msg, requests
			}
		}
		// The suite's one-shard rows run first, and there is one
		// pipeline in them, so everything falls to the oracle or to the
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
		// audit (deltaoverlap by the settle check inside it). The
		// sharding mutants (route, balance) are invisible to every
		// one-shard row — none consults the router or the balancer —
		// and fall to the sharded rows' route audit and budgets-sum
		// audit, which run last.
		msg, n := simStage()
		requests += n
		if msg != "" {
			return msg, requests
		}
		if mutant != "staleepoch" {
			if msg, n := haStage(); msg != "" {
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

	// route breaks the term table both routing levels keep, so each
	// level's audit must catch it on its own: the sharded rows' route
	// audit above, and the fleet stage's term audit here.
	if mutant == "route" {
		msg, n := fleetStage()
		if msg == "" {
			t.Fatalf("mutant %q survived the fleet stage's %d requests undetected", mutant, n)
		}
		t.Logf("mutant %q detected by the fleet stage within %d requests", mutant, n)
		fmt.Printf("MUTANT_FAILURE %s/fleet: %s\n", mutant, msg)
	}

	// The replay-pass mutants must also fall to the two-shard persistent
	// row on its own — the shape the site service recovers — whose crash
	// audit compares shard by shard.
	if mutant == "replaystale" || mutant == "deltaoverlap" {
		msg, n := simRows(chaosRows(2))
		if msg == "" {
			t.Fatalf("mutant %q survived the two-shard chaos row's %d requests undetected", mutant, n)
		}
		t.Logf("mutant %q detected by the two-shard chaos row within %d requests", mutant, n)
		fmt.Printf("MUTANT_FAILURE %s/shards2: %s\n", mutant, msg)
	}
}
