# LANDLORD reproduction build targets.

GO ?= go

.PHONY: all build vet test test-short race bench bench-guard bench-smoke fuzz check fleet-chaos lint-metrics loc cover crash-test examples experiments clean

all: build vet lint-metrics test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Full race-detector pass. Every package runs under -race — the
# concurrent request pipeline (core.ShardedManager's lock pair, the
# server's handler fan-out, WAL group commit) makes data
# races a correctness bug anywhere, not just in the historically
# concurrent corners. The oracle-equivalence harness and soak are the
# heavyweight entries; the timeout gives them headroom on slow CI
# runners.
race:
	$(GO) test -race -timeout 20m ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Allocation regression guards. The interned hot path's hit-heavy steady
# state (cached spec repeats against a warm Manager, serially and in
# parallel through the concurrent cache's read lock), the fleet
# master's per-request affinity question (one translated request tested
# against every agent's indexed directory mirror), its route key (seed-1
# closed specs summed from a gossiped dictionary's stored route terms,
# one in five with a key it never saw, so a streamed term is deduplicated
# and added too) and the
# /v1/request body decoder (a 325-key canonical body read, scanned and
# resolved on an agent, or once remembered read, hashed and verified
# against its memo entry; read, scanned and translated into route key
# and affinity query on the master) must all run allocation-free, and rendering a 2,000-package spec's
# keys for a WAL record or checkpoint must cost the one result slice
# (the keys come from the repository's table; per-key concatenation was
# ~660 allocations per merge), as must closing a 100-package selection
# over the full repository (the bitset union kernel; the map+sort it
# replaced made 6). Framing a WAL record — a 322-key insert or a touch —
# into the store's reused buffer must not allocate at all, and replaying
# a segment of 10,000 touch records may allocate the reader and its
# buffers (8 at most) but nothing per record. Replaying the closure
# mix's merge-heavy MinHash tail (2,000 requests after a checkpoint) as
# one pass, through the reader recovery builds, stays at its reading of
# 1,677 allocations in one cache (1,716 split over two shards; 1,750 at
# most; key strings resolved after the scan
# read 5,299, per-record replay 10,752): keys resolve to ids in the scan,
# a merge is applied as a delta and each surviving image settled once,
# so a key slice, union, signature or scratch allocated per record
# again breaks the bound (DESIGN.md §6). A traced
# hit — RequestCtx with a live span trace on the context, every span and
# attribute recorded into the pooled trace's reused storage — may
# allocate only the context that carries the trace. Signing a spec into a
# reused signature allocates nothing on either side of the probe gate
# (322 and 160 ids of 9,660 probe, 8 take the direct kernel), nor does a
# merge's band-index update; building the probe index, once per process,
# may allocate the index's two slices and one sort buffer, never per id.
# A rejoin's full-directory heartbeat (17 images of 1,000 keys, ~0.7 MB)
# is read and scanned in 5 allocations (the body, its one string copy,
# one entry slice, one key slice), and the closure mix's checkpoint is
# framed in 1 and read back in 4 — never one per key or image, as the
# encoding/json paths they replaced (17,221 and 6,311) did. The durable
# path of fsync=always — a ~6 KB merge record committed to a real
# segment, extended with zeros ahead of it, and made durable by
# WaitDurable's datasync — allocates nothing either.
# A fixed iteration count keeps the runs cheap and deterministic; the
# guard fails the build the moment any per-request allocation sneaks
# back onto one of these paths.
# alloc_guard takes the benchmark pattern and the allocs/op allowed
# (default 0).
alloc_guard = awk -v pat='$(1)' -v max='$(2)' '$$0 ~ pat { allocs = $$(NF-1); print; if (allocs + 0 > max + 0) { print "bench-guard: " pat " allocates " allocs " allocs/op, want at most " max + 0; exit 1 } found = 1 } END { if (!found) { print "bench-guard: " pat " benchmark did not run"; exit 1 } }'

bench-guard:
	$(GO) test -run '^$$' -bench '^BenchmarkManagerSerial$$/hit-heavy' -benchmem -benchtime 2000x . | $(call alloc_guard,hit-heavy)
	$(GO) test -run '^$$' -bench '^BenchmarkManagerSharded$$/hit-heavy' -benchmem -benchtime 2000x . | $(call alloc_guard,BenchmarkManagerSharded/hit-heavy)
	$(GO) test -run '^$$' -bench '^BenchmarkRouteAffinity$$' -benchmem -benchtime 2000x ./internal/fleet | $(call alloc_guard,BenchmarkRouteAffinity)
	$(GO) test -run '^$$' -bench '^BenchmarkRouteKey$$' -benchmem -benchtime 2000x ./internal/fleet | $(call alloc_guard,BenchmarkRouteKey)
	$(GO) test -run '^$$' -bench '^BenchmarkRequestDecode$$' -benchmem -benchtime 2000x ./internal/server | $(call alloc_guard,BenchmarkRequestDecode)
	$(GO) test -run '^$$' -bench '^BenchmarkRequestMemoHit$$' -benchmem -benchtime 2000x ./internal/server | $(call alloc_guard,BenchmarkRequestMemoHit)
	$(GO) test -run '^$$' -bench '^BenchmarkRequestDecode$$' -benchmem -benchtime 2000x ./internal/fleet | $(call alloc_guard,BenchmarkRequestDecode)
	$(GO) test -run '^$$' -bench '^BenchmarkKeysOf$$' -benchmem -benchtime 2000x ./internal/core | $(call alloc_guard,BenchmarkKeysOf,1)
	$(GO) test -run '^$$' -bench '^BenchmarkTracedHit$$' -benchmem -benchtime 2000x ./internal/core | $(call alloc_guard,BenchmarkTracedHit,1)
	$(GO) test -run '^$$' -bench '^BenchmarkClosure$$' -benchmem -benchtime 2000x . | $(call alloc_guard,BenchmarkClosure,1)
	$(GO) test -run '^$$' -bench '^BenchmarkEncodeRecord$$' -benchmem -benchtime 2000x ./internal/persist | $(call alloc_guard,BenchmarkEncodeRecord)
	$(GO) test -run '^$$' -bench '^BenchmarkGroupCommit$$' -benchmem -benchtime 2000x ./internal/persist | $(call alloc_guard,BenchmarkGroupCommit)
	$(GO) test -run '^$$' -bench '^BenchmarkReplaySegment$$' -benchmem -benchtime 100x ./internal/persist | $(call alloc_guard,BenchmarkReplaySegment,8)
	$(GO) test -run '^$$' -bench '^BenchmarkReplayMerges$$' -benchmem -benchtime 5x ./internal/persist | $(call alloc_guard,BenchmarkReplayMerges,1750)
	$(GO) test -run '^$$' -bench '^BenchmarkSignInto$$' -benchmem -benchtime 2000x ./internal/similarity | $(call alloc_guard,BenchmarkSignInto)
	$(GO) test -run '^$$' -bench '^BenchmarkProbeIndexBuild$$' -benchmem -benchtime 100x ./internal/similarity | $(call alloc_guard,BenchmarkProbeIndexBuild,3)
	$(GO) test -run '^$$' -bench '^BenchmarkLSHUpdate$$' -benchmem -benchtime 20000x ./internal/similarity | $(call alloc_guard,BenchmarkLSHUpdate)
	$(GO) test -run '^$$' -bench '^BenchmarkHeartbeatDecode$$' -benchmem -benchtime 100x ./internal/fleet | $(call alloc_guard,BenchmarkHeartbeatDecode,5)
	$(GO) test -run '^$$' -bench '^BenchmarkCheckpointCodec$$/encode' -benchmem -benchtime 200x ./internal/persist | $(call alloc_guard,BenchmarkCheckpointCodec/encode,1)
	$(GO) test -run '^$$' -bench '^BenchmarkCheckpointCodec$$/decode' -benchmem -benchtime 200x ./internal/persist | $(call alloc_guard,BenchmarkCheckpointCodec/decode,4)

# The repository's benchmark (bench/, a module of its own) calls fleet,
# server, persist and config directly: vet it and run its short smoke so
# a signature change breaks here, not in the benchmark driver.
bench-smoke:
	cd bench && $(GO) vet . && $(GO) test -short ./...

# Brief fuzzing pass over every fuzz target. Patterns are anchored:
# -fuzz is a regex, and an unanchored FuzzParse would also match
# FuzzSpecParse in the same package (go test refuses to fuzz two
# targets at once).
fuzz:
	$(GO) test ./internal/spec -fuzz '^FuzzParse$$' -fuzztime 30s
	$(GO) test ./internal/spec -fuzz '^FuzzSpecParse$$' -fuzztime 30s
	$(GO) test ./internal/config -fuzz '^FuzzConfigLoad$$' -fuzztime 30s
	$(GO) test ./internal/trace -fuzz '^FuzzLoad$$' -fuzztime 30s
	$(GO) test ./internal/pkggraph -fuzz '^FuzzLoad$$' -fuzztime 30s
	$(GO) test ./internal/pkggraph -fuzz '^FuzzClosure$$' -fuzztime 30s
	$(GO) test ./internal/shrinkwrap -fuzz '^FuzzUnpack$$' -fuzztime 30s
	$(GO) test ./internal/persist -fuzz '^FuzzWALDecode$$' -fuzztime 30s
	$(GO) test ./internal/persist -fuzz '^FuzzRecordCodec$$' -fuzztime 30s
	$(GO) test ./internal/persist -fuzz '^FuzzCheckpointCodec$$' -fuzztime 30s
	$(GO) test ./internal/fleet -fuzz '^FuzzHeartbeat$$' -fuzztime 30s
	$(GO) test ./internal/spec -fuzz '^FuzzInternRoundTrip$$' -fuzztime 30s
	$(GO) test ./internal/spec -fuzz '^FuzzBitsetJaccard$$' -fuzztime 30s
	$(GO) test ./internal/core -fuzz '^FuzzShardRoute$$' -fuzztime 30s
	$(GO) test ./internal/fleet -fuzz '^FuzzRequestDecode$$' -fuzztime 30s
	$(GO) test ./internal/server -fuzz '^FuzzRequestMemo$$' -fuzztime 30s
	$(GO) test ./internal/fleet -fuzz '^FuzzLease$$' -fuzztime 30s
	$(GO) test ./internal/fleet -fuzz '^FuzzMembershipBodies$$' -fuzztime 30s
	$(GO) test ./internal/similarity -fuzz '^FuzzSign$$' -fuzztime 30s

# Short-budget invariant harness for every PR: the deterministic
# simulation suite (exact and MinHash rows,
# every request validated by the oracle — the one reference for
# Algorithm 1, in exact and in margin mode) and scaled-down soaks under
# the race detector, the mutant self-test (each of the twenty-five seeded
# bugs — six Algorithm 1 clauses, the route-fold mutant, the weigh
# mutant (the eviction step leaving the just-used image's bytes out of
# the weighed total), the three
# interned-path mutants intern/popcount/lshmiss, the
# HA epoch-fencing mutant staleepoch, the HA promotion mutant leasetick,
# the mirror-index mutant
# staleindex, the request-scanner mutant reqscan, the request-memo
# mutant reqmemo, the merge-record
# mutant deltadrop, the closure-union mutant closuredrop, the
# record-scanner mutant walscan, the signing mutant probeskip, the
# replay-pass mutant replaystale, the record-encoder mutant
# deltaoverlap, the heartbeat-scanner mutant dirscan and the
# checkpoint-scanner mutant ckptscan and the zero-tail mutant zerotail — must be caught reproducibly: the Algorithm 1 six, intern, popcount
# and lshmiss by the oracle's re-derivation (lshmiss in a MinHash row,
# where the oracle's index-free margin scan takes the merge the dropped
# band candidate hid), probeskip by CheckIntegrity's re-sign with the
# direct kernel at the first MinHash insert, route by the fleet
# stage's term audit in its first CheckIntegrity, weigh by the
# oracle's eviction derivation in the first row,
# staleepoch (by the
# single-acking-primary audit) and leasetick (by the two-tick promotion
# audit) within the HA-pair stage's first lease isolation, staleindex
# within the fleet
# stage's eviction audit, reqscan at the first escaped body and
# closuredrop at the first close:true body the fleet stage's client
# sends through its master, reqmemo at that round's close-flag audit
# (one package sent alone with close:true, then close:false; round 14
# of the fleet stage's plain-master row at seed 1), deltadrop, walscan and deltaoverlap by the
# replayed-state byte-identity audit that ends the first simulation
# (deltaoverlap by the replay pass's settle check inside it),
# replaystale by the CheckIntegrity after the first crash of the
# persistent MinHash chaos row; dirscan by the fleet stage's mirror audit
# after its first heartbeat round with an image, ckptscan by the crash
# audit of the first recovery from a checkpoint, zerotail by the
# zero-header audit at the first record boundary of a sealed segment:
# a frame header zeroed in front of intact records must be reported as
# damage, never taken for the clean end only zeros to the end of a
# segment are), and one CLI pass of
# each deterministic harness; fleetchaos prints a plain-master row and an
# HA-pair row. The
# first grep is a tripwire: the second decision pipeline, the middle
# manager type, the second shadow, the master's sorted-key dictionary,
# the per-request event hook beside the spans, and the seams only the
# socket-bound chaos harnesses used (the agent pause switch, the
# per-agent transport hook, the TCP fault proxy, the HA state file's
# reader) and the second site model (the in-process cluster simulator,
# its dispatch stage, delta transfers and per-site gauges), the second
# simulation driver and the site's admission switch were folded away
# and must not grow back, nor the per-record replay signature scratch
# (replaySig) that the replay pass replaced (DESIGN.md §6), nor the
# master pair's replicated HA log, its folded state and its stream
# watermarks, which the lease's epoch and holder replaced, nor the WAL
# read replica (its streamer, follower, store tap and /ha/v1/ routes),
# whose audit a recovery of the durable agent's state directory
# replaced (§13), nor the second fleet harness (its config, report,
# default and runner) and the fleet harness's random master kills, which
# the one fleet harness and its fault schedule replaced, nor the
# single-server network-chaos and trace-coverage harnesses (their
# configs, defaults, reports and runners), whose audits the fleet
# harness's rows carry (§7), nor the batch queue and spec scanners no
# command ran, the second cache-state loader (the re-IDing restore and
# its sharded forms) that ImportState replaced, or the wrapper's
# pre-checkpoint state.json reader (§6), nor the per-shard byte budgets,
# their balancer and its metrics, which one capacity across the shards
# replaced, nor the shard set itself — its router, its per-shard
# gauges, its strided ids, its merged states and imports, its oracle
# and its zone sweep — which one cache per node replaced (§11), nor the
# fleet's consistent-hash ring, its virtual-node
# default, its key-movement histogram and that histogram's probe and
# accessor, which rendezvous order as the one placement function
# replaced (§10; the retired FleetVNodes field and the telemetry
# package's event ring do not match), nor the store's separate heal,
# which the checkpoint — the one compaction, healing a failed store
# when it is written — replaced (§8). The
# watermark names match unanchored: with the
# replica's stream headers gone no other name contains them. The second keeps the harnesses on the
# in-memory network: no listener, no test server. The last two keep
# every cache node on the one assembly, server.Open: no command opens a
# store, recovers a server or starts a heal probe by hand, and no
# harness builds a durable server around a store it opened itself.
check:
	@! grep -rnE 'NoFastPath|NoBandIndex|ConcurrentManager|refManager|NewShadow\(|rerank|byRank|rankBits|SetTracer|telemetry\.Tracer\b|newEvent|opTracer|timelineTracer|SetPaused|TransportFor|ChaosProxy|ReadHAState|repro/internal/cluster|StageClusterDispatch|cluster_dispatch|DeltaSite|landlord_site_|RunShardSim|ShardSimConfig|ShardSimReport|ShedderEnabled|replaySig|haRecord|haCheckpoint|haLogRing|HAState|RecoveredState|MirrorNext|StreamNext|haNoteMember|EnableReplication|NewStreamer|persist\.Streamer|persist\.Follower|StreamCheckpoint|ErrStreamGap|SetTap\(|/ha/v1/|RunHAChaos|HAChaosConfig|HAChaosDefault|HAChaosReport|MasterKillEvery|RunNetChaos|NetChaosConfig|NetChaosDefault|NetChaosReport|RunTraceSim|TraceSimConfig|TraceSimDefault|TraceSimReport|repro/internal/batch|repro/internal/specscan|RestoreAll|RestoreThen|legacyStateName|SplitBudget|BalancerStats|SetBudgets|RebalanceEvery|ShrinkToCapacity|landlord_cache_rebalance|landlord_cache_shard_budget|fleet\.NewRing|DefaultVNodes|observeRingChange|KeyMovementStats|landlord_fleet_ring_key_movement|\) Heal\(|\.Heal\(|landlord_cache_shard_images|landlord_cache_shard_bytes|NewShardedOracle|ShardUsage|ImportMerged|MergedState|zone-shards|idStride' --include='*.go' --exclude-dir=.bench_build . \
		|| { echo "check: a folded-away name is back in a .go file (see DESIGN.md §12, §10 for the route dictionary, §9 for the event hook, §7 for the harness seams, the site model, the simulation driver and the fleet harness's folded predecessors, §6 for the node assembly, the replay pass and the one cache-state loader, §11 for the one cache per node, §10 for the one placement hash that replaced the consistent-hash ring, §8 for the store's one compaction, the checkpoint that replaced Heal, §13 for the HA log the lease replaced and the WAL read replica the recovery audit replaced)"; exit 1; }
	@! grep -nE 'net\.Listen|httptest\.' $$(ls internal/check/*.go | grep -v '_test\.go$$') \
		|| { echo "check: a harness in internal/check opens a socket; run it on the in-memory network (DESIGN.md §7)"; exit 1; }
	@! grep -nE 'persist\.Open\(|NewPersistent\(|StartDegradedProbe\(' $$(find cmd -name '*.go' ! -name '*_test.go') \
		|| { echo "check: a command assembles a cache node by hand; boot it through server.Open (DESIGN.md §6)"; exit 1; }
	@! grep -nE 'NewPersistent\(' $$(ls internal/check/*.go | grep -v '_test\.go$$') \
		|| { echo "check: a harness in internal/check builds a durable server by hand; boot it through server.Open (DESIGN.md §7)"; exit 1; }
	$(GO) test -race -short -count=1 ./internal/check
	$(GO) test -run 'TestMutants|TestMutantFailure' -count=1 ./internal/check
	$(GO) run ./cmd/landlord-check sim -seed 1
	$(GO) run ./cmd/landlord-check fleetchaos -seed 1

# Fleet chaos gate: the one serving-path harness, both rows (a plain
# master and a primary + standby pair, agent 0 durable on a faulty disk
# in each, behind faulty client links), under the race detector — zero
# lost acks across agent 0's crashes and the primary's kills, no valid
# spec refused, echoed counts, sheds that never mutate, idempotent
# closure, route-around of partitioned agents, soft-state recovery,
# bounded key movement, indexed and faithful mirrors, two-tick
# promotion, a promoted master healthy toward every agent its
# predecessor could route to, a single acking primary per round,
# demotion of an isolated primary, warm drain handoff, the durable
# agent's recovered state equal to its crashed state after every crash
# and passing CheckIntegrity in a copy recovered by the persist layer,
# every span stage in the nodes' trace rings, and each row's report,
# trace dump included, byte-identical across two runs — then one CLI
# pass with a shifted fault schedule.
fleet-chaos:
	$(GO) test -race -count=1 -run '^(TestFleetChaos|TestHAChaos)(Deterministic)?$$' ./internal/check
	$(GO) run ./cmd/landlord-check fleetchaos -seed 1 -kill-phase 7

# Static metric-registration audit: the same family registered under
# two kinds or two help strings renders a /metrics exposition
# Prometheus rejects; the registry only catches it at runtime on paths
# that execute. The same pass audits the import graph: an internal
# package no cmd/* main reaches, or a change to the set of internal
# packages landlordd links, fails it too. Fails the build on any
# conflict.
lint-metrics:
	$(GO) run ./cmd/landlord-lint -root .

# Go line counts, non-test and test, per internal package and per
# command, then the whole tree (root and examples/ included; bench/ is
# a module of its own and is counted too): the figures simplification
# PRs are judged by, from find and wc alone.
loc:
	@for d in internal/* cmd/* .; do \
		printf '%-26s non-test %6d  test %6d\n' $$d \
			$$(find $$d -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' -exec cat {} + | wc -l) \
			$$(find $$d -name '*_test.go' ! -path './.bench_build/*' -exec cat {} + | wc -l); \
	done

# Coverage profile across every package (atomic mode: the concurrent
# suites are the interesting part).
cover:
	$(GO) test -covermode=atomic -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1

# Durability gauntlet: the persist fault-injection suite (every WAL
# truncation and bit-flip), the segment lifecycle (each new segment's
# directory fsynced before its first record, a failed seal or Sync
# failing the store, a closed store staying closed) plus the end-to-end
# kill -9 daemon test.
crash-test:
	$(GO) test -v -run 'TestCrashRecovery|TestTornTail|TestRecoverFallsBack|TestCheckpointCompaction|TestNewSegmentSyncsDirectory|TestFailedSealFailsStore|TestSyncAndCloseStick' ./internal/persist
	$(GO) test -v -run TestDaemonSurvivesKill9 ./cmd/landlordd

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/site-service
	$(GO) run ./examples/hep-pipeline
	$(GO) run ./examples/alpha-sweep

# Regenerate every committed results/*.txt at full scale, each with the
# flags it was made with.
experiments:
	$(GO) build -o bin/landlord-sim ./cmd/landlord-sim
	mkdir -p results
	bin/landlord-sim repo              | tee results/repo.txt
	bin/landlord-sim table2            | tee results/table2.txt
	bin/landlord-sim fig3              | tee results/fig3.txt
	bin/landlord-sim fig4              | tee results/fig4.txt
	bin/landlord-sim fig5              | tee results/fig5.txt
	bin/landlord-sim fig6 -reps 5      | tee results/fig6.txt
	bin/landlord-sim fig7              | tee results/fig7.txt
	bin/landlord-sim fig8              | tee results/fig8.txt
	bin/landlord-sim baselines         | tee results/baselines.txt
	bin/landlord-sim cluster           | tee results/cluster.txt
	bin/landlord-sim drift             | tee results/drift.txt
	bin/landlord-sim dedup -unique 150 | tee results/dedup.txt
	bin/landlord-sim latency -reps 5   | tee results/latency.txt
	bin/landlord-sim zone -reps 5      | tee results/zone.txt
	bin/landlord-sim campaign          | tee results/campaign.txt

clean:
	rm -rf bin
