// Package repro is a from-scratch Go reproduction of
//
//	Tim Shaffer, Nicholas Hazekamp, Jakob Blomer, Douglas Thain.
//	"Solving the Container Explosion Problem for Distributed High
//	Throughput Computing." IEEE IPDPS 2020.
//
// The system — LANDLORD — manages a bounded cache of container images
// for high-throughput jobs by comparing and merging container
// *specifications* (sets of packages) instead of built images, using
// the Jaccard distance with a tunable merge threshold α.
//
// The implementation lives under internal/: the cache manager
// (internal/core, Algorithm 1), the package-repository model and
// SFT-calibrated synthetic generator (internal/pkggraph), the
// specification algebra (internal/spec), Jaccard + MinHash
// (internal/similarity), a simulated CVMFS content-addressed store
// (internal/cvmfs) with the Shrinkwrap image builder
// (internal/shrinkwrap), Section III's baseline stores
// (internal/image), workload generators and the trace-driven
// simulation harness (internal/workload, internal/trace,
// internal/sim), and the Figure 2 LHC benchmark models (internal/hep).
//
// Binaries: cmd/landlord (job wrapper), cmd/landlord-sim (regenerates
// every paper table and figure), cmd/landlordd (the site service).
// Runnable examples are under examples/. The benchmarks in
// bench_test.go exercise one experiment per paper artifact plus the
// ablations listed in DESIGN.md.
package repro
