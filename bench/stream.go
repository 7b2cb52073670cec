package main

import (
	"math/rand"
	"strconv"
	"time"

	"repro/internal/pkggraph"
	"repro/internal/spec"
	specgen "repro/internal/workload"
)

// request is one generated job submission and what a correct server
// must say about it.
type request struct {
	// ids are the packages the client sends: the closed spec, or the
	// initial selection when the workload is unclosed.
	ids []pkggraph.PkgID
	// pkgs and bytes are the package count and byte size of the
	// submitted spec after closure, which the response must echo.
	pkgs  int
	bytes int64
	// repeat marks a re-send of a pool spec.
	repeat bool
}

// stream is a workload's request sequence for one seed: warm (sent once
// during set-up, pool specs first) and then reqs, consumed in order by
// the phases.
type stream struct {
	warm []request
	reqs []request
}

// specGen draws job specifications by the paper's dependency scheme.
type specGen struct {
	repo *pkggraph.Repo
	dep  *specgen.DepClosure
	// sel draws the unclosed selections; specgen.DepClosure only
	// exposes the closed result, so the 1..100 distinct-package draw is
	// repeated here for workloads that let the server close the spec.
	sel      *rand.Rand
	unclosed bool
}

func (g *specGen) next() request {
	if !g.unclosed {
		sp := g.dep.Next()
		return request{ids: sp.IDs(), pkgs: sp.Len(), bytes: sp.Size(g.repo)}
	}
	n := 1 + g.sel.Intn(100)
	seen := make(map[pkggraph.PkgID]bool, n)
	ids := make([]pkggraph.PkgID, 0, n)
	for len(ids) < n {
		id := pkggraph.PkgID(g.sel.Intn(g.repo.Len()))
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	sp := spec.WithClosure(g.repo, ids)
	return request{ids: ids, pkgs: sp.Len(), bytes: sp.Size(g.repo)}
}

// newStream generates the warm-up and the first n requests of the
// workload's sequence for seed. Request i does not depend on n, so a
// shorter run is a prefix of a longer one.
func newStream(w *workload, repo *pkggraph.Repo, seed int64, n int) *stream {
	gen := &specGen{
		repo:     repo,
		dep:      specgen.NewDepClosure(repo, seed),
		sel:      rand.New(rand.NewSource(seed)),
		unclosed: w.unclosed,
	}
	st := &stream{}
	for i := 0; i < w.pool+w.warmFresh; i++ {
		st.warm = append(st.warm, gen.next())
	}
	mix := rand.New(rand.NewSource(seed + 1))
	var zipf *rand.Zipf
	if w.zipf > 0 && w.pool > 1 {
		zipf = rand.NewZipf(mix, w.zipf, 1, uint64(w.pool-1))
	}
	st.reqs = make([]request, 0, n)
	for i := 0; i < n; i++ {
		if w.pool > 0 && mix.Float64() < w.repeat {
			var k int
			if zipf != nil {
				k = int(zipf.Uint64())
			} else {
				k = mix.Intn(w.pool)
			}
			r := st.warm[k]
			r.repeat = true
			st.reqs = append(st.reqs, r)
			continue
		}
		st.reqs = append(st.reqs, gen.next())
	}
	return st
}

// poissonSchedule returns n due times, as offsets from the phase start,
// of a Poisson process at rate req/s drawn from seed.
func poissonSchedule(seed int64, rate float64, n int) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	due := make([]time.Duration, n)
	var t float64
	for i := range due {
		t += rng.ExpFloat64() / rate
		due[i] = time.Duration(t * float64(time.Second))
	}
	return due
}

// bodyEncoder assembles /v1/request bodies from package keys quoted
// once at set-up, so the generator spends a memcpy per request, not a
// JSON encode, and the stream holds package ids rather than ~13 KB of
// body per request (which would otherwise dominate heap_mb).
type bodyEncoder struct {
	keys   [][]byte
	closed []byte
}

func newBodyEncoder(repo *pkggraph.Repo, close bool) *bodyEncoder {
	e := &bodyEncoder{
		keys:   make([][]byte, repo.Len()),
		closed: []byte(`],"close":` + strconv.FormatBool(close) + `}`),
	}
	for i := range e.keys {
		e.keys[i] = strconv.AppendQuote(nil, repo.Package(pkggraph.PkgID(i)).Key())
	}
	return e
}

func (e *bodyEncoder) appendBody(dst []byte, ids []pkggraph.PkgID) []byte {
	dst = append(dst, `{"packages":[`...)
	for i, id := range ids {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, e.keys[id]...)
	}
	return append(dst, e.closed...)
}
