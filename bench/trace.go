package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/persist"
	"repro/internal/pkggraph"
	"repro/internal/similarity"
	"repro/internal/spec"
)

// The traced pass replays the head of the workload's stream serially
// through nested rings, each with fresh state of its own and each one
// layer further out than the last:
//
//	memory   pkggraph lookups, spec build, MinHash signature, core decision (no store)
//	persist  Store.Commit + WaitDurable, fed the mutations the core ring captured
//	server   Server.Handler().ServeHTTP into a recorder, durable server
//	loopback the same daemon(s) through the loopback client
//	fleet    (fleet only) through the master on loopback
//
// The rings advance together in blocks of traceBlock requests: long
// enough that each ring runs warm, short enough that a machine that
// slows down for a minute slows all rings alike and the subtraction
// survives it. Every call is timed from here, outside the program, and
// recorded as one span. A layer's self time is its ring
// minus the rings inside it. Replaying serially makes every decision
// deterministic, so the rings must agree on the decision sequence and
// the counts repeat exactly for a seed.

// span is one timed call. Parent names the enclosing ring's layer.
type span struct {
	Req    int    `json:"req"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent,omitempty"`
}

// tracer keeps spans in memory until the pass ends.
type tracer struct {
	origin time.Time
	spans  []span
}

// timed runs fn as one span of req and returns its duration in seconds.
func (t *tracer) timed(req int, layer, parent string, fn func()) float64 {
	start := time.Now()
	fn()
	end := time.Now()
	t.spans = append(t.spans, span{
		Req: req, Layer: layer, Parent: parent,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds(),
	})
	return end.Sub(start).Seconds()
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ringTimes is what each ring measured for one request, in seconds.
// coreSigned says whether core computed a signature for this request
// (it defers signing to the miss path; hits never sign).
type ringTimes struct {
	lookup, build, sign, core, commit, wait, server, loopback, fleet float64
	coreSigned                                                       bool
}

// selfTimes is the nested-ring subtraction: each layer's ring minus the
// rings inside it.
type selfTimes struct{ pkggraph, spec, similarity, core, persist, server, transport, fleet float64 }

func (r ringTimes) self(hasFleet bool) selfTimes {
	s := selfTimes{
		pkggraph:  r.lookup,
		spec:      r.build,
		core:      r.core,
		persist:   r.commit + r.wait,
		server:    r.server - (r.lookup + r.build + r.core + r.commit + r.wait),
		transport: r.loopback - r.server,
	}
	if r.coreSigned {
		s.similarity = r.sign
		s.core = r.core - r.sign
	}
	if hasFleet {
		s.fleet = r.fleet - r.loopback
	}
	return s
}

func (s selfTimes) sum() float64 {
	return s.pkggraph + s.spec + s.similarity + s.core + s.persist + s.server + s.transport + s.fleet
}

// decision is what the rings must agree on for each request.
type decision struct {
	op      string
	image   uint64
	written int64
}

// countingFS counts what the store asks of the filesystem.
type countingFS struct {
	persist.FS
	writes, bytes, syncs atomic.Int64
}

type countingFile struct {
	persist.File
	fs *countingFS
}

func (c *countingFS) OpenFile(name string, flag int, perm os.FileMode) (persist.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

func (c *countingFS) CreateTemp(dir, pattern string) (persist.File, error) {
	f, err := c.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.writes.Add(1)
	f.fs.bytes.Add(int64(n))
	return n, err
}

func (f *countingFile) Sync() error {
	f.fs.syncs.Add(1)
	return f.File.Sync()
}

// captureHook collects the mutations of the request being replayed.
type captureHook struct{ cur []core.Mutation }

func (h *captureHook) Commit(mut core.Mutation) { h.cur = append(h.cur, mut) }

// traceBlock is how many requests one ring replays before the next ring
// catches up.
const traceBlock = 250

// tracedPass is the state shared by the rings.
type tracedPass struct {
	cfg    runConfig
	rep    *report
	repo   *pkggraph.Repo
	stream *stream
	enc    *bodyEncoder
	tr     *tracer
	keys   []string // package key by id, as a client would spell it
	// agents is how many daemons serve the stream; node[i] / warmNode[i]
	// say which one request i goes to (all zero outside a fleet; in a
	// fleet, wherever the fleet ring's master sent it).
	agents   int
	node     []int
	warmNode []int
	times    []ringTimes
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func (p *tracedPass) dir(ring string) string { return filepath.Join(p.cfg.dir, "trace-"+ring) }

// memoryRing is the in-memory layers: what the server does with a
// decoded body (resolve the keys, build the spec), the signature core
// computes on a miss, and the core decision against caches without a
// store, whose mutations a hook captures for the persist ring.
type memoryRing struct {
	p      *tracedPass
	hasher *similarity.Hasher
	sig    similarity.Signature
	caches []*core.ShardedManager
	hooks  []*captureHook
	specs  []spec.Spec

	opTime              map[string][]float64
	evictions, packages int
	coreMallocs         uint64
}

func (p *tracedPass) newMemoryRing() (*memoryRing, error) {
	mh := core.DefaultMinHash()
	hasher, err := similarity.NewHasher(mh.K, mh.Seed)
	if err != nil {
		return nil, err
	}
	r := &memoryRing{p: p, hasher: hasher, sig: make(similarity.Signature, hasher.K()),
		specs: make([]spec.Spec, len(p.times)), opTime: map[string][]float64{}}
	for i := 0; i < p.agents; i++ {
		site := p.cfg.w.nodeSite(p.repo, p.dir("memory"), i, "http://unused")
		c, err := core.NewSharded(p.repo, site.CoreConfig(p.repo))
		if err != nil {
			return nil, err
		}
		h := &captureHook{}
		c.SetCommitHook(h)
		r.caches, r.hooks = append(r.caches, c), append(r.hooks, h)
	}
	return r, nil
}

func (r *memoryRing) lookup(req *request) []pkggraph.PkgID {
	ids := make([]pkggraph.PkgID, 0, len(req.ids))
	for _, id := range req.ids {
		got, _ := r.p.repo.Lookup(r.p.keys[id])
		ids = append(ids, got)
	}
	return ids
}

func (r *memoryRing) build(ids []pkggraph.PkgID) spec.Spec {
	if r.p.cfg.w.unclosed {
		return spec.WithClosure(r.p.repo, ids)
	}
	return spec.New(ids)
}

func (r *memoryRing) request(node int, sp spec.Spec) (core.Result, []core.Mutation, error) {
	r.hooks[node].cur = nil
	res, err := r.caches[node].RequestCtx(context.Background(), sp)
	return res, r.hooks[node].cur, err
}

func (r *memoryRing) warm(i int) ([]core.Mutation, error) {
	_, muts, err := r.request(r.p.warmNode[i], r.build(r.lookup(&r.p.stream.warm[i])))
	return muts, err
}

// prepare times what precedes the core call for request i and keeps the
// spec, so that the core calls of a block run back to back and the
// block's malloc count is core's alone.
func (r *memoryRing) prepare(i int) {
	p, t := r.p, &r.p.times[i]
	var ids []pkggraph.PkgID
	t.lookup = p.tr.timed(i, "pkggraph", "server", func() { ids = r.lookup(&p.stream.reqs[i]) })
	t.build = p.tr.timed(i, "spec", "server", func() { r.specs[i] = r.build(ids) })
	t.sign = p.tr.timed(i, "similarity", "core", func() { r.hasher.SignInto(r.sig, r.specs[i]) })
	r.packages += r.specs[i].Len()
}

func (r *memoryRing) step(i int) (decision, []core.Mutation, error) {
	p, t := r.p, &r.p.times[i]
	var res core.Result
	var muts []core.Mutation
	var err error
	t.core = p.tr.timed(i, "core", "server", func() { res, muts, err = r.request(p.node[i], r.specs[i]) })
	if err != nil {
		return decision{}, nil, err
	}
	op := res.Op.String()
	t.coreSigned = op != "hit"
	r.opTime[op] = append(r.opTime[op], t.core)
	r.evictions += res.Evicted
	return decision{op: op, image: res.ImageID, written: res.BytesWritten}, muts, nil
}

func (r *memoryRing) report(L map[string]float64, n float64) {
	L["core.allocs_per_req"] = float64(r.coreMallocs) / n
	L["spec.packages_per_req"] = float64(r.packages) / n
	L["core.hits"] = float64(len(r.opTime["hit"]))
	L["core.merges"] = float64(len(r.opTime["merge"]))
	L["core.inserts"] = float64(len(r.opTime["insert"]))
	L["core.evictions"] = float64(r.evictions)
	L["core.hit_ratio"] = float64(len(r.opTime["hit"])) / n
	L["core.hit_us"] = mean(r.opTime["hit"]) * 1e6
	L["core.merge_us"] = mean(r.opTime["merge"]) * 1e6
	L["core.insert_us"] = mean(r.opTime["insert"]) * 1e6
	var resident int
	for _, c := range r.caches {
		resident += c.Len()
	}
	L["core.images_resident"] = float64(resident)
}

// persistRing feeds the captured mutations to stores of its own over a
// counting filesystem.
type persistRing struct {
	p      *tracedPass
	cfs    *countingFS
	stores []*persist.Store
	// writes, bytes, syncs are the filesystem counts when warm-up ended.
	writes, bytes, syncs int64
}

func (p *tracedPass) newPersistRing() (*persistRing, error) {
	r := &persistRing{p: p, cfs: &countingFS{FS: persist.OSFS{}}}
	for i := 0; i < p.agents; i++ {
		site := p.cfg.w.nodeSite(p.repo, p.dir("persist"), i, "http://unused")
		opts := site.PersistOptions()
		opts.FS = r.cfs
		st, err := persist.Open(site.StateDir, opts)
		if err != nil {
			return nil, err
		}
		r.stores = append(r.stores, st)
		// Recovering the empty directory opens the first WAL segment.
		if _, _, err := st.RecoverSharded(p.repo, site.CoreConfig(p.repo)); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func (r *persistRing) close() {
	for _, st := range r.stores {
		st.Close()
	}
}

func (r *persistRing) warm(i int, muts []core.Mutation) {
	for _, m := range muts {
		r.stores[r.p.warmNode[i]].Commit(m)
	}
}

func (r *persistRing) warmed() error {
	for _, st := range r.stores {
		if err := st.Sync(); err != nil {
			return err
		}
	}
	r.writes, r.bytes, r.syncs = r.cfs.writes.Load(), r.cfs.bytes.Load(), r.cfs.syncs.Load()
	return nil
}

func (r *persistRing) step(i int, muts []core.Mutation) error {
	p, st := r.p, r.stores[r.p.node[i]]
	p.times[i].commit = p.tr.timed(i, "persist.commit", "server", func() {
		for _, m := range muts {
			st.Commit(m)
		}
	})
	var err error
	p.times[i].wait = p.tr.timed(i, "persist.wait_durable", "server", func() { err = st.WaitDurable() })
	return err
}

func (r *persistRing) report(L map[string]float64, n float64) {
	L["persist.wal_bytes_per_req"] = float64(r.cfs.bytes.Load()-r.bytes) / n
	L["persist.fs_writes_per_req"] = float64(r.cfs.writes.Load()-r.writes) / n
	L["persist.fsyncs_per_req"] = float64(r.cfs.syncs.Load()-r.syncs) / n
}

// serverRing replays through Server.Handler() of durable daemons with
// no network in between.
type serverRing struct {
	p         *tracedPass
	topo      *topology
	handlers  []http.Handler
	body      []byte
	bodyBytes int
	mallocs   uint64
}

func (p *tracedPass) newServerRing() (*serverRing, error) {
	t, err := bootTopology(p.cfg.w, p.repo, p.dir("server"), false)
	if err != nil {
		return nil, err
	}
	r := &serverRing{p: p, topo: t}
	for _, n := range t.nodes {
		r.handlers = append(r.handlers, n.srv.Handler())
	}
	return r, nil
}

func (r *serverRing) serve(node int, req *request) *httptest.ResponseRecorder {
	r.body = r.p.enc.appendBody(r.body[:0], req.ids)
	rec := httptest.NewRecorder()
	r.handlers[node].ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/request", bytes.NewReader(r.body)))
	return rec
}

func (r *serverRing) warm(i int) error {
	if rec := r.serve(r.p.warmNode[i], &r.p.stream.warm[i]); rec.Code != http.StatusOK {
		return fmt.Errorf("server ring warm-up: status %d: %s", rec.Code, rec.Body.Bytes())
	}
	return nil
}

func (r *serverRing) step(i int) (decision, error) {
	p := r.p
	var rec *httptest.ResponseRecorder
	p.times[i].server = p.tr.timed(i, "server", "loopback", func() { rec = r.serve(p.node[i], &p.stream.reqs[i]) })
	r.bodyBytes += len(r.body)
	var rep reply
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil || rec.Code != http.StatusOK {
		return decision{}, fmt.Errorf("server ring request %d: status %d: %s", i, rec.Code, rec.Body.Bytes())
	}
	return decision{op: rep.Op, image: rep.ImageID, written: rep.BytesWritten}, nil
}

// report also times one checkpoint of what the replay built.
func (r *serverRing) report(L map[string]float64, n float64) error {
	// Includes the recorder and the request this ring builds per call.
	L["server.allocs_per_req"] = float64(r.mallocs) / n
	L["server.body_bytes"] = float64(r.bodyBytes) / n
	var ckptMS, ckptBytes float64
	for _, nd := range r.topo.nodes {
		t0 := time.Now()
		info, err := nd.srv.CheckpointNow()
		if err != nil {
			return err
		}
		ckptMS += time.Since(t0).Seconds() * 1e3
		ckptBytes += float64(info.Bytes)
	}
	L["persist.checkpoint_ms"] = ckptMS
	L["persist.checkpoint_bytes"] = ckptBytes
	return nil
}

// networkRing replays over loopback: straight at the daemons (the
// loopback ring) or through a master (the fleet ring, which is also
// where the pass learns which agent the master sends each request to).
type networkRing struct {
	p         *tracedPass
	name      string
	viaMaster bool
	topo      *topology
	gens      []*loadgen
	senders   []*sender
	agent     map[string]int
}

func (p *tracedPass) newNetworkRing(name string, viaMaster bool) (*networkRing, error) {
	t, err := bootTopology(p.cfg.w, p.repo, p.dir(name), viaMaster)
	if err != nil {
		return nil, err
	}
	r := &networkRing{p: p, name: name, viaMaster: viaMaster, topo: t, agent: map[string]int{}}
	urls := []string{t.url}
	if !viaMaster {
		urls = urls[:0]
		for _, nd := range t.nodes {
			urls = append(urls, nd.url)
		}
	}
	for _, u := range urls {
		g := newLoadgen(p.cfg.w, u, p.enc)
		r.gens = append(r.gens, g)
		r.senders = append(r.senders, &sender{g: g})
	}
	for i, nd := range t.nodes {
		r.agent[nd.site.AgentID] = i
	}
	return r, nil
}

func (r *networkRing) close() {
	for _, g := range r.gens {
		g.close()
		r.p.rep.attempted += g.sent
		r.p.rep.failed += g.failed
	}
	r.topo.close()
}

// send posts req to the node it belongs on (the master decides when the
// ring has one) and returns the reply and the daemon that answered.
func (r *networkRing) send(node int, req *request) (reply, int, error) {
	if r.viaMaster {
		node = 0
	}
	g := r.gens[node]
	g.sent++
	rep, err := r.senders[node].send(req)
	if err != nil {
		g.failed++
		return rep, 0, fmt.Errorf("%s ring: %w", r.name, err)
	}
	if r.viaMaster {
		node = r.agent[rep.Agent]
	}
	return rep, node, nil
}

// step sends request i, as a span of the given layer when layer is not
// empty, and returns the seconds it took and the daemon that answered.
func (r *networkRing) step(i int, layer, parent string) (decision, float64, int, error) {
	// The heartbeat cadence of the load phases, at fixed stream positions
	// so the master's directory mirrors repeat.
	if r.viaMaster && i > 0 && i%500 == 0 {
		if err := r.topo.beat(); err != nil {
			return decision{}, 0, 0, err
		}
	}
	var rep reply
	var node int
	var err error
	send := func() { rep, node, err = r.send(r.p.node[i], &r.p.stream.reqs[i]) }
	var took float64
	if layer != "" {
		took = r.p.tr.timed(i, layer, parent, send)
	} else {
		t0 := time.Now()
		send()
		took = time.Since(t0).Seconds()
	}
	return decision{op: rep.Op, image: rep.ImageID, written: rep.BytesWritten}, took, node, err
}

// routeMicros times what of the master's routing is reachable from
// outside: hashing the route key and looking it up on the ring and the
// rendezvous order (GET /fleet/v1/route). The directory-affinity scan
// runs only inside /v1/request, so it stays part of
// fleet.forward_self_us.
func (p *tracedPass) routeMicros(m *fleet.Master) float64 {
	h := m.Handler()
	var total float64
	keys := make([]string, 0, 512)
	for i := range p.times {
		keys = keys[:0]
		for _, id := range p.stream.reqs[i].ids {
			keys = append(keys, p.keys[id])
		}
		total += p.tr.timed(i, "fleet.route", "fleet", func() {
			key := fleet.RouteKey(keys)
			req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/fleet/v1/route?key=%d", key), nil)
			h.ServeHTTP(httptest.NewRecorder(), req)
		})
	}
	return total / float64(len(p.times)) * 1e6
}

// runTraced is the -trace pass.
func runTraced(cfg runConfig, rep *report) error {
	n := int(200 * cfg.seconds)
	head := n / 5 // also replayed untraced, for the accounted share
	repo, err := config.Default().OpenRepo()
	if err != nil {
		return err
	}
	p := &tracedPass{
		cfg:    cfg,
		rep:    rep,
		repo:   repo,
		stream: newStream(cfg.w, repo, cfg.seed, n),
		enc:    newBodyEncoder(repo, cfg.w.unclosed),
		tr:     &tracer{origin: time.Now()},
		keys:   make([]string, repo.Len()),
		agents: 1,
		node:   make([]int, n),
		times:  make([]ringTimes, n),
	}
	p.warmNode = make([]int, len(p.stream.warm))
	for i := range p.keys {
		p.keys[i] = repo.Package(pkggraph.PkgID(i)).Key()
	}
	if cfg.w.fleet {
		p.agents = 2
	}

	mem, err := p.newMemoryRing()
	if err != nil {
		return err
	}
	per, err := p.newPersistRing()
	if err != nil {
		return err
	}
	defer per.close()
	srv, err := p.newServerRing()
	if err != nil {
		return err
	}
	defer srv.topo.close()
	loop, err := p.newNetworkRing("loopback", false)
	if err != nil {
		return err
	}
	defer loop.close()
	untraced, err := p.newNetworkRing("untraced", cfg.w.fleet)
	if err != nil {
		return err
	}
	defer untraced.close()
	var fl *networkRing
	loopParent := ""
	if cfg.w.fleet {
		if fl, err = p.newNetworkRing("fleet", true); err != nil {
			return err
		}
		defer fl.close()
		loopParent = "fleet"
	}

	for i := range p.stream.warm {
		w := &p.stream.warm[i]
		if fl != nil {
			if _, p.warmNode[i], err = fl.send(0, w); err != nil {
				return err
			}
		}
		muts, err := mem.warm(i)
		if err != nil {
			return err
		}
		per.warm(i, muts)
		if err := srv.warm(i); err != nil {
			return err
		}
		if _, _, err := loop.send(p.warmNode[i], w); err != nil {
			return err
		}
		if _, _, err := untraced.send(p.warmNode[i], w); err != nil {
			return err
		}
	}
	if err := per.warmed(); err != nil {
		return err
	}
	for _, r := range []*networkRing{fl, untraced} {
		if r != nil {
			if err := r.topo.beat(); err != nil {
				return err
			}
		}
	}

	var untracedSecs float64
	for lo := 0; lo < n; lo += traceBlock {
		block := make([]int, 0, traceBlock)
		for i := lo; i < lo+traceBlock && i < n; i++ {
			block = append(block, i)
		}
		want := make(map[int]decision, len(block))
		muts := make(map[int][]core.Mutation, len(block))
		check := func(i int, ring string, got decision) {
			// Gate: every ring makes the core ring's decision.
			if got != want[i] && len(rep.violations) < 8 {
				rep.violate("traced request %d: %s ring decided %+v, core ring %+v", i, ring, got, want[i])
			}
		}
		fleetSaid := make(map[int]decision, len(block))
		untracedSaid := make(map[int]decision, len(block))
		if fl != nil {
			for _, i := range block {
				if fleetSaid[i], p.times[i].fleet, p.node[i], err = fl.step(i, "fleet", ""); err != nil {
					return err
				}
				if i < head {
					d, took, _, err := untraced.step(i, "", "")
					if err != nil {
						return err
					}
					untracedSaid[i] = d
					untracedSecs += took
				}
			}
		}
		for _, i := range block {
			mem.prepare(i)
		}
		before := mallocs()
		for _, i := range block {
			if want[i], muts[i], err = mem.step(i); err != nil {
				return err
			}
		}
		mem.coreMallocs += mallocs() - before
		for i, d := range fleetSaid {
			check(i, "fleet", d)
		}
		for i, d := range untracedSaid {
			check(i, "untraced", d)
		}
		for _, i := range block {
			if err := per.step(i, muts[i]); err != nil {
				return err
			}
		}
		before = mallocs()
		for _, i := range block {
			d, err := srv.step(i)
			if err != nil {
				return err
			}
			check(i, "server", d)
		}
		srv.mallocs += mallocs() - before
		// The untraced replay of the head alternates with the outermost
		// ring request by request (above, in a fleet), so the two see the
		// same machine.
		for _, i := range block {
			d, took, _, err := loop.step(i, "loopback", loopParent)
			if err != nil {
				return err
			}
			p.times[i].loopback = took
			check(i, "loopback", d)
			if fl == nil && i < head {
				d, took, _, err := untraced.step(i, "", "")
				if err != nil {
					return err
				}
				check(i, "untraced", d)
				untracedSecs += took
			}
		}
	}

	var sum, headSum selfTimes
	var all ringTimes
	for i, t := range p.times {
		s := t.self(cfg.w.fleet)
		sum = sum.add(s)
		if i < head {
			headSum = headSum.add(s)
		}
		all.lookup += t.lookup
		all.build += t.build
		all.sign += t.sign
		all.core += t.core
		all.commit += t.commit
		all.wait += t.wait
		all.server += t.server
	}
	us := 1e6 / float64(n)
	L := rep.layer
	mem.report(L, float64(n))
	per.report(L, float64(n))
	if err := srv.report(L, float64(n)); err != nil {
		return err
	}
	L["pkggraph.lookup_us"] = all.lookup * us
	L["spec.build_us"] = all.build * us
	L["similarity.sign_us"] = all.sign * us
	L["core.request_us"] = all.core * us
	L["persist.commit_us"] = all.commit * us
	L["persist.wait_durable_us"] = all.wait * us
	L["server.handler_us"] = all.server * us
	L["server.self_us"] = sum.server * us
	L["loadgen.transport_self_us"] = sum.transport * us
	L["fleet.forward_self_us"] = sum.fleet * us
	L["fleet.route_us"] = 0
	if fl != nil {
		L["fleet.route_us"] = p.routeMicros(fl.topo.master)
	}
	L["trace.accounted_share"] = headSum.sum() / untracedSecs

	fmt.Printf("budget over %d serial requests (mean self time per request):\n", n)
	total := sum.sum()
	for _, row := range []struct {
		name string
		v    float64
	}{
		{"pkggraph", sum.pkggraph}, {"spec", sum.spec}, {"similarity", sum.similarity},
		{"core", sum.core}, {"persist", sum.persist}, {"server", sum.server},
		{"transport", sum.transport}, {"fleet", sum.fleet},
	} {
		fmt.Printf("  %-10s %10.1f us %5.1f%%\n", row.name, row.v*us, 100*row.v/total)
	}
	fmt.Printf("  %-10s %10.1f us; the first %d: traced %.1f us, untraced full stack %.1f us\n",
		"total", total*us, head, headSum.sum()/float64(head)*1e6, untracedSecs/float64(head)*1e6)
	return p.tr.write(filepath.Join(filepath.Dir(cfg.dir), "trace-"+cfg.w.name+".jsonl"))
}

func (s selfTimes) add(o selfTimes) selfTimes {
	return selfTimes{
		pkggraph: s.pkggraph + o.pkggraph, spec: s.spec + o.spec, similarity: s.similarity + o.similarity,
		core: s.core + o.core, persist: s.persist + o.persist, server: s.server + o.server,
		transport: s.transport + o.transport, fleet: s.fleet + o.fleet,
	}
}
