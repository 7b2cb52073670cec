package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fleet"
)

// reply is a /v1/request response; the master's payload is the daemon's
// plus the agent that served it.
type reply = fleet.RouteResponse

// loadgen drives one URL over a raw net/http client: as many
// connections as processors and one goroutine per connection, no
// retries and no breaker — a retry would hide a failure.
type loadgen struct {
	url     string
	conns   int
	client  *http.Client
	enc     *bodyEncoder
	w       *workload
	sent    int
	acked   int
	failed  int
	ops     map[string]int
	firstEr error
}

func newLoadgen(w *workload, url string, enc *bodyEncoder) *loadgen {
	conns := runtime.NumCPU()
	return &loadgen{
		url:   url + "/v1/request",
		conns: conns,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		}},
		enc: enc,
		w:   w,
		ops: map[string]int{},
	}
}

func (g *loadgen) close() { g.client.CloseIdleConnections() }

// sender is one connection's reusable buffers.
type sender struct {
	g    *loadgen
	body []byte
	resp bytes.Buffer
}

// send posts one request and checks the answer against what a correct
// server must say: 200, a known op, the closed spec's package count and
// byte size, and a hit where the workload guarantees one.
func (s *sender) send(r *request) (reply, error) {
	s.body = s.g.enc.appendBody(s.body[:0], r.ids)
	req, err := http.NewRequest(http.MethodPost, s.g.url, bytes.NewReader(s.body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.g.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	s.resp.Reset()
	_, err = io.Copy(&s.resp, resp.Body)
	resp.Body.Close()
	if err != nil {
		return reply{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return reply{}, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(s.resp.Bytes()))
	}
	var rep reply
	if err := json.Unmarshal(s.resp.Bytes(), &rep); err != nil {
		return reply{}, err
	}
	switch {
	case rep.Op != "hit" && rep.Op != "merge" && rep.Op != "insert":
		return rep, fmt.Errorf("unknown op %q", rep.Op)
	case rep.Packages != r.pkgs || rep.RequestBytes != r.bytes:
		return rep, fmt.Errorf("spec echoed as %d packages / %d bytes, want %d / %d",
			rep.Packages, rep.RequestBytes, r.pkgs, r.bytes)
	case r.repeat && s.g.w.repeatsHit && rep.Op != "hit":
		return rep, fmt.Errorf("repeat of a resident spec answered %q, want hit", rep.Op)
	}
	return rep, nil
}

// waitUntil returns at t by spinning. Sleeping cannot hold an open-loop
// schedule here: a Go timer that fires while its thread waits in epoll
// is rounded to milliseconds (median overshoot ~0.7 ms, twice a hit's
// service time), and a processor that halts between requests is slow to
// wake, by an amount that drifts from minute to minute on a shared
// host: with nanosleep and a 1 ms spin fleet_mixed's median latency
// read 1.9 to 3.3 ms over ten runs, spinning throughout 1.8 to 2.0 ms.
// A waiting sender holds one processor; once it sends it blocks on the
// reply and the processor serves the request.
func waitUntil(t time.Time) {
	for time.Now().Before(t) {
	}
}

// failedLatency is what a failed request's latency reads, in seconds:
// beyond every limit, and finite so the result still encodes as JSON.
const failedLatency = 60.0

// phaseResult holds one phase's per-request samples, indexed by the
// request's position in the phase.
type phaseResult struct {
	// latency is seconds from the request's due time (open loop) or its
	// send (closed loop) to the full reply; failed requests read failedLatency so
	// they miss every limit.
	latency []float64
	// lag is how late the generator itself ran, in seconds: the send
	// minus the later of the due time and the moment a connection was
	// free. Waiting for a connection is backlog and counts in latency.
	lag []float64
	// cpu is the CPU time, in seconds, the process used over the phase.
	cpu     float64
	failed  int
	replies []reply
}

// run sends reqs over the generator's connections. With due != nil it
// is an open loop: request i is not sent before due[i] and its latency
// counts from due[i]. With due == nil it is a closed loop: each
// connection sends its next request on reply. conns is how many of the
// generator's connections take part.
func (g *loadgen) run(reqs []request, due []time.Duration, conns int, keepReplies bool) *phaseResult {
	res := &phaseResult{
		latency: make([]float64, len(reqs)),
		lag:     make([]float64, len(reqs)),
	}
	if keepReplies {
		res.replies = make([]reply, len(reqs))
	}
	var next atomic.Int64
	cpu0 := cpuSeconds()
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := &sender{g: g}
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				from := time.Now()
				if due != nil {
					dueAt := start.Add(due[i])
					ready := from
					if dueAt.After(from) {
						waitUntil(dueAt)
						ready = dueAt
					}
					res.lag[i] = time.Since(ready).Seconds()
					from = dueAt
				}
				rep, err := s.send(&reqs[i])
				end := time.Now()
				res.latency[i] = end.Sub(from).Seconds()
				mu.Lock()
				g.sent++
				if err != nil {
					res.latency[i] = failedLatency
					res.failed++
					g.failed++
					if g.firstEr == nil {
						g.firstEr = fmt.Errorf("request %d: %w", i, err)
					}
				} else {
					g.acked++
					g.ops[rep.Op]++
				}
				mu.Unlock()
				if keepReplies {
					res.replies[i] = rep
				}
			}
		}()
	}
	wg.Wait()
	res.cpu = cpuSeconds() - cpu0
	return res
}
