package resilience

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
)

// ChaosPlan parameterizes seeded network fault injection. Each
// probability is evaluated independently per attempt in a fixed order
// (reset-before, blackhole, reset-after, truncate) from one
// seeded RNG, so a given seed yields the same fault schedule on every
// run.
type ChaosPlan struct {
	Seed int64

	// ResetBeforeP drops the connection before the request reaches the
	// server: the classic "connection reset by peer". The server never
	// sees the request.
	ResetBeforeP float64
	// ResetAfterP forwards the request, then drops the response: the
	// server did the work, the client cannot know. This is the fault
	// that makes non-idempotent retries dangerous and acked-only
	// durability audits necessary.
	ResetAfterP float64
	// BlackholeP swallows the request without ever answering; the
	// attempt fails only when the request's context deadline expires
	// (or immediately, with a timeout error, when it has no deadline —
	// a transport cannot block forever).
	BlackholeP float64
	// TruncateP forwards the exchange but cuts the response body in
	// half mid-stream, ending it with io.ErrUnexpectedEOF.
	TruncateP float64
}

// ChaosError is the error ChaosTransport fabricates, so tests can
// tell injected network faults from real ones. Timeout() reports true
// for blackholes, matching net.Error conventions.
type ChaosError struct {
	Kind    string // "reset-before", "reset-after", "blackhole", "truncate"
	Attempt int64
	timeout bool
}

// Error implements error.
func (e *ChaosError) Error() string {
	return fmt.Sprintf("resilience: injected %s fault (attempt %d)", e.Kind, e.Attempt)
}

// Timeout reports whether the fault presents as a timeout.
func (e *ChaosError) Timeout() bool { return e.timeout }

// Temporary implements the legacy net.Error surface.
func (e *ChaosError) Temporary() bool { return true }

// ChaosTransport is an http.RoundTripper injecting seeded network
// faults in front of an inner transport — connection resets (before
// or after the server processes the request), blackholes and truncated
// response bodies. Safe for concurrent use; concurrent
// attempts serialize on the seeded RNG so the fault *sequence* is
// deterministic even when the attempt interleaving is not.
type ChaosTransport struct {
	inner http.RoundTripper
	plan  ChaosPlan

	mu       sync.Mutex
	rng      *rand.Rand
	attempts int64
	injected int64
}

// NewChaosTransport wraps inner (nil = http.DefaultTransport) with the
// plan's seeded fault schedule.
func NewChaosTransport(inner http.RoundTripper, plan ChaosPlan) *ChaosTransport {
	if inner == nil {
		inner = http.DefaultTransport
	}
	return &ChaosTransport{inner: inner, plan: plan, rng: rand.New(rand.NewSource(plan.Seed))}
}

// Attempts returns how many round trips have been attempted (including
// ones that faulted before reaching the server).
func (t *ChaosTransport) Attempts() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempts
}

// Injected returns how many faults have been injected.
func (t *ChaosTransport) Injected() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.injected
}

// decision is one attempt's drawn fault schedule.
type decision struct {
	attempt     int64
	resetBefore bool
	blackhole   bool
	resetAfter  bool
	truncate    bool
}

// draw rolls the plan's dice in fixed order under the lock.
func (t *ChaosTransport) draw() decision {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempts++
	d := decision{attempt: t.attempts}
	p := t.plan
	d.resetBefore = p.ResetBeforeP > 0 && t.rng.Float64() < p.ResetBeforeP
	d.blackhole = p.BlackholeP > 0 && t.rng.Float64() < p.BlackholeP
	d.resetAfter = p.ResetAfterP > 0 && t.rng.Float64() < p.ResetAfterP
	d.truncate = p.TruncateP > 0 && t.rng.Float64() < p.TruncateP
	if d.resetBefore || d.blackhole || d.resetAfter || d.truncate {
		t.injected++
	}
	return d
}

// RoundTrip implements http.RoundTripper.
func (t *ChaosTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	d := t.draw()
	if d.resetBefore {
		return nil, &ChaosError{Kind: "reset-before", Attempt: d.attempt}
	}
	if d.blackhole {
		ctx := req.Context()
		if _, ok := ctx.Deadline(); ok {
			<-ctx.Done()
			return nil, &ChaosError{Kind: "blackhole", Attempt: d.attempt, timeout: true}
		}
		return nil, &ChaosError{Kind: "blackhole", Attempt: d.attempt, timeout: true}
	}
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if d.resetAfter {
		// The server processed the request; the client sees a dead
		// connection. Drain and drop the response.
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, &ChaosError{Kind: "reset-after", Attempt: d.attempt}
	}
	if d.truncate {
		resp.Body = &truncatedBody{inner: resp.Body, remain: resp.ContentLength / 2}
		resp.ContentLength = -1
	}
	return resp, nil
}

// truncatedBody serves half the response then fails, modeling a
// connection cut mid-body.
type truncatedBody struct {
	inner  io.ReadCloser
	remain int64
}

func (b *truncatedBody) Read(p []byte) (int, error) {
	if b.remain <= 0 {
		return 0, io.ErrUnexpectedEOF
	}
	if int64(len(p)) > b.remain {
		p = p[:b.remain]
	}
	n, err := b.inner.Read(p)
	b.remain -= int64(n)
	if err == io.EOF {
		// Shorter than expected already; keep the truncation signature.
		return n, io.ErrUnexpectedEOF
	}
	return n, err
}

func (b *truncatedBody) Close() error { return b.inner.Close() }
