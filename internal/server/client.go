package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/resilience"
	"repro/internal/telemetry"
)

// Client talks to a LANDLORD site service. It is safe for concurrent
// use (http.Client is, and the resilience state is internally locked).
//
// Idempotent requests (GETs) are retried with full-jitter capped
// exponential backoff on transport errors — connection refused while
// the daemon restarts, timeouts — and on 503, which the daemon serves
// while it replays its WAL after a crash. POSTs are never retried: a
// request that mutates the cache may have been applied even when its
// response was lost.
//
// Two mechanisms bound what retrying can cost the service:
//
//   - A circuit breaker around every exchange: after enough
//     consecutive transport/503 failures the client fails fast for a
//     cool-down instead of hammering a dead or drowning server, then
//     lets a single probe through. Responses the server chose to send
//     (429, 4xx, 500) close the loop as successes — the dependency is
//     reachable, it just said no.
//   - A retry budget: each initial attempt deposits a fraction of a
//     retry, each retry withdraws one. A healthy service never
//     notices; a brownout caps aggregate retry amplification at the
//     deposit ratio instead of MaxRetries×.
type Client struct {
	base string
	hc   *http.Client

	// MaxRetries bounds re-attempts after the first try of an
	// idempotent request (0 disables retrying).
	MaxRetries int
	// RetryBase is the first backoff ceiling; each retry doubles it.
	RetryBase time.Duration
	// RetryCap bounds the backoff ceiling (every attempt, including
	// the first: a misconfigured RetryBase > RetryCap is clamped, not
	// honored).
	RetryCap time.Duration

	breaker *resilience.Breaker
	budget  *resilience.RetryBudget

	sleep  func(time.Duration) // test hook
	jitter func() float64      // in [0,1); seeded/injectable for tests

	extraHeaders func(http.Header)
}

// NewClient creates a client for the service at base (e.g.
// "http://headnode:8080"). A nil httpClient uses http.DefaultClient.
// Retry policy defaults: 4 retries, 100ms base, 2s cap, full jitter,
// a 5-failure/1s-cool-down breaker, and a 0.2-ratio/10-burst retry
// budget.
func NewClient(base string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{
		base:       base,
		hc:         httpClient,
		MaxRetries: 4,
		RetryBase:  100 * time.Millisecond,
		RetryCap:   2 * time.Second,
		breaker:    resilience.NewBreaker(resilience.BreakerConfig{}),
		budget:     resilience.NewRetryBudget(0, 0),
		sleep:      time.Sleep,
		jitter:     rand.Float64,
	}
}

// SetBreaker replaces the client's circuit breaker (nil disables it).
// Call before use; not safe to change concurrently with requests.
func (c *Client) SetBreaker(b *resilience.Breaker) { c.breaker = b }

// SetRetryBudget replaces the client's retry budget (nil removes the
// bound). Call before use.
func (c *Client) SetRetryBudget(b *resilience.RetryBudget) { c.budget = b }

// SetJitter replaces the backoff jitter source with fn (values in
// [0,1)); tests inject a seeded RNG so sleep schedules are
// reproducible. fn must be safe for concurrent use if the client is
// shared.
func (c *Client) SetJitter(fn func() float64) { c.jitter = fn }

// SetExtraHeaders installs a hook stamping extra headers on every
// outgoing request — the fleet master uses it to mark forwards with
// its lease epoch. Call before use; fn must be safe for concurrent use
// if the client is shared.
func (c *Client) SetExtraHeaders(fn func(http.Header)) { c.extraHeaders = fn }

// Breaker returns the client's circuit breaker (nil when disabled),
// for tests and metrics.
func (c *Client) Breaker() *resilience.Breaker { return c.breaker }

// StatusError is a non-200 service response, exposing the status code
// for callers that dispatch on it (429 vs 503 vs 4xx).
type StatusError struct {
	Method string
	Path   string
	Status int
	Msg    string // server-provided error payload, may be empty
	// RetryAfter is the server's Retry-After hint (zero when absent).
	// DoCtx honors it as a floor under the jittered backoff, so a
	// fleet-wide "come back in N seconds" during failover is respected
	// even when the jitter would have retried sooner.
	RetryAfter time.Duration
	// Epoch is the fleet lease epoch stamped on the response (zero when
	// absent), letting callers spot a failover mid-conversation.
	Epoch uint64
}

// Error implements error.
func (e *StatusError) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("server client: %s %s: %s (status %d)", e.Method, e.Path, e.Msg, e.Status)
	}
	return fmt.Sprintf("server client: %s %s: status %d", e.Method, e.Path, e.Status)
}

// backoff returns the delay ceiling before retry attempt n (1-based):
// RetryBase doubled per attempt, capped at RetryCap — including the
// first retry, so RetryBase > RetryCap never sleeps past the cap.
func (c *Client) backoff(n int) time.Duration {
	d := c.RetryBase
	if d <= 0 {
		d = 100 * time.Millisecond
	}
	for i := 1; i < n; i++ {
		d *= 2
		if c.RetryCap > 0 && d >= c.RetryCap {
			d = c.RetryCap
			break
		}
	}
	if c.RetryCap > 0 && d > c.RetryCap {
		d = c.RetryCap
	}
	return d
}

// sleepBackoff sleeps the full-jitter delay for retry n: a uniformly
// random fraction of the exponential ceiling. Deterministic backoff
// synchronizes every client that failed together into retrying
// together — the thundering herd that keeps a recovering server down;
// jitter spreads the herd across the whole window. A server-provided
// Retry-After floor wins over a shorter jittered delay: when the
// service names its recovery window, retrying inside it is wasted
// load.
func (c *Client) sleepBackoff(n int, floor time.Duration) {
	d := c.backoff(n)
	if c.jitter != nil {
		d = time.Duration(c.jitter() * float64(d))
	}
	if d < floor {
		d = floor
	}
	c.sleep(d)
}

// do issues a request and decodes the JSON response into out. See
// DoCtx.
func (c *Client) do(method, path string, in, out any) error {
	return c.DoCtx(context.Background(), method, path, in, out)
}

// DoCtx issues one API request under ctx — deadline/cancellation apply
// to every attempt, and a context deadline is propagated to the server
// in the X-Landlord-Deadline header so server-side work the caller has
// abandoned aborts early. JSON-encodes in (nil = no body; a []byte is
// a body already encoded and is sent as it is), decodes the response
// into out (nil = discard), converts service error payloads
// into *StatusError, and retries idempotent requests per the client's
// retry policy, breaker, and budget.
func (c *Client) DoCtx(ctx context.Context, method, path string, in, out any) error {
	var payload []byte
	if raw, ok := in.([]byte); ok {
		payload = raw
	} else if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("server client: encoding request: %w", err)
		}
		payload = data
	}
	attempts := 1
	if method == http.MethodGet && c.MaxRetries > 0 {
		attempts += c.MaxRetries
	}
	if c.budget != nil {
		c.budget.OnAttempt()
	}
	var lastErr error
	for attempt := 1; attempt <= attempts; attempt++ {
		if attempt > 1 {
			if c.budget != nil && !c.budget.Withdraw() {
				return fmt.Errorf("server client: retry budget exhausted: %w", lastErr)
			}
			var floor time.Duration
			var se *StatusError
			if errors.As(lastErr, &se) {
				floor = se.RetryAfter
			}
			c.sleepBackoff(attempt-1, floor)
		}
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return lastErr
			}
			return fmt.Errorf("server client: %s %s: %w", method, path, err)
		}
		retryable, err := c.tryCtx(ctx, method, path, payload, out)
		if err == nil {
			return nil
		}
		lastErr = err
		if !retryable {
			return err
		}
	}
	return lastErr
}

// tryCtx performs one HTTP exchange under the circuit breaker. The
// boolean reports whether the failure is worth retrying (transport
// error, 503, or an open circuit that may close before the next
// attempt).
func (c *Client) tryCtx(ctx context.Context, method, path string, payload []byte, out any) (bool, error) {
	var done func(bool)
	if c.breaker != nil {
		var err error
		done, err = c.breaker.Allow()
		if err != nil {
			// Fail fast; by the next backoff the cool-down may have
			// elapsed, making that attempt the half-open probe.
			return true, fmt.Errorf("server client: %s %s: %w", method, path, err)
		}
	}
	retryable, err := c.exchange(ctx, method, path, payload, out)
	if done != nil {
		// The circuit tracks the dependency, not the call: any response
		// the server chose to send — including 429 and 4xx — proves the
		// dependency alive. Only transport failures and 503 count
		// against it.
		done(err == nil || !retryable)
	}
	return retryable, err
}

// exchange is one raw HTTP round trip plus decode.
func (c *Client) exchange(ctx context.Context, method, path string, payload []byte, out any) (bool, error) {
	var body io.Reader
	if payload != nil {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return false, fmt.Errorf("server client: %w", err)
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if deadline, ok := ctx.Deadline(); ok {
		req.Header.Set(DeadlineHeader, strconv.FormatInt(deadline.UnixNano(), 10))
	}
	// Trace propagation: a caller holding an ActiveTrace in ctx gets
	// its trace continued on the server side (same trace ID, this hop's
	// root span as the remote parent).
	if at := telemetry.TraceFromContext(ctx); at != nil {
		req.Header.Set(telemetry.TraceHeaderName,
			telemetry.FormatTraceHeader(at.TraceID(), at.Root()))
	}
	if c.extraHeaders != nil {
		c.extraHeaders(req.Header)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return true, fmt.Errorf("server client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		retryable := resp.StatusCode == http.StatusServiceUnavailable
		se := &StatusError{Method: method, Path: path, Status: resp.StatusCode}
		if v := resp.Header.Get("Retry-After"); v != "" {
			if secs, err := strconv.Atoi(v); err == nil && secs > 0 {
				se.RetryAfter = time.Duration(secs) * time.Second
			}
		}
		if v := resp.Header.Get(EpochHeader); v != "" {
			if e, err := strconv.ParseUint(v, 10, 64); err == nil {
				se.Epoch = e
			}
		}
		var eb errorBody
		if err := json.NewDecoder(resp.Body).Decode(&eb); err == nil {
			se.Msg = eb.Error
		}
		return retryable, se
	}
	if out == nil {
		return false, nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return false, fmt.Errorf("server client: decoding response: %w", err)
	}
	return false, nil
}

// Request submits a job specification (package keys) and returns the
// image decision. close adds the dependency closure server-side.
func (c *Client) Request(packages []string, close bool) (RequestResponse, error) {
	return c.RequestCtx(context.Background(), packages, close)
}

// RequestCtx is Request under a context: cancellation aborts the
// exchange client-side, and a deadline is propagated to the server so
// it can abandon the work too.
func (c *Client) RequestCtx(ctx context.Context, packages []string, close bool) (RequestResponse, error) {
	var out RequestResponse
	err := c.DoCtx(ctx, http.MethodPost, "/v1/request", RequestBody{Packages: packages, Close: close}, &out)
	return out, err
}

// Stats fetches the service counters.
func (c *Client) Stats() (StatsResponse, error) {
	var out StatsResponse
	err := c.do(http.MethodGet, "/v1/stats", nil, &out)
	return out, err
}

// Images lists the cached images.
func (c *Client) Images() ([]ImageInfo, error) {
	var out []ImageInfo
	err := c.do(http.MethodGet, "/v1/images", nil, &out)
	return out, err
}

// Prune triggers a split pass.
func (c *Client) Prune(maxUtilization float64, minServed int) ([]SplitInfo, error) {
	var out []SplitInfo
	err := c.do(http.MethodPost, "/v1/prune", PruneBody{MaxUtilization: maxUtilization, MinServed: minServed}, &out)
	return out, err
}

// Checkpoint asks the service to durably checkpoint its cache state.
func (c *Client) Checkpoint() (persist.CheckpointInfo, error) {
	var out persist.CheckpointInfo
	err := c.do(http.MethodPost, "/v1/checkpoint", nil, &out)
	return out, err
}

// Snapshot fetches the cache state for persistence.
func (c *Client) Snapshot() ([]core.ImageSnapshot, error) {
	var out []core.ImageSnapshot
	err := c.do(http.MethodGet, "/v1/snapshot", nil, &out)
	return out, err
}

// Restore loads a snapshot into an empty service cache.
func (c *Client) Restore(snaps []core.ImageSnapshot) error {
	return c.do(http.MethodPost, "/v1/restore", snaps, nil)
}

// Healthz checks service liveness: 200 whenever the process is up,
// even while recovering or degraded.
func (c *Client) Healthz() error {
	return c.do(http.MethodGet, "/v1/healthz", nil, nil)
}

// Ready checks service readiness: an error while the daemon is
// recovering, degraded, or mid-heal.
func (c *Client) Ready() error {
	return c.do(http.MethodGet, "/v1/readyz", nil, nil)
}

// IsCircuitOpen reports whether err is the client's breaker failing
// fast (no attempt reached the server).
func IsCircuitOpen(err error) bool {
	return errors.Is(err, resilience.ErrCircuitOpen)
}

// Events fetches the most recent request trace events, oldest first.
// limit <= 0 fetches everything the server retains.
func (c *Client) Events(limit int) ([]telemetry.Event, error) {
	path := "/v1/events"
	if limit > 0 {
		path = fmt.Sprintf("/v1/events?limit=%d", limit)
	}
	var out []telemetry.Event
	err := c.do(http.MethodGet, path, nil, &out)
	return out, err
}

// Traces fetches the server's tail-sampling trace ring (GET /v1/trace),
// slowest first. limit <= 0 fetches everything retained.
func (c *Client) Traces(limit int) ([]telemetry.Trace, error) {
	path := "/v1/trace"
	if limit > 0 {
		path = fmt.Sprintf("/v1/trace?limit=%d", limit)
	}
	var out []telemetry.Trace
	err := c.do(http.MethodGet, path, nil, &out)
	return out, err
}

// TraceByID fetches one retained trace (GET /v1/trace/{id}).
func (c *Client) TraceByID(id telemetry.TraceID) (telemetry.Trace, error) {
	var out telemetry.Trace
	err := c.do(http.MethodGet, "/v1/trace/"+id.String(), nil, &out)
	return out, err
}
