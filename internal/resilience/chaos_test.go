package resilience

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func chaosBackend(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, strings.Repeat("x", 1024))
	}))
	t.Cleanup(srv.Close)
	return srv
}

func TestChaosTransportCleanPassThrough(t *testing.T) {
	srv := chaosBackend(t)
	ct := NewChaosTransport(nil, ChaosPlan{Seed: 1})
	hc := &http.Client{Transport: ct}
	resp, err := hc.Get(srv.URL)
	if err != nil {
		t.Fatalf("clean plan errored: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || len(body) != 1024 {
		t.Fatalf("body read = %d bytes, err=%v", len(body), err)
	}
	if ct.Attempts() != 1 || ct.Injected() != 0 {
		t.Fatalf("attempts/injected = %d/%d, want 1/0", ct.Attempts(), ct.Injected())
	}
}

func TestChaosTransportResetBefore(t *testing.T) {
	var served int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served++
	}))
	defer srv.Close()
	ct := NewChaosTransport(nil, ChaosPlan{Seed: 1, ResetBeforeP: 1})
	hc := &http.Client{Transport: ct}
	_, err := hc.Get(srv.URL)
	var ce *ChaosError
	if !errors.As(err, &ce) || ce.Kind != "reset-before" {
		t.Fatalf("err = %v, want reset-before ChaosError", err)
	}
	if served != 0 {
		t.Fatal("reset-before must not reach the server")
	}
}

func TestChaosTransportResetAfterReachesServer(t *testing.T) {
	var served int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served++
	}))
	defer srv.Close()
	ct := NewChaosTransport(nil, ChaosPlan{Seed: 1, ResetAfterP: 1})
	hc := &http.Client{Transport: ct}
	_, err := hc.Get(srv.URL)
	var ce *ChaosError
	if !errors.As(err, &ce) || ce.Kind != "reset-after" {
		t.Fatalf("err = %v, want reset-after ChaosError", err)
	}
	if served != 1 {
		t.Fatalf("served = %d; reset-after must reach the server exactly once", served)
	}
}

func TestChaosTransportBlackholeHonorsDeadline(t *testing.T) {
	srv := chaosBackend(t)
	ct := NewChaosTransport(nil, ChaosPlan{Seed: 1, BlackholeP: 1})
	hc := &http.Client{Transport: ct}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
	start := time.Now()
	_, err := hc.Do(req)
	if err == nil {
		t.Fatal("blackhole returned a response")
	}
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Fatalf("blackhole returned after %v, want to block until the deadline", elapsed)
	}
}

func TestChaosTransportTruncate(t *testing.T) {
	srv := chaosBackend(t)
	ct := NewChaosTransport(nil, ChaosPlan{Seed: 1, TruncateP: 1})
	hc := &http.Client{Transport: ct}
	resp, err := hc.Get(srv.URL)
	if err != nil {
		t.Fatalf("truncate should fail mid-body, not up front: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("body read err = %v, want ErrUnexpectedEOF", err)
	}
	if len(body) >= 1024 {
		t.Fatalf("read %d bytes, want a truncated body", len(body))
	}
}

func TestChaosTransportDeterministicSchedule(t *testing.T) {
	plan := ChaosPlan{Seed: 42, ResetBeforeP: 0.3, ResetAfterP: 0.3, TruncateP: 0.3}
	run := func() []string {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.WriteString(w, strings.Repeat("y", 256))
		}))
		defer srv.Close()
		ct := NewChaosTransport(nil, plan)
		hc := &http.Client{Transport: ct}
		var kinds []string
		for i := 0; i < 50; i++ {
			resp, err := hc.Get(srv.URL)
			if err != nil {
				var ce *ChaosError
				if errors.As(err, &ce) {
					kinds = append(kinds, ce.Kind)
				} else {
					kinds = append(kinds, "other")
				}
				continue
			}
			_, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if errors.Is(rerr, io.ErrUnexpectedEOF) {
				kinds = append(kinds, "truncate")
			} else {
				kinds = append(kinds, "ok")
			}
		}
		return kinds
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedule diverged at attempt %d: %q vs %q\na=%v\nb=%v", i, a[i], b[i], a, b)
		}
	}
}
