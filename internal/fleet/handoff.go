package fleet

import (
	"context"
	"fmt"
	"net/http"

	"repro/internal/server"
)

// Warm agent handoff: a deregistering agent (SIGTERM drain) pushes its
// resident-image specs to the agents that will inherit its keyspace,
// so its slice does not re-warm from zero.
//
// The master plans the handoff from state it already holds: the
// draining agent's gossiped directory names every resident image and
// its package set, and for each image the rendezvous order over the
// remaining agents names the successor — exactly where the routing
// layer will send that spec once the drainer is gone. The agent then
// POSTs each successor's slice to its /v1/warm endpoint and
// deregisters.

// HandoffTarget is one successor and the specs it inherits.
type HandoffTarget struct {
	ID    string     `json:"id"`
	URL   string     `json:"url"`
	Specs [][]string `json:"specs"`
}

// HandoffPlan is the GET /fleet/v1/handoff?id=X payload.
type HandoffPlan struct {
	Targets []HandoffTarget `json:"targets"`
}

// handleHandoff plans a drain for the named agent.
func (m *Master) handleHandoff(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		fleetWriteError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	id := r.URL.Query().Get("id")
	if id == "" {
		fleetWriteError(w, http.StatusBadRequest, "handoff needs ?id=<agent>")
		return
	}
	m.mu.Lock()
	plan := m.handoffPlanLocked(id)
	m.mu.Unlock()
	fleetWriteJSON(w, http.StatusOK, plan)
}

// handoffPlanLocked groups the drainer's resident specs by rendezvous
// successor. Caller holds m.mu.
func (m *Master) handoffPlanLocked(id string) HandoffPlan {
	var plan HandoffPlan
	dir := m.ms.Dir(id)
	if dir == nil {
		return plan
	}
	routable := m.ms.Routable()
	others := routable[:0:0]
	for _, a := range routable {
		if a != id {
			others = append(others, a)
		}
	}
	if len(others) == 0 {
		return plan
	}
	byTarget := make(map[string][][]string)
	var order []string // deterministic plan: first-appearance order
	for _, e := range dir.Entries() {
		if len(e.Packages) == 0 {
			continue
		}
		successor := RendezvousOrder(others, RouteKey(e.Packages))[0]
		if _, ok := byTarget[successor]; !ok {
			order = append(order, successor)
		}
		byTarget[successor] = append(byTarget[successor], e.Packages)
	}
	for _, t := range order {
		plan.Targets = append(plan.Targets, HandoffTarget{
			ID: t, URL: m.ms.URL(t), Specs: byTarget[t],
		})
	}
	return plan
}

// HandoffError reports the successors that did not take their slice
// of a drain's warm handoff: unreachable, or refusing /v1/warm (a
// degraded store refuses, and a store that degrades mid-warm refuses
// the rest of the batch). The drain itself completed — the agent left
// the fleet — so a caller may heal a successor and push its Specs again.
type HandoffError struct {
	Agent   string
	Refused []HandoffTarget
	Err     error // the first refusal
}

func (e *HandoffError) Error() string {
	return fmt.Sprintf("fleet agent %s: warm handoff refused by %d successor(s), first %s: %v",
		e.Agent, len(e.Refused), e.Refused[0].ID, e.Err)
}

// Drain performs the warm handoff and deregisters: gossip the current
// directory, fetch the plan from the first master that answers, push
// each successor's slice to its /v1/warm, then leave the fleet. The
// beat comes first because the plan is built from the masters' mirrors,
// which lack any image made since the last one. The deregistration
// always runs; a successor that did not take its slice is then
// reported in a *HandoffError.
func (a *Agent) Drain(ctx context.Context) error {
	a.BeatNow(ctx) // a master it cannot reach fails the plan request below
	var plan HandoffPlan
	var planErr error
	got := false
	for _, l := range a.links {
		planErr = l.client.DoCtx(ctx, http.MethodGet, "/fleet/v1/handoff?id="+a.cfg.ID, nil, &plan)
		if planErr == nil {
			got = true
			break
		}
	}
	refused := &HandoffError{Agent: a.cfg.ID}
	if got {
		for _, t := range plan.Targets {
			if t.URL == "" || len(t.Specs) == 0 {
				continue
			}
			cl := server.NewClient(t.URL, a.cfg.HTTPClient)
			cl.MaxRetries = 0
			if err := cl.DoCtx(ctx, http.MethodPost, "/v1/warm", server.WarmRequest{Specs: t.Specs}, nil); err != nil {
				refused.Refused = append(refused.Refused, t)
				if refused.Err == nil {
					refused.Err = err
				}
			}
		}
	}
	if err := a.Deregister(); err != nil {
		return err
	}
	if !got && planErr != nil {
		return fmt.Errorf("fleet agent %s: handoff plan: %w", a.cfg.ID, planErr)
	}
	if len(refused.Refused) > 0 {
		return refused
	}
	return nil
}
