package fleet

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestFleetSmoke is the CI fleet-smoke job: a master fronting two
// agents on loopback, 500 requests through the master, one agent
// SIGKILLed (its listener torn down, heartbeats stopped) halfway
// through. The contract: every request the client saw acknowledged is
// still served — as a hit on the acking agent when it survived, or
// re-satisfiable through the master regardless. Zero lost acks.
//
// CI runs this under -race; the heartbeat loops, the sweeper, and the
// request stream all run concurrently on purpose.
func TestFleetSmoke(t *testing.T) {
	f := newTestFleet(t, 2, MasterConfig{
		Quorum:         2,
		SuspectAfter:   30 * time.Millisecond,
		ForwardTimeout: 2 * time.Second,
	})
	survivor, victim := f.agents[0], f.agents[1]
	t.Cleanup(survivor.ag.Start())
	// The victim beats from a loop of its own, so the kill can stop its
	// beats without the graceful deregister Start's stop sends.
	stopVictimBeats := beatLoop(victim.ag, 10*time.Millisecond)
	t.Cleanup(stopVictimBeats)
	stopSweep := f.master.StartSweeper(10 * time.Millisecond)
	t.Cleanup(stopSweep)

	// Wait for quorum before opening traffic, like a deployment would.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := f.agents[0].ag.BeatNow(context.Background()); err == nil {
			if err := f.agents[1].ag.BeatNow(context.Background()); err == nil {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("fleet never reached quorum")
		}
		time.Sleep(5 * time.Millisecond)
	}

	const steps = 500
	type ack struct {
		keys  []string
		agent string
	}
	acked := make(map[string]ack)

	for i := 0; i < steps; i++ {
		if i == steps/2 {
			// SIGKILL one agent: listener gone, in-flight connections
			// severed, heartbeats stop. No graceful deregister.
			stopVictimBeats()
			victim.ts.CloseClientConnections()
			victim.ts.Close()
		}
		keys := specKeys(f.repo, i%60, 3)
		res, err := f.request(keys)
		if err != nil {
			// The master may 503 transiently while the victim's failure
			// is being learned; that is load shedding, not data loss.
			continue
		}
		if res.Agent == "" {
			t.Fatalf("step %d: 200 with no agent attribution", i)
		}
		if i > steps/2 && res.Agent == victim.id {
			t.Fatalf("step %d: request attributed to the killed agent", i)
		}
		acked[strings.Join(keys, ",")] = ack{keys: keys, agent: res.Agent}
	}
	if len(acked) == 0 {
		t.Fatal("no requests were acknowledged")
	}

	// Audit: every acked spec must still be servable through the
	// master, and specs acked by the survivor must be hits there.
	lost := 0
	for _, a := range acked {
		res, err := f.request(a.keys)
		if err != nil {
			lost++
			t.Errorf("acked spec %s unservable after agent kill: %v", strings.Join(a.keys, ","), err)
			continue
		}
		if a.agent == survivor.id && res.Agent == a.agent && res.Op != "hit" {
			t.Errorf("spec %s acked by survivor %s re-served as %q, want hit",
				strings.Join(a.keys, ","), a.agent, res.Op)
		}
	}
	if lost > 0 {
		t.Fatalf("%d of %d acked specs lost after agent kill", lost, len(acked))
	}
}

// beatLoop heartbeats ag every interval until the returned stop is
// called. stop waits for the loop to exit and does not deregister: what
// a SIGKILL leaves behind.
func beatLoop(ag *Agent, interval time.Duration) (stop func()) {
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				ag.BeatNow(context.Background()) // the next tick retries
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done); <-exited }) }
}
