// Fleet-mode wiring: -mode master serves the internal/fleet control
// plane (no repository, no cache — it routes /v1/request to registered
// agents by the rendezvous hash of the spec signature); -mode agent runs the
// normal cache daemon and additionally registers with a master,
// heartbeating its image directory so the master's routing and
// placement state stay warm.
package main

import (
	"context"
	"log"
	"time"

	"repro/internal/config"
	"repro/internal/fleet"
	"repro/internal/server"
)

// bootMaster boots the fleet control plane. The master holds only soft
// state — membership, breakers, directory mirrors — all rebuilt from agent
// re-registration after a restart, so there is no state directory, no
// recovery phase, and readiness is purely "a quorum of agents has
// registered" (fleet_quorum).
func bootMaster(site config.Site) *node {
	m := fleet.NewMaster(site.FleetMasterConfig())
	stopSweep := m.StartSweeper(site.HeartbeatInterval())
	stopLease := m.StartLeaseLoop()
	if site.HAEnabled() {
		role := "primary"
		if site.StandbyOf != "" {
			role = "standby of " + site.StandbyOf
		}
		log.Printf("landlordd: high availability on (master_id=%s, %s, lease every %v, failover after 2 missed leases)",
			site.MasterID, role, site.LeaseInterval())
	}
	log.Printf("landlordd: master control plane (quorum=%d, heartbeat=%v)",
		site.FleetQuorum, site.HeartbeatInterval())
	return &node{
		handler: m.Handler(),
		start:   func(context.Context) {},
		leave:   func() {},
		seal: func() {
			for _, mi := range m.MembersNow() {
				log.Printf("landlordd: final member %s state=%s images=%d", mi.ID, mi.State, mi.DirImages)
			}
			stopLease()
			stopSweep()
		},
	}
}

// newFleetAgent builds the fleet agent riding alongside srv. The
// generation is the startup time in nanoseconds: monotonically fresh
// per process, so the masters detect restarts (new gen) and reset
// their directory mirrors instead of trusting stale ones. The caller
// serves ag.Handler() (the epoch gate that fences superseded masters)
// and starts the beat loop with startFleetAgent once the handler is
// live.
func newFleetAgent(site config.Site, srv *server.Server) *fleet.Agent {
	return fleet.NewAgent(site.FleetAgentConfig(uint64(time.Now().UnixNano())), srv)
}

// startFleetAgent starts the heartbeat loop against every configured
// master. The returned stop halts the loop and deregisters; prefer
// drainFleetAgent on shutdown for the warm variant.
func startFleetAgent(site config.Site, ag *fleet.Agent) (stop func()) {
	cfg := site.FleetAgentConfig(0)
	log.Printf("landlordd: agent %q joining fleet at %v (advertise %s, beat every %v)",
		cfg.ID, cfg.MasterURLs, cfg.AdvertiseURL, cfg.Interval)
	return ag.Start()
}

// drainFleetAgent leaves the fleet warm: the masters' handoff plan
// routes this agent's resident specs to their rendezvous successors,
// which are pre-warmed before deregistration, so the keyspace this
// agent served stays hot across the departure.
func drainFleetAgent(ag *fleet.Agent, window time.Duration) {
	ctx, cancel := context.WithTimeout(context.Background(), window)
	defer cancel()
	if err := ag.Drain(ctx); err != nil {
		log.Printf("landlordd: warm drain incomplete: %v", err)
		return
	}
	log.Printf("landlordd: drained: hot specs handed to rendezvous successors")
}
