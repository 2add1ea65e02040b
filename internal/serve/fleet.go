package serve

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/admm"
	"repro/internal/fleet"
)

// Fleet wiring: when Config.Fleet is set (paradmm-serve -fleet-addrs),
// eligible solve requests pass through the registry's admission planner
// before execution. The planner routes each job local, remote (onto
// leased shardworkers with survivor failover), or shed (HTTP 429 — the
// healthy fleet has no free session slots and queueing behind a busy
// shardworker would only move the 429 to a refused handshake). GET
// /v1/fleet exposes the registry snapshot; /metrics grows a
// paradmm_fleet_* section.

// fleetEligible reports whether a request's executor spec delegates the
// local-vs-remote choice to the fleet planner: an unset or auto kind,
// or a sharded sockets spec that names no workers of its own. Specs
// that pin explicit addrs (or any other concrete executor) keep their
// requested behavior.
func fleetEligible(spec admm.ExecutorSpec) bool {
	switch spec.Kind {
	case "", admm.ExecAuto:
		return spec.Transport == "" && len(spec.Addrs) == 0
	case admm.ExecSharded:
		return spec.Transport == admm.TransportSockets && len(spec.Addrs) == 0
	}
	return false
}

// FleetView is the GET /v1/fleet body.
type FleetView struct {
	Workers         []fleet.Worker `json:"workers"`
	Stats           fleet.Stats    `json:"stats"`
	ProbeIntervalMS int            `json:"probe_interval_ms"`
}

func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Fleet == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no fleet configured (start paradmm-serve with -fleet-addrs)"})
		return
	}
	writeJSON(w, http.StatusOK, FleetView{
		Workers:         s.cfg.Fleet.Snapshot(),
		Stats:           s.cfg.Fleet.Stats(),
		ProbeIntervalMS: int(s.cfg.Fleet.ProbeInterval() / time.Millisecond),
	})
}

// countFleetRoute tallies one planner verdict.
func (m *metrics) countFleetRoute(route string) {
	m.mu.Lock()
	m.fleetRouted[route]++
	m.mu.Unlock()
}

// renderFleetMetrics writes the paradmm_fleet_* section: worker states
// and lease load from the registry, route verdicts and worker-cache
// tiers from the request path. Rendered only when a fleet
// is configured.
func (s *Server) renderFleetMetrics(b *strings.Builder) {
	st := s.cfg.Fleet.Stats()
	fmt.Fprintf(b, "# HELP paradmm_fleet_workers Registered shardworkers by lifecycle state.\n")
	fmt.Fprintf(b, "# TYPE paradmm_fleet_workers gauge\n")
	for _, state := range []fleet.State{fleet.StateJoining, fleet.StateHealthy, fleet.StateSuspect, fleet.StateDead} {
		fmt.Fprintf(b, "paradmm_fleet_workers{state=%q} %d\n", state, st.States[state])
	}
	fmt.Fprintf(b, "# HELP paradmm_fleet_probe_rounds_total Registry health-probe rounds completed.\n")
	fmt.Fprintf(b, "# TYPE paradmm_fleet_probe_rounds_total counter\n")
	fmt.Fprintf(b, "paradmm_fleet_probe_rounds_total %d\n", st.Rounds)
	fmt.Fprintf(b, "# HELP paradmm_fleet_in_flight Session slots currently leased to running solves.\n")
	fmt.Fprintf(b, "# TYPE paradmm_fleet_in_flight gauge\n")
	fmt.Fprintf(b, "paradmm_fleet_in_flight %d\n", st.InFlight)
	fmt.Fprintf(b, "# HELP paradmm_fleet_solves_total Leases released back to the registry (worker-solves).\n")
	fmt.Fprintf(b, "# TYPE paradmm_fleet_solves_total counter\n")
	fmt.Fprintf(b, "paradmm_fleet_solves_total %d\n", st.Solves)

	s.met.mu.Lock()
	routes := make([]string, 0, len(s.met.fleetRouted))
	for k := range s.met.fleetRouted {
		routes = append(routes, k)
	}
	sort.Strings(routes)
	fmt.Fprintf(b, "# HELP paradmm_fleet_routed_total Planner verdicts by route.\n")
	fmt.Fprintf(b, "# TYPE paradmm_fleet_routed_total counter\n")
	for _, k := range routes {
		fmt.Fprintf(b, "paradmm_fleet_routed_total{route=%q} %d\n", k, s.met.fleetRouted[k])
	}
	hits, graphHits, misses := s.met.shardCacheHits, s.met.shardCacheGraphHits, s.met.shardCacheMisses
	s.met.mu.Unlock()

	fmt.Fprintf(b, "# HELP paradmm_fleet_cache_hits_total Remote worker sessions served from the worker's cache with their state: no rebuild, no state push (state tier).\n")
	fmt.Fprintf(b, "# TYPE paradmm_fleet_cache_hits_total counter\n")
	fmt.Fprintf(b, "paradmm_fleet_cache_hits_total %d\n", hits)
	fmt.Fprintf(b, "# HELP paradmm_fleet_cache_graph_hits_total Remote worker sessions that reused the cached graph but took the state push (graph tier).\n")
	fmt.Fprintf(b, "# TYPE paradmm_fleet_cache_graph_hits_total counter\n")
	fmt.Fprintf(b, "paradmm_fleet_cache_graph_hits_total %d\n", graphHits)
	fmt.Fprintf(b, "# HELP paradmm_fleet_cache_misses_total Remote worker sessions that built the problem from the config.\n")
	fmt.Fprintf(b, "# TYPE paradmm_fleet_cache_misses_total counter\n")
	fmt.Fprintf(b, "paradmm_fleet_cache_misses_total %d\n", misses)
}
