package serve

import (
	"net/http"
	"time"

	"repro/internal/fleet"
)

// Fleet wiring: when Config.Fleet is set (paradmm-serve -fleet-addrs),
// eligible solve requests pass through the registry's admission planner
// before execution (workload.Solve). The planner routes each job local, remote (onto
// leased shardworkers with survivor failover), or shed (HTTP 429 — the
// healthy fleet has no free session slots and queueing behind a busy
// shardworker would only move the 429 to a refused handshake). GET
// /v1/fleet exposes the registry snapshot; /metrics grows a
// paradmm_fleet_* section.

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
