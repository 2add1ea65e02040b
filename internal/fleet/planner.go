package fleet

import (
	"fmt"
	"time"

	"repro/internal/admm"
	"repro/internal/graph"
)

// PlannerConfig tunes the admission planner. Zero values take the auto
// policy's thresholds, so the planner and ExecutorSpec{Kind: "auto"}
// agree on when sharding pays.
type PlannerConfig struct {
	// MinEdges is the remote floor: graphs below it solve locally
	// regardless of fleet state (default admm.AutoShardMinEdges).
	MinEdges int
	// MaxCutShare caps the predicted exchange share — the balanced
	// partition's graph.CutCost divided by the graph's
	// per-iteration edge-state words (Edges * D). Above it, boundary
	// traffic would dominate the solve and the request stays local
	// (default admm.AutoMaxCutShare).
	MaxCutShare float64
	// MinWorkers is the smallest remote shard count worth the network
	// round trips (default 2). A fleet with fewer healthy workers routes
	// local; fewer *available* (unleased) workers sheds.
	MinWorkers int
	// MaxWorkers caps the leased shard count (default
	// admm.AutoMaxShards).
	MaxWorkers int
}

func (c PlannerConfig) withDefaults() PlannerConfig {
	if c.MinEdges <= 0 {
		c.MinEdges = admm.AutoShardMinEdges
	}
	if c.MaxCutShare <= 0 {
		c.MaxCutShare = admm.AutoMaxCutShare
	}
	if c.MinWorkers <= 0 {
		c.MinWorkers = 2
	}
	if c.MaxWorkers <= 0 {
		c.MaxWorkers = admm.AutoMaxShards
	}
	if c.MaxWorkers < c.MinWorkers {
		c.MaxWorkers = c.MinWorkers
	}
	return c
}

// Route is the planner's verdict for one request.
type Route string

const (
	// RouteLocal: solve in-process (graph too small, fleet too small,
	// or predicted exchange share too high for the wire to pay).
	RouteLocal Route = "local"
	// RouteRemote: solve on the leased fleet workers.
	RouteRemote Route = "remote"
	// RouteShed: the fleet is worth using but saturated — the caller
	// should reject the request (HTTP 429) rather than queue behind a
	// slot that a shardworker would refuse anyway.
	RouteShed Route = "shed"
)

// Decision is one admission verdict. Remote decisions carry a live
// lease: the caller must Release it when the solve finishes (Release is
// a no-op for local and shed decisions).
type Decision struct {
	Route  Route  `json:"route"`
	Reason string `json:"reason"`
	// Addrs / Shards describe the remote plan.
	Addrs  []string `json:"addrs,omitempty"`
	Shards int      `json:"shards,omitempty"`
	// CutShare is the predicted exchange share that justified (or
	// vetoed) the remote route.
	CutShare float64 `json:"cut_share,omitempty"`

	lease *Lease
}

// Release returns the decision's leased slots, if any.
func (d *Decision) Release() {
	if d == nil {
		return
	}
	d.lease.Release()
	d.lease = nil
}

// Plan routes one solve. The load input is the registry's live
// in-flight lease count — deliberately not probe RTT, which measures
// how fast a worker's accept loop answered a ping, not whether its
// single session slot is free. The slot is claimed (Acquire) before
// the partition is evaluated, so two concurrent Plans cannot both be
// promised the same worker; if the partition then predicts too much
// boundary traffic the lease is returned and the request stays local.
func (r *Registry) Plan(g *graph.Graph, pc PlannerConfig) Decision {
	pc = pc.withDefaults()
	st := g.Stats()
	if st.Edges < pc.MinEdges {
		return Decision{Route: RouteLocal, Reason: fmt.Sprintf("graph below remote floor (%d edges < %d)", st.Edges, pc.MinEdges)}
	}
	healthy, avail := 0, 0
	for _, w := range r.Snapshot() {
		if w.State != StateHealthy {
			continue
		}
		healthy++
		if w.InFlight < r.cfg.MaxInFlight {
			avail++
		}
	}
	if healthy < pc.MinWorkers {
		return Decision{Route: RouteLocal, Reason: fmt.Sprintf("fleet too small (%d healthy < %d)", healthy, pc.MinWorkers)}
	}
	if avail < pc.MinWorkers {
		return Decision{Route: RouteShed, Reason: fmt.Sprintf("fleet saturated (%d healthy, %d with a free slot, need %d)", healthy, avail, pc.MinWorkers)}
	}
	lease := r.Acquire(pc.MaxWorkers)
	if lease == nil || len(lease.Addrs) < pc.MinWorkers {
		// Lost the race to a concurrent Plan between Snapshot and
		// Acquire.
		lease.Release()
		return Decision{Route: RouteShed, Reason: "fleet saturated (lease race)"}
	}
	shards := len(lease.Addrs)
	// Partition evaluation runs outside the registry lock — CutCost is
	// O(E) and must not stall probe rounds or concurrent admissions.
	cut, ok := admm.ShardedCutCost(g, shards)
	share := cut / float64(st.Edges*st.D)
	if !ok || share > pc.MaxCutShare {
		lease.Release()
		if !ok {
			return Decision{Route: RouteLocal, Reason: fmt.Sprintf("no balanced %d-way partition", shards)}
		}
		return Decision{Route: RouteLocal, CutShare: share, Reason: fmt.Sprintf("predicted exchange share %.2f above %.2f cap", share, pc.MaxCutShare)}
	}
	return Decision{
		Route:    RouteRemote,
		Reason:   fmt.Sprintf("%d workers leased, exchange share %.2f", shards, share),
		Addrs:    lease.Addrs,
		Shards:   shards,
		CutShare: share,
		lease:    lease,
	}
}

// Spec projects a remote decision onto an executor spec, clearing the
// knobs that belong to the kind the request named (a request that asked
// for the serial oracle's fused: false must still validate once it is
// rewritten to sharded; tolerances ride elsewhere) and wiring the
// registry in as the dialer so handshakes drain the prewarmed pool.
// Warm caching is always on for fleet routes: the whole point of a
// persistent fleet is that the second solve of a problem skips the
// workload down-sync.
func (d Decision) Spec(r *Registry, base admm.ExecutorSpec) admm.ExecutorSpec {
	s := base
	s.Kind = admm.ExecSharded
	s.Transport = admm.TransportSockets
	s.Addrs = append([]string(nil), d.Addrs...)
	s.Shards = len(d.Addrs)
	s.WarmCache = true
	s.WorkerDialer = r.Dial
	s.Workers = 0
	s.Dynamic = false
	s.BalancedZ = false
	s.Fused = nil
	if s.Failover == "" {
		s.Failover = admm.FailoverSurvivors
	}
	return s
}

// probeIntervalHint lets callers (serve's /v1/fleet handler) report the
// cadence without re-plumbing the config.
func (r *Registry) ProbeInterval() time.Duration { return r.cfg.ProbeInterval }
