package serve

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/admm"
	"repro/internal/bulk"
	"repro/internal/graph"
	"repro/internal/shard"
	"repro/internal/store"
)

// metrics aggregates service counters for the /metrics endpoint. The
// exposition format is the Prometheus text format, rendered by hand so
// the service stays dependency-free.
type metrics struct {
	mu sync.Mutex
	// requests counts finished solve admissions by workload and outcome
	// ("ok", "bad_request", "queue_full", "failed", "accepted").
	requests map[string]uint64
	// iterations and per-phase/solve wall time accumulate across jobs.
	iterations uint64
	phaseNanos [admm.NumPhases]int64
	solveNanos int64
	buildNanos int64

	// Sharded-executor aggregates: solve count, cumulative boundary
	// synchronization time, and the last run's partition shape (a
	// gauge — the footprint of the most recent sharded request).
	shardSolves        uint64
	shardSyncNanos     int64
	shardBoundaryNanos int64
	shardLast          shard.Stats

	// Failover-policy aggregates: dial+handshake retries burned,
	// worker-set shrinks, local-executor fallbacks, failed attempts
	// (each names one lost worker), and the last health probe taken
	// while failing over (a gauge pair: alive/probed).
	shardRetries        uint64
	shardFailovers      uint64
	shardLocalFallbacks uint64
	shardWorkerFailures uint64
	shardHealth         []shard.WorkerHealth

	// Fleet aggregates: planner verdicts by route, and the worker-cache
	// tiers every remote solve's Ready frames reported, folded out of
	// sharded-solve stats (rendered only when a fleet is configured).
	fleetRouted         map[string]uint64
	shardCacheHits      uint64
	shardCacheGraphHits uint64
	shardCacheMisses    uint64

	// Bulk-stream aggregates: stream count by outcome ("ok", "aborted",
	// "rejected") plus cumulative record/solve counters reported by
	// finished pipelines (internal/bulk.Stats).
	bulkStreams    map[string]uint64
	bulkRecords    uint64
	bulkErrors     uint64
	bulkSolved     uint64
	bulkWarmStarts uint64
	bulkIterations uint64

	inflight     atomic.Int64
	bulkInflight atomic.Int64
}

func newMetrics() *metrics {
	return &metrics{
		requests:    map[string]uint64{},
		bulkStreams: map[string]uint64{},
		fleetRouted: map[string]uint64{},
	}
}

func (m *metrics) countRequest(workload, outcome string) {
	m.mu.Lock()
	m.requests[workload+"\x00"+outcome]++
	m.mu.Unlock()
}

func (m *metrics) recordSolve(res admm.Result, buildNanos int64) {
	m.mu.Lock()
	m.iterations += uint64(res.Iterations)
	for p, v := range res.PhaseNanos {
		m.phaseNanos[p] += v
	}
	m.solveNanos += res.Elapsed.Nanoseconds()
	m.buildNanos += buildNanos
	m.mu.Unlock()
}

// recordShard accumulates one sharded solve's partition and
// synchronization statistics.
func (m *metrics) recordShard(s shard.Stats) {
	m.mu.Lock()
	m.shardSolves++
	// The shard that waited longest: shard 0 alone may be the one the
	// others wait for, and then reports next to nothing.
	if len(s.SyncWaitByShard) > 0 {
		m.shardSyncNanos += slices.Max(s.SyncWaitByShard)
	}
	m.shardBoundaryNanos += s.BoundaryZNanos
	m.shardCacheHits += uint64(s.CacheHits)
	m.shardCacheGraphHits += uint64(s.CacheGraphHits)
	m.shardCacheMisses += uint64(s.CacheMisses)
	m.shardLast = s
	m.mu.Unlock()
}

// recordFailover folds one solve's recovery trail into the aggregates
// (called for failed solves too — the trail is the point; an
// in-process solve's trail is empty).
func (m *metrics) recordFailover(out shard.Outcome) {
	m.mu.Lock()
	m.shardRetries += uint64(out.HandshakeRetries)
	m.shardFailovers += uint64(out.Failovers)
	if out.LocalFallback {
		m.shardLocalFallbacks++
	}
	m.shardWorkerFailures += uint64(len(out.Failures))
	if out.Health != nil {
		m.shardHealth = out.Health
	}
	m.mu.Unlock()
}

func (m *metrics) countBulk(outcome string) {
	m.mu.Lock()
	m.bulkStreams[outcome]++
	m.mu.Unlock()
}

// recordBulk folds one finished bulk stream's pipeline statistics into
// the aggregates.
func (m *metrics) recordBulk(st bulk.Stats, outcome string) {
	m.mu.Lock()
	m.bulkStreams[outcome]++
	m.bulkRecords += st.Results
	m.bulkErrors += st.Errors
	m.bulkSolved += st.Solved
	m.bulkWarmStarts += st.WarmStarts
	m.bulkIterations += st.Iterations
	m.mu.Unlock()
}

// render writes the exposition text. Cache and queue gauges come from
// the server, which owns those components.
func (m *metrics) render(b *strings.Builder, queueDepth int, cs graph.CacheStats) {
	m.mu.Lock()
	defer m.mu.Unlock()

	fmt.Fprintf(b, "# HELP paradmm_requests_total Solve admissions by workload and outcome.\n")
	fmt.Fprintf(b, "# TYPE paradmm_requests_total counter\n")
	keys := make([]string, 0, len(m.requests))
	for k := range m.requests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		parts := strings.SplitN(k, "\x00", 2)
		fmt.Fprintf(b, "paradmm_requests_total{workload=%q,outcome=%q} %d\n", parts[0], parts[1], m.requests[k])
	}

	fmt.Fprintf(b, "# HELP paradmm_iterations_total ADMM iterations executed.\n")
	fmt.Fprintf(b, "# TYPE paradmm_iterations_total counter\n")
	fmt.Fprintf(b, "paradmm_iterations_total %d\n", m.iterations)

	fmt.Fprintf(b, "# HELP paradmm_phase_nanos_total Per-phase execution time.\n")
	fmt.Fprintf(b, "# TYPE paradmm_phase_nanos_total counter\n")
	for p := admm.Phase(0); p < admm.NumPhases; p++ {
		fmt.Fprintf(b, "paradmm_phase_nanos_total{phase=%q} %d\n", p.String(), m.phaseNanos[p])
	}

	fmt.Fprintf(b, "# HELP paradmm_solve_nanos_total Wall time inside backends.\n")
	fmt.Fprintf(b, "# TYPE paradmm_solve_nanos_total counter\n")
	fmt.Fprintf(b, "paradmm_solve_nanos_total %d\n", m.solveNanos)

	fmt.Fprintf(b, "# HELP paradmm_build_nanos_total Wall time constructing factor graphs (cache misses).\n")
	fmt.Fprintf(b, "# TYPE paradmm_build_nanos_total counter\n")
	fmt.Fprintf(b, "paradmm_build_nanos_total %d\n", m.buildNanos)

	fmt.Fprintf(b, "# HELP paradmm_graph_cache_hits_total Graph cache hits.\n")
	fmt.Fprintf(b, "# TYPE paradmm_graph_cache_hits_total counter\n")
	fmt.Fprintf(b, "paradmm_graph_cache_hits_total %d\n", cs.Hits)
	fmt.Fprintf(b, "# HELP paradmm_graph_cache_misses_total Graph cache misses.\n")
	fmt.Fprintf(b, "# TYPE paradmm_graph_cache_misses_total counter\n")
	fmt.Fprintf(b, "paradmm_graph_cache_misses_total %d\n", cs.Misses)
	fmt.Fprintf(b, "# HELP paradmm_graph_cache_size Graphs currently pooled.\n")
	fmt.Fprintf(b, "# TYPE paradmm_graph_cache_size gauge\n")
	fmt.Fprintf(b, "paradmm_graph_cache_size %d\n", cs.Size)
	fmt.Fprintf(b, "# HELP paradmm_graph_cache_bytes Priced bytes of the pooled graphs (workload.Problem.Bytes), within graph.CacheBudget.\n")
	fmt.Fprintf(b, "# TYPE paradmm_graph_cache_bytes gauge\n")
	fmt.Fprintf(b, "paradmm_graph_cache_bytes %d\n", cs.Bytes)
	fmt.Fprintf(b, "# HELP paradmm_graph_cache_evictions_total Graphs the cache dropped: pushed out or too big for the byte budget, beyond a key's -cache-per-key pool, or of a shape missed only once.\n")
	fmt.Fprintf(b, "# TYPE paradmm_graph_cache_evictions_total counter\n")
	fmt.Fprintf(b, "paradmm_graph_cache_evictions_total{reason=\"budget\"} %d\n", cs.BudgetEvictions)
	fmt.Fprintf(b, "paradmm_graph_cache_evictions_total{reason=\"per_key\"} %d\n", cs.PerKeyEvictions)
	fmt.Fprintf(b, "paradmm_graph_cache_evictions_total{reason=\"first_sight\"} %d\n", cs.FirstSightEvictions)

	fmt.Fprintf(b, "# HELP paradmm_shard_solves_total Solves run on the sharded executor.\n")
	fmt.Fprintf(b, "# TYPE paradmm_shard_solves_total counter\n")
	fmt.Fprintf(b, "paradmm_shard_solves_total %d\n", m.shardSolves)
	fmt.Fprintf(b, "# HELP paradmm_shard_sync_wait_nanos_total Time the longest-waiting shard of each solve spent blocked at the two per-iteration sync points.\n")
	fmt.Fprintf(b, "# TYPE paradmm_shard_sync_wait_nanos_total counter\n")
	fmt.Fprintf(b, "paradmm_shard_sync_wait_nanos_total %d\n", m.shardSyncNanos)
	fmt.Fprintf(b, "# HELP paradmm_shard_boundary_z_nanos_total Shard 0's time combining the boundary-variable z it owns.\n")
	fmt.Fprintf(b, "# TYPE paradmm_shard_boundary_z_nanos_total counter\n")
	fmt.Fprintf(b, "paradmm_shard_boundary_z_nanos_total %d\n", m.shardBoundaryNanos)
	fmt.Fprintf(b, "# HELP paradmm_shard_boundary_vars Boundary variables in the last sharded solve's partition.\n")
	fmt.Fprintf(b, "# TYPE paradmm_shard_boundary_vars gauge\n")
	fmt.Fprintf(b, "paradmm_shard_boundary_vars %d\n", m.shardLast.BoundaryVars)
	fmt.Fprintf(b, "# HELP paradmm_shard_boundary_edges Edges incident to boundary variables in the last sharded solve.\n")
	fmt.Fprintf(b, "# TYPE paradmm_shard_boundary_edges gauge\n")
	fmt.Fprintf(b, "paradmm_shard_boundary_edges %d\n", m.shardLast.BoundaryEdges)
	fmt.Fprintf(b, "# HELP paradmm_shard_shards Shard count of the last sharded solve.\n")
	fmt.Fprintf(b, "# TYPE paradmm_shard_shards gauge\n")
	fmt.Fprintf(b, "paradmm_shard_shards %d\n", m.shardLast.Shards)
	fmt.Fprintf(b, "# HELP paradmm_shard_bytes_per_iter Boundary-state payload bytes per iteration the last sharded solve's message transport moved (0 on the local transport; equals cut cost x 8 when the manifest is healthy).\n")
	fmt.Fprintf(b, "# TYPE paradmm_shard_bytes_per_iter gauge\n")
	fmt.Fprintf(b, "paradmm_shard_bytes_per_iter %g\n", m.shardLast.BytesPerIter)
	fmt.Fprintf(b, "# HELP paradmm_shard_cut_cost_words Degree-weighted cut cost of the last sharded solve's partition (predicted cross-shard words per iteration).\n")
	fmt.Fprintf(b, "# TYPE paradmm_shard_cut_cost_words gauge\n")
	fmt.Fprintf(b, "paradmm_shard_cut_cost_words %g\n", m.shardLast.CutCost)

	fmt.Fprintf(b, "# HELP paradmm_shard_retries_total Dial+handshake retries burned by sharded sockets solves.\n")
	fmt.Fprintf(b, "# TYPE paradmm_shard_retries_total counter\n")
	fmt.Fprintf(b, "paradmm_shard_retries_total %d\n", m.shardRetries)
	fmt.Fprintf(b, "# HELP paradmm_shard_failovers_total Worker-set shrinks: a lost worker's load re-partitioned onto survivors and the solve re-run cold.\n")
	fmt.Fprintf(b, "# TYPE paradmm_shard_failovers_total counter\n")
	fmt.Fprintf(b, "paradmm_shard_failovers_total %d\n", m.shardFailovers)
	fmt.Fprintf(b, "# HELP paradmm_shard_local_fallbacks_total Failover solves finished on the in-process fused executor after the remote pool was exhausted.\n")
	fmt.Fprintf(b, "# TYPE paradmm_shard_local_fallbacks_total counter\n")
	fmt.Fprintf(b, "paradmm_shard_local_fallbacks_total %d\n", m.shardLocalFallbacks)
	fmt.Fprintf(b, "# HELP paradmm_shard_worker_failures_total Solve attempts lost to a worker transport failure.\n")
	fmt.Fprintf(b, "# TYPE paradmm_shard_worker_failures_total counter\n")
	fmt.Fprintf(b, "paradmm_shard_worker_failures_total %d\n", m.shardWorkerFailures)
	var alive int
	for _, h := range m.shardHealth {
		if h.Alive {
			alive++
		}
	}
	fmt.Fprintf(b, "# HELP paradmm_shard_workers_probed Workers probed by the most recent failover health check.\n")
	fmt.Fprintf(b, "# TYPE paradmm_shard_workers_probed gauge\n")
	fmt.Fprintf(b, "paradmm_shard_workers_probed %d\n", len(m.shardHealth))
	fmt.Fprintf(b, "# HELP paradmm_shard_workers_alive Workers alive in the most recent failover health check.\n")
	fmt.Fprintf(b, "# TYPE paradmm_shard_workers_alive gauge\n")
	fmt.Fprintf(b, "paradmm_shard_workers_alive %d\n", alive)

	fmt.Fprintf(b, "# HELP paradmm_bulk_streams_total Bulk streams by outcome.\n")
	fmt.Fprintf(b, "# TYPE paradmm_bulk_streams_total counter\n")
	bulkKeys := make([]string, 0, len(m.bulkStreams))
	for k := range m.bulkStreams {
		bulkKeys = append(bulkKeys, k)
	}
	sort.Strings(bulkKeys)
	for _, k := range bulkKeys {
		fmt.Fprintf(b, "paradmm_bulk_streams_total{outcome=%q} %d\n", k, m.bulkStreams[k])
	}
	fmt.Fprintf(b, "# HELP paradmm_bulk_records_total Bulk result records written.\n")
	fmt.Fprintf(b, "# TYPE paradmm_bulk_records_total counter\n")
	fmt.Fprintf(b, "paradmm_bulk_records_total %d\n", m.bulkRecords)
	fmt.Fprintf(b, "# HELP paradmm_bulk_errors_total Bulk records that failed (decode, admission, or solve).\n")
	fmt.Fprintf(b, "# TYPE paradmm_bulk_errors_total counter\n")
	fmt.Fprintf(b, "paradmm_bulk_errors_total %d\n", m.bulkErrors)
	fmt.Fprintf(b, "# HELP paradmm_bulk_solved_total Bulk solves completed.\n")
	fmt.Fprintf(b, "# TYPE paradmm_bulk_solved_total counter\n")
	fmt.Fprintf(b, "paradmm_bulk_solved_total %d\n", m.bulkSolved)
	fmt.Fprintf(b, "# HELP paradmm_bulk_warm_starts_total Bulk solves warm-started from a previous same-shape solution.\n")
	fmt.Fprintf(b, "# TYPE paradmm_bulk_warm_starts_total counter\n")
	fmt.Fprintf(b, "paradmm_bulk_warm_starts_total %d\n", m.bulkWarmStarts)
	fmt.Fprintf(b, "# HELP paradmm_bulk_iterations_total ADMM iterations executed by bulk solves.\n")
	fmt.Fprintf(b, "# TYPE paradmm_bulk_iterations_total counter\n")
	fmt.Fprintf(b, "paradmm_bulk_iterations_total %d\n", m.bulkIterations)
	fmt.Fprintf(b, "# HELP paradmm_bulk_inflight Bulk streams currently open.\n")
	fmt.Fprintf(b, "# TYPE paradmm_bulk_inflight gauge\n")
	fmt.Fprintf(b, "paradmm_bulk_inflight %d\n", m.bulkInflight.Load())

	fmt.Fprintf(b, "# HELP paradmm_jobs_inflight Jobs currently executing.\n")
	fmt.Fprintf(b, "# TYPE paradmm_jobs_inflight gauge\n")
	fmt.Fprintf(b, "paradmm_jobs_inflight %d\n", m.inflight.Load())

	fmt.Fprintf(b, "# HELP paradmm_queue_depth Accepted jobs waiting for a worker.\n")
	fmt.Fprintf(b, "# TYPE paradmm_queue_depth gauge\n")
	fmt.Fprintf(b, "paradmm_queue_depth %d\n", queueDepth)
}

// renderStoreMetrics writes the solution store's counters. Rendered
// only when the server was configured with a store, so a scrape of a
// storeless deployment carries no dead series.
func renderStoreMetrics(b *strings.Builder, st store.Stats) {
	fmt.Fprintf(b, "# HELP paradmm_store_hits_total Warm-start chains seeded from the solution store.\n")
	fmt.Fprintf(b, "# TYPE paradmm_store_hits_total counter\n")
	fmt.Fprintf(b, "paradmm_store_hits_total %d\n", st.Hits)
	fmt.Fprintf(b, "# HELP paradmm_store_misses_total Store lookups that found nothing usable (absent, corrupt, or rejected).\n")
	fmt.Fprintf(b, "# TYPE paradmm_store_misses_total counter\n")
	fmt.Fprintf(b, "paradmm_store_misses_total %d\n", st.Misses)
	fmt.Fprintf(b, "# HELP paradmm_store_puts_total Snapshots persisted to the solution store.\n")
	fmt.Fprintf(b, "# TYPE paradmm_store_puts_total counter\n")
	fmt.Fprintf(b, "paradmm_store_puts_total %d\n", st.Puts)
	fmt.Fprintf(b, "# HELP paradmm_store_evictions_total Keys evicted by size-capped compaction.\n")
	fmt.Fprintf(b, "# TYPE paradmm_store_evictions_total counter\n")
	fmt.Fprintf(b, "paradmm_store_evictions_total %d\n", st.Evictions)
	fmt.Fprintf(b, "# HELP paradmm_store_keys Distinct shape keys currently stored.\n")
	fmt.Fprintf(b, "# TYPE paradmm_store_keys gauge\n")
	fmt.Fprintf(b, "paradmm_store_keys %d\n", st.Keys)
	fmt.Fprintf(b, "# HELP paradmm_store_bytes Solution log size on disk.\n")
	fmt.Fprintf(b, "# TYPE paradmm_store_bytes gauge\n")
	fmt.Fprintf(b, "paradmm_store_bytes %d\n", st.Bytes)
}
