package serve

import (
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admm"
	"repro/internal/bulk"
	"repro/internal/fleet"
	"repro/internal/graph"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/workload"
)

// metrics is the /metrics registry: every series is declared once, in
// newMetrics's family table, and appendText writes them all as
// Prometheus text. Recording is an atomic add into a fixed cell; only
// the last sharded solve's gauges, which move together, take a lock.
type metrics struct {
	requests    []atomic.Int64 // per workload, per outcome
	phaseNanos  [admm.NumPhases]atomic.Int64
	bulkStreams [len(bulkOutcomes)]atomic.Int64
	fleetRouted [len(fleetRoutes)]atomic.Int64
	// Latency: admission to a pool worker's pickup, graph builds (cache
	// misses), backend wall time per solve, each route's handler.
	queueWait, build, solve hist
	http                    [len(httpRoutes)]hist

	// Sharded solves: count, longest shard sync wait, shard 0's combine
	// time; failover retries, shrinks, local fallbacks, failed attempts;
	// the worker-cache tiers Ready reported.
	shardSolves, shardSyncNanos, shardBoundaryNanos                        atomic.Int64
	shardRetries, shardFailovers, shardLocalFallbacks, shardWorkerFailures atomic.Int64
	cacheHits, cacheGraphHits, cacheMisses                                 atomic.Int64
	bulkRecords, bulkErrors, bulkSolved, bulkWarmStarts, bulkIterations    atomic.Int64
	iterations, inflight, bulkInflight                                     atomic.Int64

	lastMu    sync.Mutex
	last      snapshot // only its shard, probed and alive fields
	workloads []string
	fill      func(*snapshot)
	families  []family
}

// snapshot is what one scrape reads: the last sharded solve and health
// check, copied whole under lastMu (a scrape never mixes two solves),
// then the stats of the components the server owns.
type snapshot struct {
	cache         graph.CacheStats
	queue         int
	store         store.Stats
	fleet         fleet.Stats
	shard         shard.Stats
	probed, alive int
}

// Closed label sets, sorted; phases, cache-eviction reasons and fleet
// states keep their lifecycle order.
var (
	requestOutcomes = [...]string{"abandoned", "accepted", "bad_request", "failed", "ok", "queue_full", "shed", "too_large"}
	bulkOutcomes    = [...]string{"aborted", "ok", "rejected"}
	fleetRoutes     = [...]string{string(fleet.RouteLocal), string(fleet.RouteRemote), string(fleet.RouteShed)}
	httpRoutes      = [...]string{"bulk", "fleet", "healthz", "jobs", "metrics", "solve"}
	fleetStates     = []string{string(fleet.StateJoining), string(fleet.StateHealthy), string(fleet.StateSuspect), string(fleet.StateDead)}
)

const counter, gauge, histogram = "counter", "gauge", "histogram"

// family is one metric: its # HELP and # TYPE lines, then the samples
// write appends.
type family struct {
	name, help, kind string
	write            writer
}

type writer func(b []byte, name string, s *snapshot) []byte

// newMetrics declares every family; the store and fleet sections only
// when configured. fill reads the server's components into a snapshot.
func newMetrics(withStore, withFleet bool, fill func(*snapshot)) *metrics {
	workloads := append(workload.Names(), "unknown")
	slices.Sort(workloads)
	var phases []string
	for p := admm.Phase(0); p < admm.NumPhases; p++ {
		phases = append(phases, p.String())
	}
	var requests []string
	for _, w := range pairs("workload", workloads...) {
		for _, o := range pairs("outcome", requestOutcomes[:]...) {
			requests = append(requests, w+","+o)
		}
	}
	m := &metrics{requests: make([]atomic.Int64, len(requests)), workloads: workloads, fill: fill}
	m.families = []family{
		{"paradmm_requests_total", "Solve admissions by workload and outcome.", counter, labelled(requests, false, cells(m.requests))},
		{"paradmm_iterations_total", "ADMM iterations executed.", counter, value(&m.iterations)},
		{"paradmm_phase_nanos_total", "Per-phase execution time.", counter, labelled(pairs("phase", phases...), true, cells(m.phaseNanos[:]))},
		{"paradmm_solve_nanos_total", "Wall time inside backends.", counter, value(&m.solve.sum)},
		{"paradmm_build_nanos_total", "Wall time constructing factor graphs (cache misses).", counter, value(&m.build.sum)},
		{"paradmm_graph_cache_hits_total", "Graph cache hits.", counter, read(func(s *snapshot) int64 { return int64(s.cache.Hits) })},
		{"paradmm_graph_cache_misses_total", "Graph cache misses.", counter, read(func(s *snapshot) int64 { return int64(s.cache.Misses) })},
		{"paradmm_graph_cache_size", "Graphs currently pooled.", gauge, read(func(s *snapshot) int64 { return int64(s.cache.Size) })},
		{"paradmm_graph_cache_bytes", "Priced bytes of the pooled graphs (workload.Problem.Bytes), within graph.CacheBudget.", gauge, read(func(s *snapshot) int64 { return s.cache.Bytes })},
		{"paradmm_graph_cache_evictions_total", "Graphs the cache dropped: pushed out or too big for the byte budget, beyond a key's -cache-per-key pool, or of a shape missed only once.", counter, labelled(pairs("reason", "budget", "per_key", "first_sight"), true, func(s *snapshot, i int) int64 {
			return int64([...]uint64{s.cache.BudgetEvictions, s.cache.PerKeyEvictions, s.cache.FirstSightEvictions}[i])
		})},
		{"paradmm_shard_solves_total", "Solves run on the sharded executor.", counter, value(&m.shardSolves)},
		{"paradmm_shard_sync_wait_nanos_total", "Time the longest-waiting shard of each solve spent blocked at the two per-iteration sync points.", counter, value(&m.shardSyncNanos)},
		{"paradmm_shard_boundary_z_nanos_total", "Shard 0's time combining the boundary-variable z it owns.", counter, value(&m.shardBoundaryNanos)},
		{"paradmm_shard_boundary_vars", "Boundary variables in the last sharded solve's partition.", gauge, read(func(s *snapshot) int64 { return int64(s.shard.BoundaryVars) })},
		{"paradmm_shard_boundary_edges", "Edges incident to boundary variables in the last sharded solve.", gauge, read(func(s *snapshot) int64 { return int64(s.shard.BoundaryEdges) })},
		{"paradmm_shard_shards", "Shard count of the last sharded solve.", gauge, read(func(s *snapshot) int64 { return int64(s.shard.Shards) })},
		{"paradmm_shard_bytes_per_iter", "Boundary-state payload bytes per iteration the last sharded solve's message transport moved (0 on the local transport; equals cut cost x 8 when the manifest is healthy).", gauge, readFloat(func(s *snapshot) float64 { return s.shard.BytesPerIter })},
		{"paradmm_shard_cut_cost_words", "Degree-weighted cut cost of the last sharded solve's partition (predicted cross-shard words per iteration).", gauge, readFloat(func(s *snapshot) float64 { return s.shard.CutCost })},
		{"paradmm_shard_retries_total", "Dial+handshake retries burned by sharded sockets solves.", counter, value(&m.shardRetries)},
		{"paradmm_shard_failovers_total", "Worker-set shrinks: a lost worker's load re-partitioned onto survivors and the solve re-run cold.", counter, value(&m.shardFailovers)},
		{"paradmm_shard_local_fallbacks_total", "Failover solves finished on the in-process fused executor after the remote pool was exhausted.", counter, value(&m.shardLocalFallbacks)},
		{"paradmm_shard_worker_failures_total", "Solve attempts lost to a worker transport failure.", counter, value(&m.shardWorkerFailures)},
		{"paradmm_shard_workers_probed", "Workers probed by the most recent failover health check.", gauge, read(func(s *snapshot) int64 { return int64(s.probed) })},
		{"paradmm_shard_workers_alive", "Workers alive in the most recent failover health check.", gauge, read(func(s *snapshot) int64 { return int64(s.alive) })},
		{"paradmm_bulk_streams_total", "Bulk streams by outcome.", counter, labelled(pairs("outcome", bulkOutcomes[:]...), false, cells(m.bulkStreams[:]))},
		{"paradmm_bulk_records_total", "Bulk result records written.", counter, value(&m.bulkRecords)},
		{"paradmm_bulk_errors_total", "Bulk records that failed (decode, admission, or solve).", counter, value(&m.bulkErrors)},
		{"paradmm_bulk_solved_total", "Bulk solves completed.", counter, value(&m.bulkSolved)},
		{"paradmm_bulk_warm_starts_total", "Bulk solves warm-started from a previous same-shape solution.", counter, value(&m.bulkWarmStarts)},
		{"paradmm_bulk_iterations_total", "ADMM iterations executed by bulk solves.", counter, value(&m.bulkIterations)},
		{"paradmm_bulk_inflight", "Bulk streams currently open.", gauge, value(&m.bulkInflight)},
		{"paradmm_jobs_inflight", "Jobs currently executing.", gauge, value(&m.inflight)},
		{"paradmm_queue_depth", "Accepted jobs waiting for a worker.", gauge, read(func(s *snapshot) int64 { return int64(s.queue) })},
	}
	if withStore {
		m.families = append(m.families, []family{
			{"paradmm_store_hits_total", "Warm-start chains seeded from the solution store.", counter, read(func(s *snapshot) int64 { return int64(s.store.Hits) })},
			{"paradmm_store_misses_total", "Store lookups that found nothing usable (absent, corrupt, or rejected).", counter, read(func(s *snapshot) int64 { return int64(s.store.Misses) })},
			{"paradmm_store_puts_total", "Snapshots persisted to the solution store.", counter, read(func(s *snapshot) int64 { return int64(s.store.Puts) })},
			{"paradmm_store_evictions_total", "Keys evicted by size-capped compaction.", counter, read(func(s *snapshot) int64 { return int64(s.store.Evictions) })},
			{"paradmm_store_keys", "Distinct shape keys currently stored.", gauge, read(func(s *snapshot) int64 { return int64(s.store.Keys) })},
			{"paradmm_store_bytes", "Solution log size on disk.", gauge, read(func(s *snapshot) int64 { return s.store.Bytes })},
		}...)
	}
	if withFleet {
		m.families = append(m.families, []family{
			{"paradmm_fleet_workers", "Registered shardworkers by lifecycle state.", gauge, labelled(pairs("state", fleetStates...), true, func(s *snapshot, i int) int64 { return int64(s.fleet.States[fleet.State(fleetStates[i])]) })},
			{"paradmm_fleet_probe_rounds_total", "Registry health-probe rounds completed.", counter, read(func(s *snapshot) int64 { return int64(s.fleet.Rounds) })},
			{"paradmm_fleet_in_flight", "Session slots currently leased to running solves.", gauge, read(func(s *snapshot) int64 { return int64(s.fleet.InFlight) })},
			{"paradmm_fleet_solves_total", "Leases released back to the registry (worker-solves).", counter, read(func(s *snapshot) int64 { return int64(s.fleet.Solves) })},
			{"paradmm_fleet_routed_total", "Planner verdicts by route.", counter, labelled(pairs("route", fleetRoutes[:]...), false, cells(m.fleetRouted[:]))},
			{"paradmm_fleet_cache_hits_total", "Remote worker sessions served from the worker's cache with their state: no rebuild, no state push (state tier).", counter, value(&m.cacheHits)},
			{"paradmm_fleet_cache_graph_hits_total", "Remote worker sessions that reused the cached graph but took the state push (graph tier).", counter, value(&m.cacheGraphHits)},
			{"paradmm_fleet_cache_misses_total", "Remote worker sessions that built the problem from the config.", counter, value(&m.cacheMisses)},
		}...)
	}
	m.families = append(m.families, []family{
		{"paradmm_queue_wait_seconds", "Time accepted jobs waited for a pool worker.", histogram, m.queueWait.write},
		{"paradmm_build_seconds", "Factor-graph construction time (cache misses).", histogram, m.build.write},
		{"paradmm_solve_seconds", "Wall time inside backends per solve.", histogram, m.solve.write},
		{"paradmm_http_request_seconds", "HTTP handler latency by route.", histogram, m.writeHTTP},
	}...)
	return m
}

func (m *metrics) countRequest(workload, outcome string) {
	m.requests[index(m.workloads, workload)*len(requestOutcomes)+index(requestOutcomes[:], outcome)].Add(1)
}

// recordSolve folds one finished solve in; buildNanos is 0 on a cache
// hit, which built nothing.
func (m *metrics) recordSolve(res admm.Result, buildNanos int64) {
	m.iterations.Add(int64(res.Iterations))
	for p, v := range res.PhaseNanos {
		m.phaseNanos[p].Add(v)
	}
	m.solve.observe(res.Elapsed.Nanoseconds())
	if buildNanos > 0 {
		m.build.observe(buildNanos)
	}
}

// recordShard folds one sharded solve's partition and synchronization
// statistics in.
func (m *metrics) recordShard(s shard.Stats) {
	m.shardSolves.Add(1)
	// The shard that waited longest: shard 0 alone may be the one the
	// others wait for, and then reports next to nothing.
	if len(s.SyncWaitByShard) > 0 {
		m.shardSyncNanos.Add(slices.Max(s.SyncWaitByShard))
	}
	m.shardBoundaryNanos.Add(s.BoundaryZNanos)
	m.cacheHits.Add(int64(s.CacheHits))
	m.cacheGraphHits.Add(int64(s.CacheGraphHits))
	m.cacheMisses.Add(int64(s.CacheMisses))
	m.lastMu.Lock()
	m.last.shard = s
	m.lastMu.Unlock()
}

// recordFailover folds one solve's recovery trail in (called for failed
// solves too — the trail is the point; an in-process solve's is empty).
func (m *metrics) recordFailover(out shard.Outcome) {
	m.shardRetries.Add(int64(out.HandshakeRetries))
	m.shardFailovers.Add(int64(out.Failovers))
	if out.LocalFallback {
		m.shardLocalFallbacks.Add(1)
	}
	m.shardWorkerFailures.Add(int64(len(out.Failures)))
	if out.Health != nil {
		alive := 0
		for _, h := range out.Health {
			if h.Alive {
				alive++
			}
		}
		m.lastMu.Lock()
		m.last.probed, m.last.alive = len(out.Health), alive
		m.lastMu.Unlock()
	}
}

// recordBulk folds one bulk stream's pipeline statistics in (zero for a
// rejected stream).
func (m *metrics) recordBulk(st bulk.Stats, outcome string) {
	m.bulkStreams[index(bulkOutcomes[:], outcome)].Add(1)
	m.bulkRecords.Add(int64(st.Results))
	m.bulkErrors.Add(int64(st.Errors))
	m.bulkSolved.Add(int64(st.Solved))
	m.bulkWarmStarts.Add(int64(st.WarmStarts))
	m.bulkIterations.Add(int64(st.Iterations))
}

// timed records every call of h in route's latency histogram.
func (m *metrics) timed(route string, h http.HandlerFunc) http.HandlerFunc {
	hist := &m.http[index(httpRoutes[:], route)]
	return func(w http.ResponseWriter, r *http.Request) {
		defer func(t time.Time) { hist.observe(time.Since(t).Nanoseconds()) }(time.Now())
		h(w, r)
	}
}

// index finds v in a closed label set; a value outside it is a bug.
func index(values []string, v string) int {
	if i := slices.Index(values, v); i >= 0 {
		return i
	}
	panic("serve: undeclared metric label value " + strconv.Quote(v))
}

// appendText appends every family's HELP, TYPE and samples.
func (m *metrics) appendText(b []byte) []byte {
	m.lastMu.Lock()
	s := m.last
	m.lastMu.Unlock()
	m.fill(&s)
	for _, f := range m.families {
		b = append(append(append(append(b, "# HELP "...), f.name...), ' '), f.help...)
		b = append(append(append(append(b, "\n# TYPE "...), f.name...), ' '), f.kind...)
		b = f.write(append(b, '\n'), f.name, &s)
	}
	return b
}

// series appends a sample's name and labels up to its value.
func series(b []byte, name, labels string) []byte {
	b = append(b, name...)
	if labels != "" {
		b = append(append(append(b, '{'), labels...), '}')
	}
	return append(b, ' ')
}

func sample(b []byte, name, labels string, v int64) []byte {
	return append(strconv.AppendInt(series(b, name, labels), v, 10), '\n')
}

func sampleFloat(b []byte, name, labels string, v float64) []byte {
	return append(strconv.AppendFloat(series(b, name, labels), v, 'g', -1, 64), '\n')
}

// value writes a recorded scalar, read and readFloat a scrape's reading.
func value(v *atomic.Int64) writer { return read(func(*snapshot) int64 { return v.Load() }) }

func read(f func(*snapshot) int64) writer {
	return func(b []byte, name string, s *snapshot) []byte { return sample(b, name, "", f(s)) }
}

func readFloat(f func(*snapshot) float64) writer {
	return func(b []byte, name string, s *snapshot) []byte { return sampleFloat(b, name, "", f(s)) }
}

// labelled writes one sample per label set in series, valued by f: only
// the non-zero ones unless all is set. cells reads recorded counters.
func labelled(series []string, all bool, f func(s *snapshot, i int) int64) writer {
	return func(b []byte, name string, s *snapshot) []byte {
		for i, labels := range series {
			if v := f(s, i); v != 0 || all {
				b = sample(b, name, labels, v)
			}
		}
		return b
	}
}

func cells(c []atomic.Int64) func(*snapshot, int) int64 {
	return func(_ *snapshot, i int) int64 { return c[i].Load() }
}

// pairs renders one label's values as label sets.
func pairs(label string, values ...string) []string {
	out := make([]string, len(values))
	for i, v := range values {
		out[i] = label + "=" + strconv.Quote(v)
	}
	return out
}

// bucketNanos are every histogram's bucket bounds: 100 µs to 100 s in
// 1–2.5–5 steps, then +Inf. One layout for all, never a knob.
var bucketNanos = [...]int64{
	1e5, 2.5e5, 5e5, 1e6, 2.5e6, 5e6, 1e7, 2.5e7, 5e7,
	1e8, 2.5e8, 5e8, 1e9, 2.5e9, 5e9, 1e10, 2.5e10, 5e10, 1e11,
}

// bucketLE are the bounds as le label pairs, in seconds.
var bucketLE = func() (le [len(bucketNanos) + 1]string) {
	for i, ns := range bucketNanos {
		le[i] = `le="` + strconv.FormatFloat(float64(ns)/1e9, 'g', -1, 64) + `"`
	}
	le[len(bucketNanos)] = `le="+Inf"`
	return le
}()

// hist counts observations per bucket (not cumulatively) and sums them
// in nanoseconds: an observation is a bucket search and two atomic adds.
type hist struct {
	counts [len(bucketNanos) + 1]atomic.Int64
	sum    atomic.Int64
}

func (h *hist) observe(nanos int64) {
	i, _ := slices.BinarySearch(bucketNanos[:], nanos)
	h.counts[i].Add(1)
	h.sum.Add(nanos)
}

// write appends the cumulative buckets, _sum in seconds and _count.
func (h *hist) write(b []byte, name string, _ *snapshot) []byte { return h.appendTo(b, name, "") }

func (h *hist) appendTo(b []byte, name, labels string) []byte {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
		b = sample(b, name+"_bucket", strings.TrimPrefix(labels+","+bucketLE[i], ","), n)
	}
	b = sampleFloat(b, name+"_sum", labels, float64(h.sum.Load())/1e9)
	return sample(b, name+"_count", labels, n)
}

// writeHTTP writes the route latency histograms observed so far.
func (m *metrics) writeHTTP(b []byte, name string, _ *snapshot) []byte {
	for i, route := range pairs("route", httpRoutes[:]...) {
		// Observed: a positive duration moved the sum, a zero one bucket 0.
		if m.http[i].sum.Load() != 0 || m.http[i].counts[0].Load() != 0 {
			b = m.http[i].appendTo(b, name, route)
		}
	}
	return b
}
