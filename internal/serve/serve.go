// Package serve implements the batched solve service: an HTTP JSON API
// that accepts factor-graph problem specs for the repository's workloads
// (lasso, svm, mpc, packing) and dispatches them onto a bounded worker
// pool running the internal/admm executors.
//
// Endpoints:
//
//	POST /v1/solve     submit a spec; waits for the result by default,
//	                   or returns 202 + a job id with {"wait": false}
//	POST /v1/bulk      stream JSONL specs in, JSONL results out (chunked,
//	                   input order, per-record error isolation); same-
//	                   shape specs share a cached graph and warm-start
//	                   from the previous solution (internal/bulk)
//	GET  /v1/jobs/{id} poll an async job
//	GET  /healthz      liveness + accepted workloads
//	GET  /metrics      Prometheus text: requests, iterations, per-phase
//	                   time, cache and queue gauges, and histograms of
//	                   queue wait, build, solve and per-route latency
//
// Two knobs bound admission (Config.Workers, Config.QueueDepth); a
// shape-keyed graph cache (internal/graph.Cache) lets repeated requests
// skip factor-graph construction, which for the heavier workloads
// (lasso's per-block Cholesky pre-factorizations, packing's O(N^2)
// collision nodes) dominates short solves. It pools a shape from its
// second miss on, within a byte budget (graph.CacheBudget), so one-off
// shapes cost a build and no memory afterwards. Executor selection is
// per-request: kind "serial", "sharded" (with its shard count and
// transport knobs), or "auto" to resolve serial / sharded from the
// graph's shape; every executor runs the fused two-pass schedule
// ({"fused": false}, kind serial only, selects the five-phase
// reference).
// Sharded solves take a per-request boundary-exchange transport
// ({"transport": "sockets"} with optional {"addrs": [...]} naming
// paradmm-shardworker processes — the server ships the request's
// workload+spec to them as the rebuildable problem reference; see
// docs/transport.md) and additionally report partition/boundary/
// traffic statistics through /metrics (paradmm_shard_*).
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"time"

	"errors"

	"repro/internal/admm"
	"repro/internal/fleet"
	"repro/internal/graph"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/workload"
)

// Config tunes the service.
type Config struct {
	// Workers caps concurrent solves (default GOMAXPROCS).
	Workers int
	// QueueDepth caps accepted-but-not-started jobs (default 64);
	// admissions beyond it get 429.
	QueueDepth int
	// CachePerKey bounds pooled graphs per shape key (default 2).
	CachePerKey int
	// MaxIterLimit rejects specs asking for more iterations (default
	// 200000), protecting the pool from unbounded requests.
	MaxIterLimit int
	// JobHistory bounds the finished-job registry (default 1024).
	JobHistory int
	// BulkStreams caps concurrent POST /v1/bulk streams (default 2);
	// streams beyond it get 429. BulkWorkers sets each stream's
	// solve-stage worker count (default Workers).
	BulkStreams int
	BulkWorkers int
	// MaxBodyBytes caps the POST /v1/solve request body (default 1 MiB);
	// larger bodies get 413. Bulk streams are exempt — they are bounded
	// per line by the pipeline's MaxLineBytes instead.
	MaxBodyBytes int64
	// Store, when non-nil, is the persistent warm-start solution store
	// shared by every bulk stream (and across restarts, by whoever opens
	// the same directory next). See internal/store.
	Store *store.Store
	// Fleet, when non-nil, is the persistent shardworker registry:
	// eligible requests (executor kind unset/auto, or sharded sockets
	// with no pinned addrs) pass through its admission planner, which
	// routes them local, onto leased fleet workers (whose problem caches
	// let a repeated solve skip the rebuild), or sheds them with 429 when every healthy worker's
	// session slot is taken. The caller owns the registry's probe loop
	// (fleet.Registry.Run) and its shutdown.
	Fleet *fleet.Registry
	// FleetPlanner tunes fleet admission; zero values take the auto
	// policy's thresholds (see fleet.PlannerConfig).
	FleetPlanner fleet.PlannerConfig
	// DialTimeout/HandshakeTimeout are the server-wide defaults for
	// sharded sockets solves whose specs leave dial_timeout_ms /
	// handshake_timeout_ms unset (zero keeps the shard package
	// defaults). Set from paradmm-serve's -dial-timeout and
	// -handshake-timeout flags.
	DialTimeout      time.Duration
	HandshakeTimeout time.Duration
}

func (c *Config) defaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxIterLimit <= 0 {
		c.MaxIterLimit = 200000
	}
	if c.JobHistory <= 0 {
		c.JobHistory = 1024
	}
	if c.BulkStreams <= 0 {
		c.BulkStreams = 2
	}
	if c.BulkWorkers <= 0 {
		c.BulkWorkers = c.Workers
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
}

// SolveRequest is the POST /v1/solve body.
type SolveRequest struct {
	// Workload names the problem domain: one of Workloads().
	Workload string `json:"workload"`
	// Spec is the workload-specific problem description (lasso.Spec,
	// svm.Spec, mpc.Spec, packing.Spec).
	Spec json.RawMessage `json:"spec"`
	// Executor selects the backend; zero value is serial.
	Executor admm.ExecutorSpec `json:"executor"`
	// MaxIter is the iteration budget (default 1000).
	MaxIter int `json:"max_iter,omitempty"`
	// AbsTol/RelTol enable early stopping on the ADMM residuals.
	AbsTol float64 `json:"abs_tol,omitempty"`
	RelTol float64 `json:"rel_tol,omitempty"`
	// Wait, when false, returns 202 immediately with a job id to poll.
	// Omitted or true blocks until the solve finishes.
	Wait *bool `json:"wait,omitempty"`
}

// SolveResult is the solved-job payload.
type SolveResult struct {
	Iterations int  `json:"iterations"`
	Converged  bool `json:"converged"`
	// Primal/Dual are the final residuals, present only when residual
	// checking ran (tolerances were set).
	Primal     *float64           `json:"primal,omitempty"`
	Dual       *float64           `json:"dual,omitempty"`
	ElapsedNS  int64              `json:"elapsed_ns"`
	BuildNS    int64              `json:"build_ns"`
	PhaseNanos map[string]int64   `json:"phase_nanos"`
	Metrics    map[string]float64 `json:"metrics"`
	// Failover reports the recovery trail of a solve that ran on worker
	// processes — attempts, dial_retries, failovers, local_fallback,
	// backend, workers, failures (absent for an in-process solve).
	Failover *shard.Recovery `json:"failover,omitempty"`
}

// JobView is the JSON shape of a job in responses.
type JobView struct {
	ID       string            `json:"id"`
	Workload string            `json:"workload"`
	Status   string            `json:"status"`
	Executor admm.ExecutorSpec `json:"executor"`
	CacheHit bool              `json:"cache_hit"`
	// Shed marks a job rejected by the fleet admission planner (the
	// request saw HTTP 429; async pollers see this flag).
	Shed   bool         `json:"shed,omitempty"`
	Error  string       `json:"error,omitempty"`
	Result *SolveResult `json:"result,omitempty"`
}

// Job states.
const (
	StatusQueued  = "queued"
	StatusRunning = "running"
	StatusDone    = "done"
	StatusFailed  = "failed"
)

// Job is one admitted solve.
type Job struct {
	id       string
	workload string
	key      string
	rawSpec  json.RawMessage
	build    func() (problem, error)
	executor admm.ExecutorSpec
	maxIter  int
	absTol   float64
	relTol   float64
	admitted time.Time // stamped before Submit: a worker may start the job first

	mu       sync.Mutex
	status   string
	cacheHit bool
	shed     bool
	err      string
	result   *SolveResult
	done     chan struct{}
}

func (j *Job) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobView{
		ID:       j.id,
		Workload: j.workload,
		Status:   j.status,
		Executor: j.executor,
		CacheHit: j.cacheHit,
		Shed:     j.shed,
		Error:    j.err,
		Result:   j.result,
	}
}

func (j *Job) finished() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status == StatusDone || j.status == StatusFailed
}

// Server is the batched solve service. Create with New, mount Handler,
// Close on shutdown.
type Server struct {
	cfg     Config
	pool    *pool
	cache   *graph.Cache[problem]
	met     *metrics
	bulkSem chan struct{}

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string
	nextID uint64
}

// New builds a server and starts its worker pool.
func New(cfg Config) *Server {
	cfg.defaults()
	s := &Server{
		cfg:     cfg,
		cache:   graph.NewCache[problem](cfg.CachePerKey),
		jobs:    map[string]*Job{},
		bulkSem: make(chan struct{}, cfg.BulkStreams),
	}
	s.met = newMetrics(cfg.Store != nil, cfg.Fleet != nil, func(sn *snapshot) {
		sn.cache, sn.queue = s.cache.Stats(), s.pool.Depth()
		if cfg.Store != nil {
			sn.store = cfg.Store.Stats()
		}
		if cfg.Fleet != nil {
			sn.fleet = cfg.Fleet.Stats()
		}
	})
	s.pool = newPool(cfg.Workers, cfg.QueueDepth, s.runJob)
	return s
}

// Close drains the pool.
func (s *Server) Close() { s.pool.Close() }

// CacheStats exposes graph-cache counters (used by tests and /metrics).
func (s *Server) CacheStats() graph.CacheStats { return s.cache.Stats() }

// Handler returns the routed HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", s.met.timed("solve", s.handleSolve))
	mux.HandleFunc("POST /v1/bulk", s.met.timed("bulk", s.handleBulk))
	mux.HandleFunc("GET /v1/jobs/{id}", s.met.timed("jobs", s.handleJob))
	mux.HandleFunc("GET /v1/fleet", s.met.timed("fleet", s.handleFleet))
	mux.HandleFunc("GET /healthz", s.met.timed("healthz", s.handleHealth))
	mux.HandleFunc("GET /metrics", s.met.timed("metrics", s.handleMetrics))
	return mux
}

// jsonScratch pools response-encoding state: the buffer and its bound
// encoder live together, so steady-state responses reuse both instead
// of rebuilding an encoder (and growing a fresh buffer) per request.
var jsonScratch = sync.Pool{New: func() any {
	s := &respScratch{}
	s.enc = json.NewEncoder(&s.buf)
	s.enc.SetIndent("", "  ")
	return s
}}

type respScratch struct {
	buf bytes.Buffer
	enc *json.Encoder
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	s := jsonScratch.Get().(*respScratch)
	defer jsonScratch.Put(s)
	s.buf.Reset()
	if err := s.enc.Encode(v); err != nil {
		// Response payloads are fixed structs with sanitized floats;
		// fall back to a minimal body rather than a broken one.
		s.buf.Reset()
		fmt.Fprintf(&s.buf, "{\n  \"error\": \"encode failure\"\n}\n")
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(s.buf.Bytes())
}

type errorBody struct {
	Error string `json:"error"`
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req SolveRequest
	// Cap the body before touching it: an unbounded decode would let one
	// client buffer arbitrary bytes into the process.
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.reply(w, "unknown", "too_large", http.StatusRequestEntityTooLarge, errorBody{
				Error: fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit),
			})
			return
		}
		s.reply(w, "unknown", "bad_request", http.StatusBadRequest, errorBody{Error: "bad request body: " + err.Error()})
		return
	}
	adm, err := workload.Parse(req.Workload, req.Spec)
	if err != nil {
		name := adm.Workload
		if name == "" {
			name = "unknown"
		}
		s.reply(w, name, "bad_request", http.StatusBadRequest, errorBody{Error: "bad spec: " + err.Error()})
		return
	}
	wl := adm.Workload
	if err := req.Executor.Validate(); err != nil {
		s.reply(w, wl, "bad_request", http.StatusBadRequest, errorBody{Error: "bad executor: " + err.Error()})
		return
	}
	if req.MaxIter == 0 {
		req.MaxIter = 1000
	}
	if err := workload.CheckControls(req.MaxIter, s.cfg.MaxIterLimit, req.AbsTol, req.RelTol); err != nil {
		s.reply(w, wl, "bad_request", http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}

	job := &Job{
		workload: wl,
		key:      adm.Key,
		rawSpec:  req.Spec,
		build:    adm.Build,
		executor: req.Executor,
		maxIter:  req.MaxIter,
		absTol:   req.AbsTol,
		relTol:   req.RelTol,
		status:   StatusQueued,
		done:     make(chan struct{}),
		admitted: time.Now(),
	}
	s.register(job)
	if err := s.pool.Submit(job); err != nil {
		s.unregister(job.id)
		code := http.StatusTooManyRequests
		if err == ErrClosed {
			code = http.StatusServiceUnavailable
		}
		s.reply(w, wl, "queue_full", code, errorBody{Error: err.Error()})
		return
	}

	if req.Wait != nil && !*req.Wait {
		s.reply(w, wl, "accepted", http.StatusAccepted, job.view())
		return
	}
	select {
	case <-job.done:
	case <-r.Context().Done():
		// Client went away; the job keeps running and stays pollable.
		s.reply(w, wl, "abandoned", http.StatusAccepted, job.view())
		return
	}
	v := job.view()
	if v.Status == StatusFailed {
		if v.Shed {
			// The fleet planner refused admission: every healthy worker's
			// session slot is leased. 429 tells the client to back off,
			// exactly like a full queue.
			s.reply(w, wl, "shed", http.StatusTooManyRequests, v)
			return
		}
		s.reply(w, wl, "failed", http.StatusBadRequest, v)
		return
	}
	s.reply(w, wl, "ok", http.StatusOK, v)
}

// reply counts a solve admission's outcome and writes its response.
func (s *Server) reply(w http.ResponseWriter, workload, outcome string, code int, v any) {
	s.met.countRequest(workload, outcome)
	writeJSON(w, code, v)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	job, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: fmt.Sprintf("unknown job %q", id)})
		return
	}
	writeJSON(w, http.StatusOK, job.view())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"workloads": Workloads(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	w.Write(s.met.appendText(make([]byte, 0, 16<<10)))
}

func (s *Server) register(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	j.id = fmt.Sprintf("job-%d", s.nextID)
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	// Prune the oldest finished jobs beyond the history bound. Queued and
	// running jobs are skipped, not waited for: one long solve at the
	// head must not pin every job that finished after it.
	for i := 0; len(s.order) > s.cfg.JobHistory && i < len(s.order); {
		id := s.order[i]
		if !s.jobs[id].finished() {
			i++
			continue
		}
		delete(s.jobs, id)
		s.order = slices.Delete(s.order, i, i+1)
	}
}

func (s *Server) unregister(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.jobs[id]; ok {
		delete(s.jobs, id)
		for i, o := range s.order {
			if o == id {
				s.order = append(s.order[:i], s.order[i+1:]...)
				break
			}
		}
	}
}

// runJob executes one admitted solve on a pool worker: check the graph
// cache, build on miss, reset state, solve with the requested executor,
// record metrics, and return the graph to the cache.
func (s *Server) runJob(j *Job) {
	s.met.queueWait.observe(time.Since(j.admitted).Nanoseconds())
	s.met.inflight.Add(1)
	j.mu.Lock()
	j.status = StatusRunning
	j.mu.Unlock()

	// finish leaves the inflight gauge before it wakes the job's
	// waiters, so a client that reads /metrics after its reply never
	// sees its own job still in flight.
	finish := func() {
		s.met.inflight.Add(-1)
		close(j.done)
	}
	fail := func(err error) {
		j.mu.Lock()
		j.status = StatusFailed
		j.err = err.Error()
		j.mu.Unlock()
		finish()
	}

	// Crash guard: a panic on this pool worker (a bug in an operator or
	// a backend) becomes a failed job instead of taking the server and
	// every other tenant's job down with it. Solve failures, a lost
	// shard worker included, arrive as errors, not here.
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		if j.finished() {
			// Nothing left to report the failure to; re-raise.
			panic(rec)
		}
		fail(fmt.Errorf("solve aborted: %v", rec))
	}()

	var buildNanos int64
	p, hit := s.cache.Get(j.key)
	if !hit {
		t := time.Now()
		built, err := j.build()
		if err != nil {
			fail(err)
			return
		}
		buildNanos = time.Since(t).Nanoseconds()
		p = built
	}
	j.mu.Lock()
	j.cacheHit = hit
	j.mu.Unlock()

	p.Reset()
	// Dress the spec, then one call. Worker processes rebuild the graph
	// from the problem reference: the request's workload + spec, exactly
	// what this job admitted.
	g := p.FactorGraph()
	spec := j.executor
	if s.cfg.Fleet != nil && fleetEligible(spec) {
		d := s.cfg.Fleet.Plan(g, s.cfg.FleetPlanner)
		// The lease (if any) outlives the whole solve, including the
		// failover loop's re-partitioned retries.
		defer d.Release()
		s.met.fleetRouted[index(fleetRoutes[:], string(d.Route))].Add(1)
		switch d.Route {
		case fleet.RouteShed:
			j.mu.Lock()
			j.shed = true
			j.mu.Unlock()
			fail(fmt.Errorf("fleet saturated: %s", d.Reason))
			return
		case fleet.RouteRemote:
			spec = d.Spec(spec)
		}
	}
	if len(spec.Addrs) > 0 {
		spec.Problem = &admm.ProblemRef{Workload: j.workload, Spec: j.rawSpec}
		// Server-wide reliability defaults fill in where the request's
		// spec left the knobs unset.
		if spec.DialTimeoutMS == 0 && s.cfg.DialTimeout > 0 {
			spec.DialTimeoutMS = int(s.cfg.DialTimeout / time.Millisecond)
		}
		if spec.HandshakeTimeoutMS == 0 && s.cfg.HandshakeTimeout > 0 {
			spec.HandshakeTimeoutMS = int(s.cfg.HandshakeTimeout / time.Millisecond)
		}
	}
	// Jobs outlive their submitting requests — async clients poll — so
	// the solve is deliberately not bound to the request context.
	out, err := shard.Solve(context.Background(), g, admm.SolveOptions{
		Executor: spec,
		MaxIter:  j.maxIter,
		AbsTol:   j.absTol,
		RelTol:   j.relTol,
	})
	s.met.recordFailover(out)
	if err != nil {
		fail(err)
		return
	}
	if out.HasShardStats {
		s.met.recordShard(out.ShardStats)
	}
	res := out.Result
	s.met.recordSolve(res, buildNanos)

	r := &SolveResult{
		Iterations: res.Iterations,
		Converged:  res.Converged,
		ElapsedNS:  res.Elapsed.Nanoseconds(),
		BuildNS:    buildNanos,
		PhaseNanos: map[string]int64{},
		Metrics:    p.Metrics(),
	}
	if out.Attempts > 0 {
		trail := out.Recovery
		r.Failover = &trail
	}
	// Only now may the instance go back to the cache: a concurrent
	// same-shape request takes it from there and resets its graph, which
	// everything above reads.
	s.cache.Put(j.key, p)
	if !math.IsNaN(res.Primal) {
		pr := res.Primal
		r.Primal = &pr
	}
	if !math.IsNaN(res.Dual) {
		du := res.Dual
		r.Dual = &du
	}
	for ph := admm.Phase(0); ph < admm.NumPhases; ph++ {
		r.PhaseNanos[ph.String()] = res.PhaseNanos[ph]
	}
	j.mu.Lock()
	j.status = StatusDone
	j.result = r
	j.mu.Unlock()
	finish()
}
