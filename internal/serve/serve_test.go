package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/admm"
	"repro/internal/fleet"
	"repro/internal/shard"
	"repro/internal/workload"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postSolve(t *testing.T, ts *httptest.Server, body string) (int, JobView) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/solve: %v", err)
	}
	defer resp.Body.Close()
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp.StatusCode, v
}

// TestSolveHandler is the table-driven admission test: malformed
// requests are rejected with 400 at admission, and every workload
// solves under every executor family.
func TestSolveHandler(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	tests := []struct {
		name     string
		body     string
		wantCode int
	}{
		{"malformed body", `{`, http.StatusBadRequest},
		{"unknown workload", `{"workload":"tsp","spec":{"n":4}}`, http.StatusBadRequest},
		{"missing spec", `{"workload":"lasso"}`, http.StatusBadRequest},
		{"unknown spec field", `{"workload":"lasso","spec":{"m":16,"bogus":1}}`, http.StatusBadRequest},
		{"bad spec value", `{"workload":"lasso","spec":{"m":1}}`, http.StatusBadRequest},
		{"svm too few points", `{"workload":"svm","spec":{"n":1}}`, http.StatusBadRequest},
		{"mpc zero horizon", `{"workload":"mpc","spec":{"k":0}}`, http.StatusBadRequest},
		{"mpc bad q0", `{"workload":"mpc","spec":{"k":4,"q0":[1,2]}}`, http.StatusBadRequest},
		{"packing zero circles", `{"workload":"packing","spec":{"n":0}}`, http.StatusBadRequest},
		{"packing negative rho", `{"workload":"packing","spec":{"n":4,"rho":-0.1,"delta":-0.5}}`, http.StatusBadRequest},
		{"svm negative lambda", `{"workload":"svm","spec":{"n":24,"dim":2,"lambda":-1}}`, http.StatusBadRequest},
		{"lasso negative lambda", `{"workload":"lasso","spec":{"m":32,"lambda":-0.3}}`, http.StatusBadRequest},
		{"lasso negative blocks", `{"workload":"lasso","spec":{"m":32,"blocks":-2}}`, http.StatusBadRequest},
		{"unknown executor kind", `{"workload":"lasso","spec":{"m":16},"executor":{"kind":"gpu"}}`, http.StatusBadRequest},
		{"balanced_z on serial", `{"workload":"lasso","spec":{"m":16},"executor":{"kind":"serial","balanced_z":true}}`, http.StatusBadRequest},
		{"max_iter over limit", `{"workload":"lasso","spec":{"m":16},"max_iter":100000000}`, http.StatusBadRequest},
		{"negative abs_tol", `{"workload":"lasso","spec":{"m":16},"abs_tol":-1}`, http.StatusBadRequest},
		{"negative rel_tol", `{"workload":"lasso","spec":{"m":16},"rel_tol":-1}`, http.StatusBadRequest},
		{"lasso m over cap", `{"workload":"lasso","spec":{"m":100000000}}`, http.StatusBadRequest},
		{"lasso p over cap", `{"workload":"lasso","spec":{"m":16,"p":100000}}`, http.StatusBadRequest},
		{"svm n over cap", `{"workload":"svm","spec":{"n":100000000}}`, http.StatusBadRequest},
		{"mpc k over cap", `{"workload":"mpc","spec":{"k":100000000}}`, http.StatusBadRequest},
		{"packing n over cap", `{"workload":"packing","spec":{"n":100000}}`, http.StatusBadRequest},
		{"executor workers over cap", `{"workload":"lasso","spec":{"m":16},"executor":{"kind":"parallel-for","workers":1000000000}}`, http.StatusBadRequest},
		{"shards on serial", `{"workload":"lasso","spec":{"m":16},"executor":{"kind":"serial","shards":2}}`, http.StatusBadRequest},
		{"unknown partition strategy", `{"workload":"lasso","spec":{"m":16},"executor":{"kind":"sharded","partition":"metis"}}`, http.StatusBadRequest},
		{"shards over cap", `{"workload":"lasso","spec":{"m":16},"executor":{"kind":"sharded","shards":1000000}}`, http.StatusBadRequest},
		// "wait":false: a failed solve is a 400 too, but only admission
		// answers before the job runs.
		{"worker named twice", `{"workload":"mpc","spec":{"k":8},"executor":{"kind":"sharded","transport":"sockets","addrs":["unix:/tmp/w0","unix:/tmp/w0"]},"wait":false}`, http.StatusBadRequest},

		{"lasso serial", `{"workload":"lasso","spec":{"m":16},"max_iter":100}`, http.StatusOK},
		{"mpc sharded", `{"workload":"mpc","spec":{"k":8},"executor":{"kind":"sharded","shards":2},"max_iter":100}`, http.StatusOK},
		// partition and refine are retired keys: one split remains, so
		// both are unknown fields now, whatever they name.
		{"packing sharded greedy", `{"workload":"packing","spec":{"n":4},"executor":{"kind":"sharded","shards":3,"partition":"greedy-mincut"},"max_iter":100}`, http.StatusBadRequest},
		{"packing sharded mincut+fm", `{"workload":"packing","spec":{"n":4},"executor":{"kind":"sharded","shards":3,"partition":"mincut+fm"},"max_iter":100}`, http.StatusBadRequest},
		{"lasso sharded refined", `{"workload":"lasso","spec":{"m":16},"executor":{"kind":"sharded","shards":2,"refine":true},"max_iter":100}`, http.StatusBadRequest},
		{"refine on non-sharded", `{"workload":"lasso","spec":{"m":16},"executor":{"kind":"serial","refine":true}}`, http.StatusBadRequest},
		// parallel-for and async are retired kinds: the backends are
		// library types for the paper figures, and no spec names them.
		{"svm parallel-for", `{"workload":"svm","spec":{"n":8},"executor":{"kind":"parallel-for","workers":2},"max_iter":100}`, http.StatusBadRequest},
		{"mpc barrier", `{"workload":"mpc","spec":{"k":4},"executor":{"kind":"barrier","workers":2},"max_iter":100}`, http.StatusBadRequest},
		{"packing async", `{"workload":"packing","spec":{"n":3},"executor":{"kind":"async"},"max_iter":100}`, http.StatusBadRequest},
		{"lasso balanced-z parallel-for", `{"workload":"lasso","spec":{"m":16},"executor":{"kind":"parallel-for","workers":2,"balanced_z":true,"dynamic":true},"max_iter":100}`, http.StatusBadRequest},
		{"mpc with tolerance", `{"workload":"mpc","spec":{"k":4},"rel_tol":1e-9,"abs_tol":1e-9,"max_iter":5000}`, http.StatusOK},
		{"mpc auto executor", `{"workload":"mpc","spec":{"k":8},"executor":{"kind":"auto"},"max_iter":100}`, http.StatusOK},
		{"svm unfused reference", `{"workload":"svm","spec":{"n":8},"executor":{"kind":"serial","fused":false},"max_iter":100}`, http.StatusOK},
		{"sharded fused off", `{"workload":"mpc","spec":{"k":8},"executor":{"kind":"sharded","shards":2,"fused":false},"max_iter":100}`, http.StatusBadRequest},
		{"sockets with the retired overlap field", `{"workload":"mpc","spec":{"k":8},"executor":{"kind":"sharded","shards":2,"transport":"sockets","overlap":true},"max_iter":100}`, http.StatusBadRequest},
		{"sockets with the retired delta_threshold field", `{"workload":"mpc","spec":{"k":8},"executor":{"kind":"sharded","shards":2,"transport":"sockets","delta_threshold":0},"max_iter":100}`, http.StatusBadRequest},
		// warm_cache is a retired key: every remote session consults the
		// workers' caches, so there is nothing to switch on.
		{"sockets with the retired warm_cache field", `{"workload":"mpc","spec":{"k":8},"executor":{"kind":"sharded","shards":2,"transport":"sockets","warm_cache":true},"max_iter":100}`, http.StatusBadRequest},
		// frame_timeout_ms is a retired key: the workers' heartbeats bound
		// every running block, so there is no deadline to set.
		{"sockets with the retired frame_timeout_ms field", `{"workload":"mpc","spec":{"k":8},"executor":{"kind":"sharded","shards":2,"transport":"sockets","frame_timeout_ms":5000},"max_iter":100}`, http.StatusBadRequest},
		// dial_attempts is a retired key: shard.Solve's one attempt loop
		// owns every retry.
		{"sockets with the retired dial_attempts field", `{"workload":"mpc","spec":{"k":8},"executor":{"kind":"sharded","shards":2,"transport":"sockets","dial_attempts":3},"max_iter":100}`, http.StatusBadRequest},
		// dial_timeout_ms and handshake_timeout_ms are retired keys: the
		// liveness rule bounds a whole worker session.
		{"sockets with the retired dial_timeout_ms field", `{"workload":"mpc","spec":{"k":8},"executor":{"kind":"sharded","shards":2,"transport":"sockets","dial_timeout_ms":5000},"max_iter":100}`, http.StatusBadRequest},
		{"sockets with the retired handshake_timeout_ms field", `{"workload":"mpc","spec":{"k":8},"executor":{"kind":"sharded","shards":2,"transport":"sockets","handshake_timeout_ms":5000},"max_iter":100}`, http.StatusBadRequest},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			code, v := postSolve(t, ts, tc.body)
			if code != tc.wantCode {
				t.Fatalf("status = %d (job %+v), want %d", code, v, tc.wantCode)
			}
			if tc.wantCode != http.StatusOK {
				return
			}
			if v.Status != StatusDone || v.Result == nil {
				t.Fatalf("job = %+v, want done with result", v)
			}
			if v.Result.Iterations <= 0 {
				t.Errorf("iterations = %d, want > 0", v.Result.Iterations)
			}
			if len(v.Result.Metrics) == 0 {
				t.Errorf("no quality metrics reported")
			}
		})
	}
}

// TestRetiredPartitionKeysRefused: a sharded spec that still sends
// "partition" — even naming the one split there is — or "refine" gets
// the strict-JSON unknown-field refusal, and the message names the key.
func TestRetiredPartitionKeysRefused(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for key, executor := range map[string]string{
		"partition": `{"kind":"sharded","shards":2,"partition":"balanced"}`,
		"refine":    `{"kind":"sharded","shards":2,"refine":true}`,
	} {
		code, v := postSolve(t, ts, `{"workload":"mpc","spec":{"k":8},"executor":`+executor+`,"max_iter":100}`)
		if code != http.StatusBadRequest || !strings.Contains(v.Error, `"`+key+`"`) {
			t.Fatalf("%s: status %d, error %q; want 400 naming the field", key, code, v.Error)
		}
	}
}

// TestRetiredExecutorKindsRefused: the retired kinds get a 400 naming
// the kind, and the four knobs only they read get the strict-JSON
// unknown-field refusal naming the key — even on a kind that is kept.
func TestRetiredExecutorKindsRefused(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := map[string]string{}
	for _, kind := range []string{"parallel-for", "parallel", "async"} {
		cases[kind] = `{"kind":"` + kind + `"}`
	}
	for key, value := range map[string]string{"workers": "2", "dynamic": "true", "balanced_z": "true", "seed": "1"} {
		cases[key] = `{"kind":"serial","` + key + `":` + value + `}`
	}
	for name, executor := range cases {
		code, v := postSolve(t, ts, `{"workload":"mpc","spec":{"k":8},"executor":`+executor+`,"max_iter":100}`)
		if code != http.StatusBadRequest || !strings.Contains(v.Error, `"`+name+`"`) {
			t.Fatalf("%s: status %d, error %q; want 400 naming it", name, code, v.Error)
		}
	}
}

// TestResidualsReported checks that tolerance-bearing requests surface
// the final residuals (and plain fixed-iteration requests don't).
func TestResidualsReported(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	code, v := postSolve(t, ts, `{"workload":"mpc","spec":{"k":4},"rel_tol":1e-9,"abs_tol":1e-9,"max_iter":5000}`)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if v.Result.Primal == nil || v.Result.Dual == nil {
		t.Errorf("residuals missing with tolerances set: %+v", v.Result)
	}
	code, v = postSolve(t, ts, `{"workload":"mpc","spec":{"k":4},"max_iter":50}`)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if v.Result.Primal != nil || v.Result.Dual != nil {
		t.Errorf("residuals reported without residual checking: %+v", v.Result)
	}
}

// TestGraphCacheHit is the acceptance scenario: the second identical
// request builds again and the third reuses the cached factor graph (and
// still produces the same solution metrics, since Reset clears all ADMM
// state). The cache pools a shape only from its second miss on: a shape
// asked for once — a fresh seed, say — is never asked for again often
// enough to be worth the memory, and pooling it forever is what made
// the old cache grow without bound.
func TestGraphCacheHit(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	body := `{"workload":"lasso","spec":{"m":24,"blocks":4,"lambda":0.3},"max_iter":300}`

	var replies []JobView
	for i, wantHit := range []bool{false, false, true} {
		code, v := postSolve(t, ts, body)
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d", i+1, code)
		}
		if v.CacheHit != wantHit {
			t.Fatalf("request %d: cache_hit = %v, want %v", i+1, v.CacheHit, wantHit)
		}
		if hit := v.Result.BuildNS == 0; hit != wantHit {
			t.Fatalf("request %d: build_ns = %d with cache_hit %v", i+1, v.Result.BuildNS, v.CacheHit)
		}
		replies = append(replies, v)
	}
	cs := s.CacheStats()
	if cs.Hits != 1 || cs.Misses != 2 || cs.FirstSightEvictions != 1 || cs.Size != 1 || cs.Bytes <= 0 {
		t.Errorf("cache stats = %+v, want 1 hit / 2 misses / 1 first-sight drop / 1 pooled", cs)
	}
	// Determinism across reuse: same spec, same init, same iterations —
	// byte-identical quality metrics.
	for _, v := range replies[1:] {
		for k, v1 := range replies[0].Result.Metrics {
			if v2 := v.Result.Metrics[k]; v2 != v1 {
				t.Errorf("metric %s diverged across cache reuse: %g vs %g", k, v1, v2)
			}
		}
	}
	// A different shape must not hit.
	code, other := postSolve(t, ts, `{"workload":"lasso","spec":{"m":32,"blocks":4,"lambda":0.3},"max_iter":300}`)
	if code != http.StatusOK {
		t.Fatalf("different-shape request: status %d", code)
	}
	if other.CacheHit {
		t.Errorf("different-shape request claims a cache hit")
	}
}

// TestJobHistorySkipsRunningJobs: pruning the job registry skips an
// unfinished job instead of stopping at it, so one long solve at the
// head of the history cannot pin every job that finishes after it.
func TestJobHistorySkipsRunningJobs(t *testing.T) {
	const history = 16
	s := New(Config{Workers: 1, JobHistory: history})
	defer s.Close()
	blocked := &Job{status: StatusRunning}
	s.register(blocked)
	for i := 0; i < history+50; i++ {
		s.register(&Job{status: StatusDone})
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.jobs) > history+1 || len(s.order) != len(s.jobs) {
		t.Fatalf("%d jobs in the registry (%d in order), want at most %d", len(s.jobs), len(s.order), history+1)
	}
	if s.jobs[blocked.id] != blocked || s.order[0] != blocked.id {
		t.Fatal("the running job was pruned")
	}
}

// TestAsyncJob exercises the fire-and-poll path: 202 on submit, then
// GET /v1/jobs/{id} until done.
func TestAsyncJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	code, v := postSolve(t, ts, `{"workload":"svm","spec":{"n":8},"max_iter":200,"wait":false}`)
	if code != http.StatusAccepted {
		t.Fatalf("status = %d, want 202", code)
	}
	if v.ID == "" {
		t.Fatalf("no job id in 202 response: %+v", v)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID)
		if err != nil {
			t.Fatal(err)
		}
		var jv JobView
		if err := json.NewDecoder(resp.Body).Decode(&jv); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if jv.Status == StatusDone {
			if jv.Result == nil || jv.Result.Iterations != 200 {
				t.Fatalf("finished job = %+v, want 200 iterations", jv)
			}
			break
		}
		if jv.Status == StatusFailed {
			t.Fatalf("job failed: %s", jv.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", jv.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJobNotFound covers the 404 path.
func TestJobNotFound(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/jobs/job-999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status = %d, want 404", resp.StatusCode)
	}
}

// TestClosedServer maps pool shutdown to 503.
func TestClosedServer(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.Close()
	code, _ := postSolve(t, ts, `{"workload":"mpc","spec":{"k":2},"max_iter":10}`)
	if code != http.StatusServiceUnavailable {
		t.Errorf("status = %d, want 503", code)
	}
}

// TestHealthAndMetrics checks the observability endpoints end to end:
// healthz lists the workloads, and a completed solve shows up in every
// metric family.
func TestHealthAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status    string   `json:"status"`
		Workloads []string `json:"workloads"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" || len(health.Workloads) != 4 {
		t.Fatalf("healthz = %+v, want ok with 4 workloads", health)
	}

	code, _ := postSolve(t, ts, `{"workload":"mpc","spec":{"k":4},"max_iter":120}`)
	if code != http.StatusOK {
		t.Fatalf("solve status = %d", code)
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	rawBytes, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(rawBytes)
	for _, want := range []string{
		`paradmm_requests_total{workload="mpc",outcome="ok"} 1`,
		"paradmm_iterations_total 120",
		`paradmm_phase_nanos_total{phase="x-update"}`,
		"paradmm_graph_cache_misses_total 1",
		// One request is a first sighting: built, solved, not pooled.
		"paradmm_graph_cache_bytes 0",
		`paradmm_graph_cache_evictions_total{reason="first_sight"} 1`,
		`paradmm_graph_cache_evictions_total{reason="budget"} 0`,
		"paradmm_jobs_inflight 0",
		"paradmm_queue_depth 0",
		"paradmm_shard_solves_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n---\n%s", want, text)
		}
	}
}

// TestJobsInflightZeroAfterWaitReply: a job leaves the inflight gauge
// before its waiter is woken, so a scrape right after a wait reply never
// counts the job that produced it.
func TestJobsInflightZeroAfterWaitReply(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for i := 0; i < 5; i++ {
		code, v := postSolve(t, ts, `{"workload":"mpc","spec":{"k":2},"max_iter":10}`)
		if code != http.StatusOK || v.Status != StatusDone {
			t.Fatalf("solve %d: status %d, job %+v", i, code, v)
		}
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		text, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(text), "paradmm_jobs_inflight 0\n") {
			t.Fatalf("after wait reply %d the gauge still counts the job:\n%s", i, text)
		}
	}
}

// TestShardMetricsReported: a sharded solve must surface its partition
// footprint (boundary vars/edges, shard count) through /metrics, and
// each shard's loop time in its reply; a serial reply has no shards.
func TestShardMetricsReported(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	code, v := postSolve(t, ts,
		`{"workload":"mpc","spec":{"k":16},"executor":{"kind":"sharded","shards":4},"max_iter":200}`)
	if code != http.StatusOK || v.Status != StatusDone {
		t.Fatalf("sharded solve: status %d, job %+v", code, v)
	}
	shards := v.Result.Shards
	if len(shards) != 4 {
		t.Fatalf("reply carries %d shards, want 4: %+v", len(shards), shards)
	}
	straggles := int64(0)
	for i, s := range shards {
		if s.PhaseNanos[admm.PhaseX.String()] <= 0 || s.SyncWaitNanos <= 0 {
			t.Errorf("shard %d reports %+v, want its x time and sync wait", i, s)
		}
		straggles += s.Straggles
	}
	if straggles != 1 {
		t.Errorf("%d straggles in a one-block solve, want 1", straggles)
	}
	if code, v := postSolve(t, ts, `{"workload":"mpc","spec":{"k":16},"max_iter":200}`); code != http.StatusOK || v.Result == nil || v.Result.Shards != nil {
		t.Fatalf("serial solve: status %d, result %+v, want no shards", code, v.Result)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	rawBytes, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(rawBytes)
	for _, want := range []string{
		"paradmm_shard_solves_total 1",
		"paradmm_shard_shards 4",
		"paradmm_shard_boundary_vars ",
		"paradmm_shard_boundary_edges ",
		"paradmm_shard_sync_wait_nanos_total ",
		"paradmm_shard_boundary_z_nanos_total ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n---\n%s", want, text)
		}
	}
	// The MPC chain must not be boundary-dominated under the balanced
	// split.
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "paradmm_shard_boundary_vars ") {
			var n int
			if _, err := fmt.Sscanf(line, "paradmm_shard_boundary_vars %d", &n); err != nil {
				t.Fatal(err)
			}
			if n <= 0 || n > 8 {
				t.Errorf("boundary vars = %d, want 1..8 on an MPC chain", n)
			}
		}
	}
}

// TestShardSyncWaitCountsSlowestShard: the sync-wait counter follows the
// shard that waited longest in each solve, not shard 0 — which may be
// the very shard the others were waiting for.
func TestShardSyncWaitCountsSlowestShard(t *testing.T) {
	m := newMetrics(false, false, nil)
	m.recordShard(shard.Stats{Workers: []shard.WorkerStats{{SyncWait: 10}, {SyncWait: 500}, {SyncWait: 30}}})
	m.recordShard(shard.Stats{Workers: []shard.WorkerStats{{SyncWait: 7}, {SyncWait: 3}}})
	if got := m.shardSyncNanos.Load(); got != 507 {
		t.Fatalf("sync-wait total = %d, want 500 + 7", got)
	}
}

// TestConcurrentSameShapeReplies is the regression test for a wrong-answer
// race: runJob used to return the problem instance to the graph cache
// before reading its quality metrics, so a concurrent request of the same
// shape could take the instance and reset its graph under the read. Two
// clients post one shape; every reply must carry exactly the metrics of
// an in-process solve (and -race must stay silent).
func TestConcurrentSameShapeReplies(t *testing.T) {
	const spec = `{"k":200}`
	const maxIter = 30
	adm, err := workload.Parse("mpc", json.RawMessage(spec))
	if err != nil {
		t.Fatal(err)
	}
	p, err := adm.Build()
	if err != nil {
		t.Fatal(err)
	}
	p.Reset()
	if _, err := admm.Solve(p.FactorGraph(), admm.SolveOptions{MaxIter: maxIter}); err != nil {
		t.Fatal(err)
	}
	want := p.Metrics()

	_, ts := newTestServer(t, Config{Workers: 2})
	body := fmt.Sprintf(`{"workload":"mpc","spec":%s,"max_iter":%d}`, spec, maxIter)
	perClient := 150
	if raceEnabled {
		perClient = 40
	}
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(body))
				if err != nil {
					t.Errorf("POST /v1/solve: %v", err)
					return
				}
				var v JobView
				err = json.NewDecoder(resp.Body).Decode(&v)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || v.Result == nil {
					t.Errorf("request %d: status %d, decode error %v", i, resp.StatusCode, err)
					return
				}
				for k, w := range want {
					if got := v.Result.Metrics[k]; got != w {
						t.Errorf("request %d: metric %s = %v, in-process solve gives %v", i, k, got, w)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestFleetShedReplies429: a fleet-eligible request on a fleet whose
// every healthy worker is leased is shed — 429, the job flagged shed,
// and the planner's verdict counted.
func TestFleetShedReplies429(t *testing.T) {
	addrs := []string{"w0:1", "w1:1"}
	reg, err := fleet.New(fleet.Config{Addrs: addrs, Probe: func(_ context.Context, addrs []string, _ time.Duration) []shard.WorkerHealth {
		out := make([]shard.WorkerHealth, len(addrs))
		for i, a := range addrs {
			out[i] = shard.WorkerHealth{Addr: a, Alive: true}
		}
		return out
	}})
	if err != nil {
		t.Fatal(err)
	}
	reg.ProbeOnce(context.Background())
	lease := reg.Acquire(len(addrs))
	defer lease.Release()

	_, ts := newTestServer(t, Config{Workers: 1, Fleet: reg, FleetPlanner: fleet.PlannerConfig{MinEdges: 1}})
	code, v := postSolve(t, ts, `{"workload":"mpc","spec":{"k":40}}`)
	if code != http.StatusTooManyRequests || !v.Shed || !strings.Contains(v.Error, "fleet saturated") {
		t.Fatalf("status %d, job %+v: want 429, shed, fleet saturated", code, v)
	}
	if m := scrapeMetrics(t, ts); !strings.Contains(m, `paradmm_fleet_routed_total{route="shed"} 1`) {
		t.Fatalf("shed verdict not counted:\n%s", m)
	}
}
