package serve

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/admm"
	"repro/internal/bulk"
	"repro/internal/fleet"
	"repro/internal/graph"
	"repro/internal/shard"
	"repro/internal/store"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/metrics.golden from the current exposition")

// goldenCache and goldenStore stand in for the components a scrape reads
// at render time.
var (
	goldenCache = graph.CacheStats{Hits: 7, Misses: 3, Size: 2, Bytes: 40960, BudgetEvictions: 1, FirstSightEvictions: 2}
	goldenStore = store.Stats{Hits: 4, Misses: 1, Puts: 5, Evictions: 2, Compactions: 1, Keys: 3, Bytes: 8192}
)

// driveMetrics records a fixed sequence through every recording entry
// point: every request outcome, one solve, two sharded solves, a
// failover with a health probe, bulk streams of each outcome, fleet
// routes, the two in-flight gauges, queue waits and route latencies.
func driveMetrics(m *metrics) {
	for _, r := range [][2]string{
		{"unknown", "too_large"}, {"unknown", "bad_request"}, {"lasso", "bad_request"},
		{"mpc", "ok"}, {"mpc", "ok"}, {"svm", "queue_full"}, {"packing", "accepted"},
		{"mpc", "abandoned"}, {"lasso", "shed"}, {"svm", "failed"}, {"lasso", "ok"},
	} {
		m.countRequest(r[0], r[1])
	}
	m.recordSolve(admm.Result{
		Iterations: 120,
		PhaseNanos: [admm.NumPhases]int64{4000, 0, 2500, 1200, 300},
		Elapsed:    3 * time.Millisecond,
	}, 1_500_000)
	m.recordShard(shard.Stats{
		BoundaryVars: 2, BoundaryEdges: 4, CutCost: 6,
		Workers: []shard.WorkerStats{
			{SyncWait: 10, BoundaryZ: 40, Cache: "state"},
			{SyncWait: 500, BoundaryZ: 5, Cache: "miss"},
			{SyncWait: 30, Cache: "miss"},
		},
	})
	m.recordShard(shard.Stats{
		BoundaryVars: 3, BoundaryEdges: 6, CutCost: 12.5, BytesPerIter: 100,
		Workers: []shard.WorkerStats{
			{SyncWait: 7, BoundaryZ: 11, Cache: "state"},
			{SyncWait: 3, BoundaryZ: 2, Cache: "state"},
			{SyncWait: 9, Cache: "graph"},
			{SyncWait: 1, BoundaryZ: 3},
		},
	})
	m.recordFailover(shard.Outcome{
		Recovery: shard.Recovery{Attempts: 3, HandshakeRetries: 2, Failovers: 1, LocalFallback: true,
			Failures: []string{"worker 2 lost", "worker 1 lost"}},
		Health: []shard.WorkerHealth{{Addr: "a", Alive: true}, {Addr: "b"}, {Addr: "c", Alive: true}},
	})
	m.recordBulk(bulk.Stats{Results: 10, Errors: 1, Solved: 9, WarmStarts: 6, Iterations: 900}, "ok")
	m.recordBulk(bulk.Stats{Results: 2, Solved: 2, Iterations: 40}, "aborted")
	m.recordBulk(bulk.Stats{}, "rejected")
	m.inflight.Add(2)
	m.bulkInflight.Add(1)
	for _, r := range []fleet.Route{fleet.RouteLocal, fleet.RouteRemote, fleet.RouteRemote, fleet.RouteShed} {
		m.fleetRouted[index(fleetRoutes[:], string(r))].Add(1)
	}
	// A bound is inclusive (le), and past the last one is +Inf.
	m.queueWait.observe(250_000)
	m.queueWait.observe(250_001)
	solve := &m.http[index(httpRoutes[:], "solve")]
	solve.observe(42_000_000)
	solve.observe(7_000_000)
	m.http[index(httpRoutes[:], "metrics")].observe(200e9)
}

// goldenFleet is a four-worker registry driven by a scripted probe over
// two rounds to healthy 2, suspect 1, dead 1 and none joining, with one
// lease released and one held.
func goldenFleet(t *testing.T) *fleet.Registry {
	t.Helper()
	rounds := [][]bool{{true, true, false, false}, {true, false, false, true}}
	round := 0
	probe := func(_ context.Context, addrs []string, _ time.Duration) []shard.WorkerHealth {
		out := make([]shard.WorkerHealth, len(addrs))
		for i, a := range addrs {
			out[i] = shard.WorkerHealth{Addr: a, Alive: rounds[round][i]}
		}
		round++
		return out
	}
	epoch := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	reg, err := fleet.New(fleet.Config{
		Addrs:     []string{"w0", "w1", "w2", "w3"},
		DeadAfter: 2,
		Now:       func() time.Time { return epoch },
		Probe:     probe,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg.ProbeOnce(context.Background())
	reg.ProbeOnce(context.Background())
	reg.Acquire(1).Release()
	if reg.Acquire(1) == nil {
		t.Fatal("no healthy worker to lease")
	}
	return reg
}

// goldenExposition renders the fixed sequence's /metrics text.
func goldenExposition(t *testing.T) string {
	reg := goldenFleet(t)
	m := newMetrics(true, true, func(s *snapshot) {
		s.cache, s.queue, s.store, s.fleet = goldenCache, 3, goldenStore, reg.Stats()
	})
	driveMetrics(m)
	return string(m.appendText(nil))
}

// TestMetricsGolden pins the whole exposition — names, HELP, TYPE,
// label order, value formatting and which cells are written — against
// testdata/metrics.golden. Run with -update to rewrite the file.
func TestMetricsGolden(t *testing.T) {
	got := goldenExposition(t)
	const path = "testdata/metrics.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("exposition differs from %s at line %d:\n got %q\nwant %q", path, i+1, g, w)
			}
		}
	}
}

// samples maps every sample line's series (name and labels) to its value.
func samples(text string) map[string]string {
	out := map[string]string{}
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if !strings.HasPrefix(line, "#") {
			i := strings.LastIndexByte(line, ' ')
			out[line[:i]] = line[i+1:]
		}
	}
	return out
}

// checkExposition checks the text format's structure: every family has
// one # HELP and one # TYPE, in that order, before its samples, and
// appears once; a histogram's le bounds ascend, its buckets never
// decrease, +Inf equals _count and _sum is not negative.
// It returns one problem per offending line.
func checkExposition(text string) (problems []string) {
	seen := map[string]bool{}
	var family, kind, series string // series: the histogram whose buckets run
	var le, bucket float64
	inf := map[string]string{} // histogram series -> its +Inf bucket
	for n, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		f := strings.Fields(line)
		switch {
		case f[0] == "#" && f[1] == "HELP":
			if seen[f[2]] {
				problems = append(problems, fmt.Sprintf("line %d: family %s appears twice", n+1, f[2]))
			}
			seen[f[2]], family, kind = true, f[2], ""
		case f[0] == "#" && f[1] == "TYPE":
			if f[2] != family || kind != "" {
				problems = append(problems, fmt.Sprintf("line %d: # TYPE %s without its # HELP just before", n+1, f[2]))
			}
			kind = f[3]
		case kind == "" || !strings.HasPrefix(f[0], family):
			problems = append(problems, fmt.Sprintf("line %d: sample %q outside its family's HELP and TYPE", n+1, line))
		case kind == "histogram":
			v, _ := strconv.ParseFloat(f[1], 64)
			name, labels, _ := strings.Cut(strings.TrimSuffix(f[0], "}"), "{")
			switch base := strings.TrimSuffix(name, "_bucket"); {
			case base != name:
				other, bound, _ := strings.Cut(labels, `le="`)
				key := base + "{" + strings.TrimSuffix(other, ",") + "}"
				if key != series {
					series, le, bucket = key, math.Inf(-1), 0
				}
				b, _ := strconv.ParseFloat(strings.TrimSuffix(bound, `"`), 64)
				if b <= le || v < bucket {
					problems = append(problems, fmt.Sprintf("line %d: %q: le must ascend and buckets never decrease", n+1, line))
				}
				if le, bucket = b, v; math.IsInf(b, 1) {
					inf[key] = f[1]
				}
			case strings.HasSuffix(name, "_sum") && v < 0:
				problems = append(problems, fmt.Sprintf("line %d: negative %s", n+1, line))
			case strings.HasSuffix(name, "_count"):
				if key := strings.TrimSuffix(name, "_count") + "{" + labels + "}"; inf[key] != f[1] {
					problems = append(problems, fmt.Sprintf("line %d: %s, but its +Inf bucket is %s", n+1, line, inf[key]))
				}
			}
		}
	}
	return problems
}

// TestMetricsExpositionWellFormed checks a real scrape after a mixed run
// (an ok solve, a bad request, a sharded-4 solve and a bulk stream) on a
// server with a store and a fake-probe fleet configured.
func TestMetricsExpositionWellFormed(t *testing.T) {
	st, err := store.Open(store.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_, ts := newTestServer(t, Config{Workers: 1, Store: st, Fleet: goldenFleet(t)})
	solves := []string{
		`{"workload":"mpc","spec":{"k":4},"max_iter":50}`,
		`{"workload":"nope","spec":{}}`,
		`{"workload":"mpc","spec":{"k":16},"executor":{"kind":"sharded","shards":4},"max_iter":50}`,
	}
	for _, body := range solves {
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := http.Post(ts.URL+"/v1/bulk", "application/x-ndjson",
		strings.NewReader(`{"workload":"lasso","spec":{"m":16,"lambda":0.3},"max_iter":30}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range checkExposition(string(text)) {
		t.Error(p)
	}
	got := samples(string(text))
	if n := got[`paradmm_http_request_seconds_count{route="solve"}`]; n != strconv.Itoa(len(solves)) {
		t.Errorf("solve route count = %q, want %d", n, len(solves))
	}
	for _, series := range []string{`paradmm_requests_total{workload="mpc",outcome="ok"}`, `paradmm_requests_total{workload="unknown",outcome="bad_request"}`,
		"paradmm_shard_shards", "paradmm_bulk_records_total", "paradmm_store_puts_total", "paradmm_solve_seconds_count", "paradmm_queue_wait_seconds_count"} {
		if got[series] == "" || got[series] == "0" {
			t.Errorf("%s = %q after the mixed run, want a positive count", series, got[series])
		}
	}
}

// TestMetricsExpositionCheckerCatchesBreaks feeds the checker broken
// expositions, so a checker that accepts anything cannot pass the test
// above.
func TestMetricsExpositionCheckerCatchesBreaks(t *testing.T) {
	good := goldenExposition(t)
	for name, broken := range map[string]string{
		"duplicate family": good + "# HELP paradmm_iterations_total x\n# TYPE paradmm_iterations_total counter\n",
		"missing TYPE":     strings.Replace(good, "# TYPE paradmm_iterations_total counter\n", "", 1),
		"bucket decreases": strings.Replace(good, `paradmm_solve_seconds_bucket{le="+Inf"} 1`, `paradmm_solve_seconds_bucket{le="+Inf"} 0`, 1),
		"count off +Inf":   strings.Replace(good, "paradmm_build_seconds_count 1", "paradmm_build_seconds_count 2", 1),
		"missing +Inf":     strings.Replace(good, "paradmm_build_seconds_bucket{le=\"+Inf\"} 1\n", "", 1),
		"negative sum":     strings.Replace(good, "paradmm_solve_seconds_sum 0.003", "paradmm_solve_seconds_sum -1", 1),
	} {
		if broken == good {
			t.Fatalf("%s: the break did not apply", name)
		}
		if checkExposition(broken) == nil {
			t.Errorf("checker accepts an exposition with a %s", name)
		}
	}
}

// TestMetricsRecordAllocatesNothing: every recording path is atomic adds
// into fixed cells, so none allocates.
func TestMetricsRecordAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on its own")
	}
	m := newMetrics(false, false, nil)
	st := shard.Stats{Workers: []shard.WorkerStats{{SyncWait: 3, Cache: "state"}, {SyncWait: 4, Cache: "miss"}}}
	out := shard.Outcome{Recovery: shard.Recovery{Failovers: 1, Failures: []string{"lost"}}, Health: []shard.WorkerHealth{{Alive: true}, {}}}
	res := admm.Result{Iterations: 3, PhaseNanos: [admm.NumPhases]int64{1, 2, 3, 4, 5}, Elapsed: time.Millisecond}
	handler := m.timed("healthz", func(http.ResponseWriter, *http.Request) {})
	for name, record := range map[string]func(){
		"countRequest":   func() { m.countRequest("mpc", "ok") },
		"recordSolve":    func() { m.recordSolve(res, 1000) },
		"recordShard":    func() { m.recordShard(st) },
		"recordFailover": func() { m.recordFailover(out) },
		"recordBulk":     func() { m.recordBulk(bulk.Stats{Results: 1, Solved: 1}, "ok") },
		"fleet route":    func() { m.fleetRouted[index(fleetRoutes[:], "remote")].Add(1) },
		"observe":        func() { m.queueWait.observe(12345) },
		"timed handler":  func() { handler(nil, nil) },
	} {
		if n := testing.AllocsPerRun(100, record); n != 0 {
			t.Errorf("%s allocates %.1f objects per call, want 0", name, n)
		}
	}
}

// TestMetricsScrapeNeverMixesSolves: goroutines record distinct sharded
// solves while scrapes run; every scrape's last-solve gauges must all
// come from one recorded solve.
func TestMetricsScrapeNeverMixesSolves(t *testing.T) {
	m := newMetrics(false, false, func(*snapshot) {})
	stats := func(k int) shard.Stats {
		return shard.Stats{Workers: make([]shard.WorkerStats, k), BoundaryVars: 10 * k, BoundaryEdges: 100 * k, BytesPerIter: float64(8 * k), CutCost: float64(k)}
	}
	m.recordShard(stats(2))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; ; i++ {
				select {
				case <-stop:
					return
				default:
					m.recordShard(stats(2 + i%8))
				}
			}
		}()
	}
	defer wg.Wait()
	defer close(stop)
	for i := 0; i < 100; i++ {
		got := samples(string(m.appendText(nil)))
		k, _ := strconv.Atoi(got["paradmm_shard_shards"])
		want := stats(k)
		for series, v := range map[string]string{
			"paradmm_shard_boundary_vars":  strconv.Itoa(want.BoundaryVars),
			"paradmm_shard_boundary_edges": strconv.Itoa(want.BoundaryEdges),
			"paradmm_shard_bytes_per_iter": strconv.FormatFloat(want.BytesPerIter, 'g', -1, 64),
			"paradmm_shard_cut_cost_words": strconv.FormatFloat(want.CutCost, 'g', -1, 64),
		} {
			if k < 2 || k > 9 || got[series] != v {
				t.Fatalf("scrape %d mixes solves: paradmm_shard_shards %d but %s %s", i, k, series, got[series])
			}
		}
	}
}
