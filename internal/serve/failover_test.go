package serve

import (
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/exchange"
	"repro/internal/shard"
	"repro/internal/workload"
)

// TestSolveFailoverSurvivors: a solve request whose worker pool lists a
// dead endpoint, under the "survivors" policy, completes on the live
// workers; the response carries the failover trail and /metrics gains
// the recovery counters.
func TestSolveFailoverSurvivors(t *testing.T) {
	addrs := make([]string, 2)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		go shard.ServeWorker(ln, shard.WorkerOptions{Builders: workload.Builders()})
		addrs[i] = "tcp:" + ln.Addr().String()
	}
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := "tcp:" + dead.Addr().String()
	dead.Close()

	_, ts := newTestServer(t, Config{Workers: 2})
	body := fmt.Sprintf(`{"workload":"mpc","spec":{"k":24},"max_iter":60,
		"executor":{"kind":"sharded","transport":"sockets","failover":"survivors",
		            "addrs":[%q,%q,%q]}}`,
		addrs[0], addrs[1], deadAddr)
	code, v := postSolve(t, ts, body)
	if code != 200 || v.Status != StatusDone {
		t.Fatalf("code %d, job %+v", code, v)
	}
	if v.Result == nil || v.Result.Failover == nil {
		t.Fatalf("no failover view in result: %+v", v.Result)
	}
	fo := v.Result.Failover
	if fo.Failovers < 1 || fo.LocalFallback {
		t.Fatalf("failover view %+v, want >=1 failover and no local fallback", fo)
	}
	if len(fo.FinalAddrs) != 2 {
		t.Fatalf("final workers %v, want the two live ones", fo.FinalAddrs)
	}
	if len(fo.Failures) == 0 {
		t.Fatalf("failover view carries no failure trail: %+v", fo)
	}

	metrics := scrapeMetrics(t, ts)
	for _, m := range []string{
		"paradmm_shard_failovers_total 1",
		"paradmm_shard_worker_failures_total",
		"paradmm_shard_workers_probed 3",
		"paradmm_shard_workers_alive 2",
	} {
		if !strings.Contains(metrics, m) {
			t.Errorf("metrics missing %q", m)
		}
	}
}

// TestFailedSolveCountsRetries: the one endpoint answers every health
// probe and hangs up on every session opener. Under the default policy
// the solve retries the same worker once, because the probe finds it
// alive, and then fails; the failed solve's retry still lands in
// paradmm_shard_retries_total.
func TestFailedSolveCountsRetries(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if f, _, err := exchange.ReadFrame(conn, nil); err == nil && f.Kind == exchange.FramePing {
				exchange.WriteFrame(conn, exchange.FramePong, 0, []byte(`{"active":false,"sessions":0}`))
			}
			conn.Close()
		}
	}()

	_, ts := newTestServer(t, Config{Workers: 1})
	body := fmt.Sprintf(`{"workload":"mpc","spec":{"k":24},"max_iter":60,
		"executor":{"kind":"sharded","transport":"sockets","addrs":[%q]}}`, "tcp:"+ln.Addr().String())
	if _, v := postSolve(t, ts, body); v.Status != StatusFailed {
		t.Fatalf("job %+v, want a failed solve", v)
	}
	if metrics := scrapeMetrics(t, ts); !strings.Contains(metrics, "paradmm_shard_retries_total 1\n") {
		t.Fatalf("metrics lack paradmm_shard_retries_total 1:\n%s", metrics)
	}
}

// scrapeMetrics returns the server's /metrics exposition.
func scrapeMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestSolveFailoverValidation: failover policies are validated at
// admission — "survivors" without addrs (nothing to fail over to) and
// unknown policy names are 400s, not runtime surprises.
func TestSolveFailoverValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	bad := []string{
		`{"workload":"mpc","spec":{"k":4},"executor":{"kind":"sharded","shards":2,"transport":"sockets","failover":"survivors"}}`,
		`{"workload":"mpc","spec":{"k":4},"executor":{"kind":"sharded","shards":2,"transport":"sockets","failover":"sacrifice"}}`,
		`{"workload":"mpc","spec":{"k":4},"executor":{"kind":"serial","failover":"local"}}`,
	}
	for i, body := range bad {
		if code, _ := postSolve(t, ts, body); code != 400 {
			t.Errorf("request %d admitted with code %d", i, code)
		}
	}
}
