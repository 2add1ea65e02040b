package serve

import (
	"io"
	"strings"
	"testing"
)

// TestSolveSocketsLoopback: a request selecting the sharded executor on
// the sockets transport (no addrs = in-process loopback streams) solves
// through the HTTP path, and /metrics surfaces the measured exchange
// traffic next to the partition's predicted cut cost.
func TestSolveSocketsLoopback(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	code, v := postSolve(t, ts,
		`{"workload":"mpc","spec":{"k":24},"max_iter":60,
		  "executor":{"kind":"sharded","shards":2,"transport":"sockets"}}`)
	if code != 200 || v.Status != StatusDone {
		t.Fatalf("code %d, job %+v", code, v)
	}
	if v.Result == nil || v.Result.Iterations != 60 {
		t.Fatalf("result %+v", v.Result)
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, metric := range []string{"paradmm_shard_bytes_per_iter", "paradmm_shard_cut_cost_words", "paradmm_shard_solves_total 1"} {
		if !strings.Contains(body, metric) {
			t.Errorf("metrics missing %q", metric)
		}
	}
	if strings.Contains(body, "paradmm_shard_bytes_per_iter 0\n") {
		t.Error("sockets solve reported zero exchange bytes")
	}
}

// TestSolveTransportValidation: transport fields are validated at
// admission — a non-sharded executor with a transport is a 400, as is
// an addrs/shards mismatch or a timeout past MaxTransportTimeoutMS.
func TestSolveTransportValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	bad := []string{
		`{"workload":"mpc","spec":{"k":4},"executor":{"kind":"serial","transport":"sockets"}}`,
		`{"workload":"mpc","spec":{"k":4},"executor":{"kind":"sharded","transport":"telepathy"}}`,
		`{"workload":"mpc","spec":{"k":4},"executor":{"kind":"sharded","shards":3,"transport":"sockets","addrs":["unix:/tmp/w0"]}}`,
	}
	for i, body := range bad {
		if code, _ := postSolve(t, ts, body); code != 400 {
			t.Errorf("request %d admitted with code %d", i, code)
		}
	}
	// A handshake bound of ~24.8 days per attempt would hold a pool slot
	// that long against a silent endpoint.
	code, v := postSolve(t, ts, `{"workload":"mpc","spec":{"k":4},"executor":{"kind":"sharded","transport":"sockets","addrs":["unix:/tmp/w0"],"handshake_timeout_ms":2147483647}}`)
	if code != 400 || !strings.Contains(v.Error, "need 0..3600000 ms") {
		t.Errorf("handshake_timeout_ms 2147483647: code %d, error %q; want 400 naming the bound", code, v.Error)
	}
}
