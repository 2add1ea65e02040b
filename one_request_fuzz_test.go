// One request, one verdict, one answer: the same request bytes, as a
// /v1/solve body, a /v1/bulk line and a bulk.Run line, must be admitted
// on all three routes or refused on all three, and an admitted request
// must end on the same iterations, convergence and metric bits on each.
package repro_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"repro/internal/admm"
	"repro/internal/bulk"
	"repro/internal/serve"
	"repro/internal/workload"
)

// requestAnswer is what every route reports about one request: whether
// it solved, and if so how the solve stopped and its metrics.
type requestAnswer struct {
	OK         bool
	Iterations int
	Converged  bool
	Metrics    map[string]float64
	Err        string // the refusal or failure, for the report only
}

// sameAnswer reports whether a and b give one verdict and, when both
// solved, one answer to the last metric bit.
func sameAnswer(a, b requestAnswer) bool {
	if a.OK != b.OK {
		return false
	}
	if !a.OK {
		return true
	}
	if a.Iterations != b.Iterations || a.Converged != b.Converged || len(a.Metrics) != len(b.Metrics) {
		return false
	}
	for name, v := range a.Metrics {
		w, ok := b.Metrics[name]
		if !ok || math.Float64bits(v) != math.Float64bits(w) {
			return false
		}
	}
	return true
}

// fuzzSizeCap bounds every size field of a fuzzed spec, so an admitted
// request solves in well under a millisecond per route.
const fuzzSizeCap = 32

// fieldRequest builds a request from fuzz fields: a workload, a spec
// size (0..32, so some are refused), an executor (none, serial,
// sharded-2 local, or one of two that no route admits), a budget of
// 1..200 iterations and a tolerance (0 = a fixed-count solve).
func fieldRequest(wl, size, exec, maxIter uint8, tol float64) []byte {
	n := int(size) % (fuzzSizeCap + 1)
	spec := [...]string{
		fmt.Sprintf(`{"m":%d,"lambda":0.3}`, n),
		fmt.Sprintf(`{"k":%d}`, n),
		fmt.Sprintf(`{"n":%d}`, n),
		fmt.Sprintf(`{"n":%d,"lambda":0.5}`, n),
	}
	executor := [...]string{
		``,
		`,"executor":{"kind":"serial"}`,
		`,"executor":{"kind":"sharded","shards":2}`,
		`,"executor":{"kind":"serial","shards":2}`,
		`,"executor":{"kind":"sharded","fused":false}`,
	}
	i := int(wl) % len(spec)
	body := fmt.Sprintf(`{"workload":%q,"spec":%s%s,"max_iter":%d`,
		[...]string{"lasso", "mpc", "packing", "svm"}[i], spec[i], executor[int(exec)%len(executor)], 1+int(maxIter)%200)
	if tol != 0 {
		t := strconv.FormatFloat(tol, 'g', -1, 64)
		body += `,"abs_tol":` + t + `,"rel_tol":` + t
	}
	return []byte(body + "}")
}

// outOfScope reports whether raw is a request this check leaves out:
// one that is not a single line (bulk frames by newline) or is blank
// (bulk skips blank lines); one naming the envelope-only fields id or
// wait; one whose executor reaches worker processes or sockets; one
// with a spec size field past fuzzSizeCap; or one with a budget past
// 200 that the routes admit (0 runs DefaultMaxIter). A request the
// first-object decode cannot read is in scope: every route refuses it.
func outOfScope(raw []byte) bool {
	if bytes.IndexByte(raw, '\n') >= 0 || len(bytes.TrimSpace(raw)) == 0 {
		return true
	}
	var probe struct {
		ID       json.RawMessage `json:"id"`
		Wait     json.RawMessage `json:"wait"`
		Spec     json.RawMessage `json:"spec"`
		Executor json.RawMessage `json:"executor"`
		MaxIter  int             `json:"max_iter"`
	}
	if json.NewDecoder(bytes.NewReader(raw)).Decode(&probe) != nil {
		return false
	}
	if probe.ID != nil || probe.Wait != nil {
		return true
	}
	if probe.MaxIter == 0 || probe.MaxIter > 200 && probe.MaxIter <= workload.MaxIterLimit {
		return true
	}
	var exec admm.ExecutorSpec
	if probe.Executor != nil && json.Unmarshal(probe.Executor, &exec) == nil &&
		(exec.Transport == admm.TransportSockets || len(exec.Addrs) > 0) {
		return true
	}
	var sizes struct{ M, P, Nonzeros, Blocks, N, Dim, K int }
	if probe.Spec != nil && json.Unmarshal(probe.Spec, &sizes) == nil {
		for _, v := range []int{sizes.M, sizes.P, sizes.Nonzeros, sizes.Blocks, sizes.N, sizes.Dim, sizes.K} {
			if v > fuzzSizeCap {
				return true
			}
		}
	}
	return false
}

// solveRoute posts body to /v1/solve and waits for the reply.
func solveRoute(t *testing.T, url string, body []byte) requestAnswer {
	resp, err := http.Post(url+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var job serve.JobView
	if resp.StatusCode != http.StatusOK || json.Unmarshal(reply, &job) != nil || job.Result == nil {
		return requestAnswer{Err: fmt.Sprintf("%d %s", resp.StatusCode, reply)}
	}
	r := job.Result
	return requestAnswer{OK: true, Iterations: r.Iterations, Converged: r.Converged, Metrics: r.Metrics}
}

// recordAnswer reads the one result record a one-line stream wrote.
func recordAnswer(t *testing.T, out []byte) requestAnswer {
	var rec bulk.Result
	if err := json.Unmarshal(out, &rec); err != nil {
		t.Fatalf("bad result stream %q: %v", out, err)
	}
	if rec.Error != "" {
		return requestAnswer{Err: rec.Error}
	}
	return requestAnswer{OK: true, Iterations: rec.Iterations, Converged: rec.Converged, Metrics: rec.Metrics.Map()}
}

// bulkHTTPRoute posts body as a one-line stream to /v1/bulk.
func bulkHTTPRoute(t *testing.T, url string, body []byte) requestAnswer {
	resp, err := http.Post(url+"/v1/bulk", "application/x-ndjson", bytes.NewReader(append(body, '\n')))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return recordAnswer(t, out)
}

// bulkRunRoute runs body as a one-line stream through bulk.Run.
func bulkRunRoute(t *testing.T, body []byte) requestAnswer {
	var out bytes.Buffer
	in := bytes.NewReader(append(body, '\n'))
	if _, err := bulk.Run(context.Background(), in, &out, bulk.Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	return recordAnswer(t, out.Bytes())
}

// FuzzOneRequest feeds one request, raw or built from fuzz fields (raw
// empty), through /v1/solve, /v1/bulk and bulk.Run. Every route must
// give the same verdict, and an admitted request the same answer. A
// request built on sharded-2 must also answer as it does on serial.
func FuzzOneRequest(f *testing.F) {
	srv := serve.New(serve.Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	f.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	for _, raw := range []string{
		`{"workload":"mpc","spec":{"k":3},"max_iter":50}`,
		`{"workload":"lasso","spec":{"m":16,"lambda":0.3},"executor":{"kind":"sharded","shards":2},"max_iter":40,"abs_tol":1e-4,"rel_tol":1e-4}`,
		`{"workload":"svm","spec":{"n":12},"executor":{"kind":"auto"},"max_iter":30}`,
		`{"workload":"packing","spec":{"n":3},"executor":{"kind":"serial","fused":false},"max_iter":20}`,
		`{"workload":"mpc","spec":{"k":3},"max_iter":200001}`,
		`{"workload":"mpc","spec":{"k":3,"rho":-1},"max_iter":5}`,
		`{"workload":"mpc","spec":{"k":3},"max_iter":5,"abs_tol":-1}`,
		`{"workload":"mpc","spec":{"k":3},"executor":{"kind":"gpu"},"max_iter":5}`,
		` {"workload":"MPC","spec":{"k":2},"max_iter":7} `,
	} {
		f.Add([]byte(raw), uint8(0), uint8(0), uint8(0), uint8(0), 0.0)
	}
	f.Add([]byte(nil), uint8(0), uint8(12), uint8(2), uint8(59), 1e-6)
	f.Add([]byte(nil), uint8(1), uint8(20), uint8(2), uint8(99), 0.0)
	f.Add([]byte(nil), uint8(2), uint8(4), uint8(1), uint8(39), 1e-3)
	f.Add([]byte(nil), uint8(1), uint8(3), uint8(2), uint8(199), 1e-2)
	f.Add([]byte(nil), uint8(3), uint8(16), uint8(0), uint8(79), 0.0)
	f.Add([]byte(nil), uint8(1), uint8(0), uint8(3), uint8(9), -1.0)
	f.Fuzz(func(t *testing.T, raw []byte, wl, size, exec, maxIter uint8, tol float64) {
		body := raw
		if len(raw) == 0 {
			body = fieldRequest(wl, size, exec, maxIter, tol)
		}
		if outOfScope(body) {
			t.Skip("out of scope")
		}
		routes := [...]struct {
			name string
			got  requestAnswer
		}{
			{"/v1/solve", solveRoute(t, ts.URL, body)},
			{"/v1/bulk", bulkHTTPRoute(t, ts.URL, body)},
			{"bulk.Run", bulkRunRoute(t, body)},
		}
		for _, r := range routes[1:] {
			if !sameAnswer(routes[0].got, r.got) {
				t.Fatalf("request %s:\n%s: %+v\n%s: %+v", body, routes[0].name, routes[0].got, r.name, r.got)
			}
		}
		if len(raw) == 0 && int(exec)%5 == 2 && routes[0].got.OK {
			serial := bulkRunRoute(t, fieldRequest(wl, size, 1, maxIter, tol))
			if !sameAnswer(routes[0].got, serial) {
				t.Fatalf("request %s: sharded-2 %+v, serial %+v", body, routes[0].got, serial)
			}
		}
	})
}
