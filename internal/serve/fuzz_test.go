package serve

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/admm"
	"repro/internal/workload"
)

// fuzzBuildMaxSize bounds the specs FuzzParseSpec builds: every size
// field (m, p, n, dim, k) at most this, so a build takes microseconds.
const fuzzBuildMaxSize = 8

// FuzzParseSpec drives the admission parsers (strict JSON decoding of
// the four workload specs plus size-cap and parameter validation) with
// arbitrary bytes: no input may panic, and any accepted admission must
// carry a usable cache key. An accepted spec whose sizes are all at
// most fuzzBuildMaxSize is also built, so "admitted means it builds or
// returns an error" is fuzzed, not assumed; larger ones are not, to
// keep the fuzzer fast.
//
// Run as a regression suite by plain `go test` over the seed corpus;
// run `go test -fuzz=FuzzParseSpec ./internal/serve` to explore.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range [][2]string{
		{"lasso", `{"m":64,"blocks":4,"lambda":0.3}`},
		{"lasso", `{"m":-1}`},
		{"lasso", `{"m":1e99}`},
		{"svm", `{"n":200,"dim":2}`},
		{"svm", `{"n":200,"bogus":true}`},
		{"mpc", `{"k":20}`},
		{"mpc", `{"k":4,"q0":[0.1,0,0,0]}`},
		{"mpc", `{"k":4,"q0":[1]}`},
		{"packing", `{"n":10,"seed":7}`},
		{"packing", `{"n":null}`},
		{"lasso", `{`},
		{"mpc", ``},
		{"svm", `[1,2,3]`},
		{"packing", `"n"`},
		{"packing", `{"n":4,"rho":-0.1,"delta":-0.5}`},
		{"packing", `{"n":4,"alpha":-1}`},
		{"mpc", `{"k":4,"rho":-1}`},
		{"lasso", `{"m":8,"rho":-1}`},
		{"svm", `{"n":8,"rho":-1}`},
		{"lasso", `{"m":8,"p":-1}`},
		{"svm", `{"n":8,"dim":-1}`},
		{"svm", `{"n":24,"dim":2,"lambda":-1}`},
		{"lasso", `{"m":32,"lambda":-0.3}`},
		{"lasso", `{"m":32,"blocks":-2}`},
		{"lasso", `{"m":8,"blocks":9}`},
	} {
		f.Add(seed[0], []byte(seed[1]))
	}
	f.Fuzz(func(t *testing.T, name string, raw []byte) {
		adm, err := workload.Parse(name, json.RawMessage(raw))
		if err != nil {
			return
		}
		if adm.Key == "" {
			t.Fatalf("accepted spec %q with empty cache key", raw)
		}
		if adm.Build == nil {
			t.Fatalf("accepted spec %q with nil builder", raw)
		}
		// The parsers decode the first JSON value only; read the sizes
		// the same way, so trailing bytes cannot hide a large spec.
		var size struct{ M, P, N, Dim, K int }
		if json.NewDecoder(bytes.NewReader(raw)).Decode(&size) != nil {
			return
		}
		for _, v := range []int{size.M, size.P, size.N, size.Dim, size.K} {
			if v > fuzzBuildMaxSize {
				return
			}
		}
		if p, err := adm.Build(); err == nil && p.FactorGraph() == nil {
			t.Fatalf("spec %q built a problem without a graph", raw)
		}
	})
}

// FuzzSolveRequestDecode covers the outer request envelope the HTTP
// handler decodes before workload dispatch: arbitrary bodies must
// either fail decoding or produce an executor spec that Validate
// classifies without panicking, and a passing spec's kind must be one
// the executor registry knows.
func FuzzSolveRequestDecode(f *testing.F) {
	f.Add([]byte(`{"workload":"mpc","spec":{"k":4},"executor":{"kind":"sharded","shards":2}}`))
	f.Add([]byte(`{"workload":"lasso","spec":{"m":16},"executor":{"kind":"auto"}}`))
	f.Add([]byte(`{"workload":"lasso","spec":{"m":16},"executor":{"kind":"parallel-for","workers":2}}`))
	f.Add([]byte(`{"workload":"packing","spec":{"n":3},"max_iter":50,"wait":false}`))
	f.Add([]byte(`{"executor":{"kind":"nope"}}`))
	f.Add([]byte(`{"executor":{"kind":"barrier","workers":2}}`))
	f.Add([]byte(`{"workload":1}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		var req SolveRequest
		if err := json.Unmarshal(raw, &req); err != nil {
			return
		}
		if req.Executor.Validate() != nil {
			return
		}
		switch req.Executor.Kind {
		case "", admm.ExecSerial, admm.ExecSharded, admm.ExecAuto:
		default:
			t.Fatalf("Validate accepted unknown kind %q", req.Executor.Kind)
		}
	})
}
