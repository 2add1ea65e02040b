package serve

import (
	"encoding/json"
	"testing"

	"repro/internal/admm"
	"repro/internal/workload"
)

// FuzzParseSpec drives the admission parsers (strict JSON decoding of
// the four workload specs plus size-cap validation) with arbitrary
// bytes: no input may panic, and any accepted admission must carry a
// usable cache key. Build functions are deliberately not run — the
// fuzzer's job is the parsing/validation boundary, which is what faces
// untrusted request bodies.
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
	})
}

// FuzzSolveRequestDecode covers the outer request envelope the HTTP
// handler decodes before workload dispatch: arbitrary bodies must
// either fail decoding or produce an executor spec that Validate
// classifies without panicking, and a passing spec's kind must be one
// the executor registry knows.
func FuzzSolveRequestDecode(f *testing.F) {
	f.Add([]byte(`{"workload":"mpc","spec":{"k":4},"executor":{"kind":"sharded","shards":2}}`))
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
		case "", admm.ExecSerial, admm.ExecParallelFor, admm.ExecAsync, admm.ExecSharded:
		default:
			t.Fatalf("Validate accepted unknown kind %q", req.Executor.Kind)
		}
	})
}
