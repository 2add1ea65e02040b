// A converged warm start costs one iteration: a checked solve tests
// its residuals after its first iteration, so a record that starts from
// a state already meeting its tolerances stops there on every executor.
package repro_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"repro/internal/admm"
	"repro/internal/faultnet"
	"repro/internal/workload"
)

// TestWarmConvergedStopsAfterOneIteration: for each workload at a
// bulk.Generate size and tolerance, a cold solve to convergence is
// captured, then re-solved warm through workload.Solve on the serial
// executor, two local shards, two loopback sockets shards and a Remote
// over two in-process workers. Each re-solve runs one iteration and
// converges, and ends on serial's X, U and Z bits.
func TestWarmConvergedStopsAfterOneIteration(t *testing.T) {
	addrs, _ := startScriptedWorkers(t, []faultnet.Script{nil, nil})
	quoted, _ := json.Marshal(addrs)
	executors := []struct{ name, spec string }{
		{"serial", `{"kind":"serial"}`},
		{"sharded-2", `{"kind":"sharded","shards":2}`},
		{"sockets-2", `{"kind":"sharded","shards":2,"transport":"sockets"}`},
		{"remote-2", fmt.Sprintf(`{"kind":"sharded","transport":"sockets","addrs":%s}`, quoted)},
	}
	for _, c := range []oneRouteCase{
		{"lasso", `{"m":32,"lambda":0.3}`, 2000, 1e-4},
		{"svm", `{"n":24,"dim":2}`, 2000, 1e-4},
		{"mpc", `{"k":8}`, 2000, 1e-4},
		{"packing", `{"n":4,"seed":3}`, 2000, 1e-4},
	} {
		cold, err := workload.Solve(context.Background(), c.job(t, executors[0].spec), nil, workload.Env{})
		if err != nil {
			t.Fatal(err)
		}
		if !cold.Result.Converged || cold.Result.Iterations < 2 {
			t.Fatalf("%s: cold solve %d iterations, converged %v; want a converged multi-iteration solve",
				c.workload, cold.Result.Iterations, cold.Result.Converged)
		}
		var warm admm.WarmState
		if !warm.Capture(cold.Problem.FactorGraph()) {
			t.Fatalf("%s: cold solve's state not captured", c.workload)
		}
		var want [3][]float64
		for i, ex := range executors {
			job := c.job(t, ex.spec)
			job.Warm = &warm
			out, err := workload.Solve(context.Background(), job, nil, workload.Env{})
			if err != nil {
				t.Fatalf("%s/%s: %v", c.workload, ex.name, err)
			}
			if !out.Warm || out.Result.Iterations != 1 || !out.Result.Converged {
				t.Errorf("%s/%s: warm %v, %d iterations, converged %v; want a warm solve converged after 1",
					c.workload, ex.name, out.Warm, out.Result.Iterations, out.Result.Converged)
			}
			g := out.Problem.FactorGraph()
			got := [3][]float64{g.X, g.U, g.Z}
			if i == 0 {
				want = got
				continue
			}
			for k, name := range []string{"X", "U", "Z"} {
				for n, v := range got[k] {
					if math.Float64bits(v) != math.Float64bits(want[k][n]) {
						t.Fatalf("%s/%s: %s[%d] = %v, serial %v", c.workload, ex.name, name, n, v, want[k][n])
					}
				}
			}
		}
	}
}
