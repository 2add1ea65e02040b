// One route: shard.Solve is the only way a product turns an executor
// spec into a solve, so one killed-worker scenario must read the same
// from all three of them — a direct shard.Solve call, a serve job and a
// bulk record. Under failover "none" each reports the same typed
// worker error; under "survivors" each returns the result, to the last
// bit, of a clean solve on the two surviving workers (and of Serial).
package repro_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/admm"
	"repro/internal/bulk"
	"repro/internal/faultnet"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/workload"
)

const (
	oneRouteSpec    = `{"k":40}`
	oneRouteMaxIter = 30 // three residual-checked blocks at the default period
	oneRouteTol     = 1e-12
)

// oneRouteAnswer is what every route can report about a solve.
type oneRouteAnswer struct {
	Iterations int
	Metrics    map[string]float64
	Err        string
}

// oneRouteExecutor is the wire form of a three-addr sharded spec under
// the given failover policy ("" = a plain serial spec when addrs is
// nil).
func oneRouteExecutor(addrs []string, failover string) string {
	if addrs == nil {
		return `{"kind":"serial"}`
	}
	quoted, _ := json.Marshal(addrs)
	return fmt.Sprintf(`{"kind":"sharded","transport":"sockets","addrs":%s,"failover":%q}`, quoted, failover)
}

var oneRoutes = []struct {
	name  string
	solve func(t *testing.T, executor string) oneRouteAnswer
}{
	{"shard.Solve", func(t *testing.T, executor string) oneRouteAnswer {
		var spec admm.ExecutorSpec
		if err := json.Unmarshal([]byte(executor), &spec); err != nil {
			t.Fatal(err)
		}
		adm, err := workload.Parse("mpc", json.RawMessage(oneRouteSpec))
		if err != nil {
			t.Fatal(err)
		}
		prob, err := adm.Build()
		if err != nil {
			t.Fatal(err)
		}
		prob.Reset()
		spec.Problem = &admm.ProblemRef{Workload: "mpc", Spec: []byte(oneRouteSpec)}
		out, err := shard.Solve(context.Background(), prob.FactorGraph(), admm.SolveOptions{
			Executor: spec, MaxIter: oneRouteMaxIter, AbsTol: oneRouteTol, RelTol: oneRouteTol,
		})
		if err != nil {
			return oneRouteAnswer{Err: err.Error()}
		}
		return oneRouteAnswer{Iterations: out.Result.Iterations, Metrics: prob.Metrics()}
	}},
	{"serve job", func(t *testing.T, executor string) oneRouteAnswer {
		srv := serve.New(serve.Config{Workers: 1})
		ts := httptest.NewServer(srv.Handler())
		defer func() {
			ts.Close()
			srv.Close()
		}()
		body := fmt.Sprintf(`{"workload":"mpc","spec":%s,"max_iter":%d,"abs_tol":%g,"rel_tol":%g,"executor":%s}`,
			oneRouteSpec, oneRouteMaxIter, oneRouteTol, oneRouteTol, executor)
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var job serve.JobView
		if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
			t.Fatal(err)
		}
		if job.Result == nil {
			return oneRouteAnswer{Err: job.Error}
		}
		return oneRouteAnswer{Iterations: job.Result.Iterations, Metrics: job.Result.Metrics}
	}},
	{"bulk record", func(t *testing.T, executor string) oneRouteAnswer {
		in := fmt.Sprintf(`{"workload":"mpc","spec":%s,"max_iter":%d,"abs_tol":%g,"rel_tol":%g,"executor":%s}`+"\n",
			oneRouteSpec, oneRouteMaxIter, oneRouteTol, oneRouteTol, executor)
		var out bytes.Buffer
		if _, err := bulk.Run(context.Background(), strings.NewReader(in), &out, bulk.Options{Workers: 1}); err != nil {
			t.Fatal(err)
		}
		var rec bulk.Result
		if err := json.Unmarshal(out.Bytes(), &rec); err != nil {
			t.Fatalf("bad result line %q: %v", out.String(), err)
		}
		return oneRouteAnswer{Iterations: rec.Iterations, Metrics: rec.Metrics, Err: rec.Error}
	}},
}

// oneRouteVictims starts three workers, the last rigged as in
// TestFailoverSurvivorConformance: its control stream dies after two
// inbound frames (Cfg and State land; the first Iter trips it) and it
// refuses every connection afterwards, so a health probe finds it dead.
func oneRouteVictims(t *testing.T) []string {
	victim := func(i int) faultnet.Plan {
		if i == 0 {
			return faultnet.Plan{In: faultnet.Cut{AfterFrames: 2}}
		}
		return faultnet.Plan{Refuse: true}
	}
	addrs, _ := startScriptedWorkers(t, []faultnet.Script{nil, nil, victim})
	return addrs
}

func TestOneRouteWorkerLoss(t *testing.T) {
	// References, through the first route: Serial, and a clean solve on
	// two workers — the partition the survivors end up with.
	serial := oneRoutes[0].solve(t, oneRouteExecutor(nil, ""))
	cleanAddrs, _ := startScriptedWorkers(t, []faultnet.Script{nil, nil})
	clean := oneRoutes[0].solve(t, oneRouteExecutor(cleanAddrs, admm.FailoverNone))
	if serial.Err != "" || clean.Err != "" {
		t.Fatalf("reference solves failed: serial %q, clean two-worker %q", serial.Err, clean.Err)
	}
	if !reflect.DeepEqual(serial, clean) {
		t.Fatalf("clean two-worker solve differs from serial:\n%+v\n%+v", clean, serial)
	}

	for _, route := range oneRoutes {
		t.Run(route.name+"/none", func(t *testing.T) {
			addrs := oneRouteVictims(t)
			got := route.solve(t, oneRouteExecutor(addrs, admm.FailoverNone))
			// The typed part of the text — worker index, endpoint,
			// protocol phase — must be the same on every route, and name
			// the victim rather than a survivor that merely relayed the
			// loss. The cause after it is the kernel's word (EOF or a
			// reset, with ephemeral ports) and is not compared.
			parts := strings.SplitN(strings.ReplaceAll(got.Err, addrs[2], "<victim>"), ": ", 3)
			if len(parts) != 3 || parts[0] != "shard" || parts[1] != "worker 2 (<victim>) collect" {
				t.Fatalf("error %q, want the typed loss of worker 2 in the collect phase", got.Err)
			}
		})
		t.Run(route.name+"/survivors", func(t *testing.T) {
			got := route.solve(t, oneRouteExecutor(oneRouteVictims(t), admm.FailoverSurvivors))
			if !reflect.DeepEqual(got, clean) {
				t.Fatalf("survivor result differs from the clean two-worker solve:\n got %+v\nwant %+v", got, clean)
			}
		})
	}
}
