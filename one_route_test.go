// One route: workload.Solve is the only way a product turns an admitted
// job into a solve, and shard.Solve the only way it runs one, so a
// request must read the same from all four — a direct shard.Solve
// call, a workload.Solve call, a serve job and a bulk record. In one
// killed-worker scenario, under failover "none" each reports the same
// typed worker error; under "survivors" each returns the result, to the
// last bit, of a clean solve on the two surviving workers (and of
// Serial). A tolerance-free request runs as one fixed-count block on
// every route, so each ends on the same bits.
package repro_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
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
	"repro/internal/store"
	"repro/internal/workload"
)

// oneRouteCase is one request every route solves.
type oneRouteCase struct {
	workload, spec string
	maxIter        int
	tol            float64 // abs_tol and rel_tol; 0 = none
}

// lossCase runs four residual-checked blocks: iteration 1, then three
// at the default period.
var lossCase = oneRouteCase{"mpc", `{"k":40}`, 30, 1e-12}

// fixedCase is tolerance-free. Checked, in blocks ending at iterations
// 1, 10, 20, …, it ends on other Z bits than as one fixed-count block.
var fixedCase = oneRouteCase{"svm", `{"n":40,"lambda":0.5,"seed":1}`, 3000, 0}

// body is the case as a serve request or a bulk record.
func (c oneRouteCase) body(executor string) string {
	return fmt.Sprintf(`{"workload":%q,"spec":%s,"max_iter":%d,"abs_tol":%g,"rel_tol":%g,"executor":%s}`,
		c.workload, c.spec, c.maxIter, c.tol, c.tol, executor)
}

// job admits the case as workload.Solve takes it.
func (c oneRouteCase) job(t *testing.T, executor string) workload.Job {
	t.Helper()
	job := workload.Job{Spec: json.RawMessage(c.spec), MaxIter: c.maxIter, AbsTol: c.tol, RelTol: c.tol}
	if err := json.Unmarshal([]byte(executor), &job.Executor); err != nil {
		t.Fatal(err)
	}
	var err error
	if job.Admission, err = workload.Parse(c.workload, job.Spec); err != nil {
		t.Fatal(err)
	}
	return job
}

// solveDirect is the route below workload.Solve: build, Reset, attach
// the problem reference, and one shard.Solve with no hook — the shape
// serve's solves took before workload.Solve. It returns the problem for
// state checks.
func (c oneRouteCase) solveDirect(t *testing.T, executor string) (oneRouteAnswer, workload.Problem) {
	job := c.job(t, executor)
	prob, err := job.Build()
	if err != nil {
		t.Fatal(err)
	}
	prob.Reset()
	spec := job.Executor
	spec.Problem = &admm.ProblemRef{Workload: c.workload, Spec: job.Spec}
	out, err := shard.Solve(context.Background(), prob.FactorGraph(), admm.SolveOptions{
		Executor: spec, MaxIter: c.maxIter, AbsTol: c.tol, RelTol: c.tol,
	})
	if err != nil {
		return oneRouteAnswer{Err: err.Error()}, prob
	}
	return oneRouteAnswer{Iterations: out.Result.Iterations, Metrics: prob.Metrics()}, prob
}

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
	solve func(t *testing.T, c oneRouteCase, executor string) oneRouteAnswer
}{
	{"shard.Solve", func(t *testing.T, c oneRouteCase, executor string) oneRouteAnswer {
		got, _ := c.solveDirect(t, executor)
		return got
	}},
	{"workload.Solve", func(t *testing.T, c oneRouteCase, executor string) oneRouteAnswer {
		out, err := workload.Solve(context.Background(), c.job(t, executor), nil, workload.Env{})
		if err != nil {
			return oneRouteAnswer{Err: err.Error()}
		}
		return oneRouteAnswer{Iterations: out.Result.Iterations, Metrics: workload.MetricMap(out.Metrics)}
	}},
	{"serve job", func(t *testing.T, c oneRouteCase, executor string) oneRouteAnswer {
		srv := serve.New(serve.Config{Workers: 1})
		ts := httptest.NewServer(srv.Handler())
		defer func() {
			ts.Close()
			srv.Close()
		}()
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(c.body(executor)))
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
	{"bulk record", func(t *testing.T, c oneRouteCase, executor string) oneRouteAnswer {
		rec := solveBulkRecord(t, c.body(executor), nil)
		return oneRouteAnswer{Iterations: rec.Iterations, Metrics: rec.Metrics.Map(), Err: rec.Error}
	}},
}

// solveBulkRecord runs one record through a one-worker bulk stream,
// persisting its chain to st when st is non-nil.
func solveBulkRecord(t *testing.T, record string, st bulk.SolutionStore) bulk.Result {
	t.Helper()
	var out bytes.Buffer
	if _, err := bulk.Run(context.Background(), strings.NewReader(record+"\n"), &out, bulk.Options{Workers: 1, Store: st}); err != nil {
		t.Fatal(err)
	}
	var rec bulk.Result
	if err := json.Unmarshal(out.Bytes(), &rec); err != nil {
		t.Fatalf("bad result line %q: %v", out.String(), err)
	}
	return rec
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
	serial := oneRoutes[0].solve(t, lossCase, oneRouteExecutor(nil, ""))
	cleanAddrs, _ := startScriptedWorkers(t, []faultnet.Script{nil, nil})
	clean := oneRoutes[0].solve(t, lossCase, oneRouteExecutor(cleanAddrs, admm.FailoverNone))
	if serial.Err != "" || clean.Err != "" {
		t.Fatalf("reference solves failed: serial %q, clean two-worker %q", serial.Err, clean.Err)
	}
	if !reflect.DeepEqual(serial, clean) {
		t.Fatalf("clean two-worker solve differs from serial:\n%+v\n%+v", clean, serial)
	}

	for _, route := range oneRoutes {
		t.Run(route.name+"/none", func(t *testing.T) {
			addrs := oneRouteVictims(t)
			got := route.solve(t, lossCase, oneRouteExecutor(addrs, admm.FailoverNone))
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
			got := route.solve(t, lossCase, oneRouteExecutor(oneRouteVictims(t), admm.FailoverSurvivors))
			if !reflect.DeepEqual(got, clean) {
				t.Fatalf("survivor result differs from the clean two-worker solve:\n got %+v\nwant %+v", got, clean)
			}
		})
	}
}

// memStore is an in-memory bulk.SolutionStore.
type memStore map[string]store.Snapshot

func (m memStore) Get(key string) (store.Snapshot, bool)  { s, ok := m[key]; return s, ok }
func (m memStore) Put(key string, s store.Snapshot) error { m[key] = s; return nil }

// TestOneRouteFixedCount: a tolerance-free request is one fixed-count
// block on every route. Every route reports the same answer, a bulk
// record persists to the store exactly the state the hook-free direct
// solve ends on, and workload.Solve reports no residuals.
func TestOneRouteFixedCount(t *testing.T) {
	serial := oneRouteExecutor(nil, "")
	want, prob := fixedCase.solveDirect(t, serial)
	if want.Err != "" || want.Iterations != fixedCase.maxIter {
		t.Fatalf("direct solve: %+v, want %d iterations", want, fixedCase.maxIter)
	}
	for _, route := range oneRoutes[1:] {
		if got := route.solve(t, fixedCase, serial); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %+v, want the direct solve's %+v", route.name, got, want)
		}
	}

	var direct admm.WarmState
	direct.Capture(prob.FactorGraph())
	wantBytes, err := direct.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	st := memStore{}
	if rec := solveBulkRecord(t, fixedCase.body(serial), st); rec.Error != "" {
		t.Fatal(rec.Error)
	}
	job := fixedCase.job(t, serial)
	snap, ok := st[job.Key]
	if !ok {
		t.Fatalf("bulk persisted no chain under %q", job.Key)
	}
	gotBytes, err := snap.Warm.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBytes, wantBytes) {
		t.Fatalf("bulk persisted a %d-byte warm state that differs from the direct solve's %d bytes", len(gotBytes), len(wantBytes))
	}

	out, err := workload.Solve(context.Background(), job, nil, workload.Env{})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(out.Result.Primal) {
		t.Fatalf("tolerance-free solve checked residuals: primal %g", out.Result.Primal)
	}
}

// canceledAtFirstLook is a context that is live when a residual check
// first reads it and canceled from then on.
type canceledAtFirstLook struct {
	context.Context
	cancel context.CancelFunc
	looked bool
}

func (c *canceledAtFirstLook) Err() error {
	if !c.looked {
		c.looked = true
		c.cancel()
		return nil
	}
	return c.Context.Err()
}

// TestOneRouteCancelAtNextCheck pins the stop rule: a checked job whose
// ctx is canceled after its first residual check stops at the next
// one, and a tolerance-free job runs its whole budget whatever its ctx.
func TestOneRouteCancelAtNextCheck(t *testing.T) {
	serial := oneRouteExecutor(nil, "")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out, err := workload.Solve(&canceledAtFirstLook{Context: ctx, cancel: cancel}, lossCase.job(t, serial), nil, workload.Env{})
	if err != nil {
		t.Fatal(err)
	}
	// Checks fall after iteration 1, then every 10 iterations: the first
	// passes, the second stops.
	if out.Result.Iterations != 10 || out.Result.Converged {
		t.Fatalf("canceled checked solve ran %d iterations (converged %v), want 10", out.Result.Iterations, out.Result.Converged)
	}

	job := fixedCase.job(t, serial)
	job.MaxIter = 50
	done, cancelNow := context.WithCancel(context.Background())
	cancelNow()
	if out, err = workload.Solve(done, job, nil, workload.Env{}); err != nil {
		t.Fatal(err)
	}
	if out.Result.Iterations != job.MaxIter {
		t.Fatalf("tolerance-free solve under a canceled ctx ran %d iterations, want %d", out.Result.Iterations, job.MaxIter)
	}
}
