// Store restart conformance: the persistent solution store must change
// how fast a restarted pipeline converges, never what it converges to.
// One record per workload runs through two pipeline "processes" sharing
// a store directory (the store is closed and reopened between them,
// exactly a restart). The first run is cold and must be bit-identical
// to a direct admm.Solve through the same admission layer; the second
// run's records — including the first of every shape — must seed from
// the store, converge in strictly fewer iterations, and land within the
// per-workload tolerance of the cold objective.
package repro_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"repro/internal/admm"
	"repro/internal/bulk"
	"repro/internal/store"
	"repro/internal/workload"
)

func TestStoreRestartConformance(t *testing.T) {
	dir := t.TempDir()

	var in bytes.Buffer
	for _, c := range bulkConfCases {
		fmt.Fprintf(&in, `{"workload":"%s","spec":%s,"max_iter":%d,"abs_tol":%g,"rel_tol":%g}`+"\n",
			c.workload, c.spec, bulkConfMaxIter, bulkConfTol, bulkConfTol)
	}

	// One pipeline run = one process lifetime: open the store, stream,
	// close. Nothing but the directory survives between calls.
	runOnce := func() (bulk.Stats, []bulk.Result) {
		t.Helper()
		st, err := store.Open(store.Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		var out bytes.Buffer
		stats, err := bulk.Run(context.Background(), bytes.NewReader(in.Bytes()), &out,
			bulk.Options{Workers: 2, Store: st})
		if err != nil {
			t.Fatal(err)
		}
		var results []bulk.Result
		sc := bufio.NewScanner(bytes.NewReader(out.Bytes()))
		for sc.Scan() {
			var r bulk.Result
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				t.Fatalf("bad result line %q: %v", sc.Text(), err)
			}
			results = append(results, r)
		}
		if len(results) != len(bulkConfCases) {
			t.Fatalf("got %d results, want %d", len(results), len(bulkConfCases))
		}
		return stats, results
	}

	cold, coldResults := runOnce()
	if cold.Errors != 0 || cold.StoreHits != 0 || cold.StoreSaves != uint64(len(bulkConfCases)) {
		t.Fatalf("cold run stats = %+v: want zero hits and one save per shape", cold)
	}

	// Cold through the store-backed pipeline IS the per-spec solve:
	// identical iteration count and bit-identical metrics against a
	// fresh admm.Solve of the same admitted problem.
	for i, res := range coldResults {
		c := bulkConfCases[i]
		if res.Error != "" || !res.Converged {
			t.Fatalf("cold record %d (%s) = %+v, want a clean converged solve", i, c.workload, res)
		}
		if res.Warm {
			t.Fatalf("cold record %d (%s) marked warm on an empty store", i, c.workload)
		}
		adm, err := workload.Parse(c.workload, json.RawMessage(c.spec))
		if err != nil {
			t.Fatal(err)
		}
		prob, err := adm.Build()
		if err != nil {
			t.Fatal(err)
		}
		prob.Reset()
		ref, err := admm.Solve(prob.FactorGraph(), admm.SolveOptions{
			MaxIter: bulkConfMaxIter, AbsTol: bulkConfTol, RelTol: bulkConfTol,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Iterations != ref.Iterations {
			t.Errorf("%s cold: %d iterations via store-backed pipeline, %d via admm.Solve",
				c.workload, res.Iterations, ref.Iterations)
		}
		for k, want := range prob.Metrics() {
			if got, ok := res.Metrics.Map()[k]; !ok || got != want {
				t.Errorf("%s cold: metric %s = %v via pipeline, %v via admm.Solve", c.workload, k, got, want)
			}
		}
	}

	warm, warmResults := runOnce()
	if warm.Errors != 0 || warm.StoreHits != uint64(len(bulkConfCases)) || warm.StoreMisses != 0 {
		t.Fatalf("restarted run stats = %+v: want every shape to seed from the store", warm)
	}
	for i, res := range warmResults {
		c := bulkConfCases[i]
		if res.Error != "" || !res.Converged {
			t.Fatalf("restarted record %d (%s) = %+v, want a clean converged solve", i, c.workload, res)
		}
		if !res.Warm {
			t.Fatalf("restarted record %d (%s) is not warm — the store seed did not take", i, c.workload)
		}
		coldRes := coldResults[i]
		if res.Iterations >= coldRes.Iterations {
			t.Errorf("%s restarted: %d iterations, cold %d — the persisted chain bought nothing",
				c.workload, res.Iterations, coldRes.Iterations)
		}
		want := coldRes.Metrics.Map()[c.metric]
		got, ok := res.Metrics.Map()[c.metric]
		if !ok {
			t.Fatalf("%s restarted record missing metric %s: %v", c.workload, c.metric, res.Metrics)
		}
		if rel := math.Abs(got-want) / math.Max(1, math.Abs(want)); rel > c.tol {
			t.Errorf("%s restarted: %s = %g vs cold %g (relative gap %.3f > %.3f)",
				c.workload, c.metric, got, want, rel, c.tol)
		}
	}
}
