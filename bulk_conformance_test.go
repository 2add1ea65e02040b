// Bulk-pipeline conformance: a shuffled stream mixing all four
// workloads must behave exactly like the per-spec solve path. Cold
// records (first of each shape) are checked bit-identically against a
// direct admm.Solve through the same admission layer — same iteration
// count, same quality metrics to the last bit. Warm records must land
// within the async-executor tolerance of the cold result while
// converging in strictly fewer iterations: the warm start changes where
// the iteration begins, never what it converges to.
package repro_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/admm"
	"repro/internal/bulk"
	"repro/internal/workload"
)

// bulkConfCase is one workload at conformance scale: the wire spec the
// stream carries, the metric compared across warm records, and its
// tolerance (packing is nonconvex — different starting points reach
// different, comparable-quality packings; the convex three must agree
// tightly).
var bulkConfCases = []struct {
	workload string
	spec     string
	metric   string
	tol      float64
}{
	{"lasso", `{"m":48,"lambda":0.3}`, "objective", 0.05},
	{"svm", `{"n":40}`, "hinge_objective", 0.05},
	{"mpc", `{"k":12}`, "cost", 0.05},
	{"packing", `{"n":5}`, "coverage", 0.30},
}

const (
	bulkConfMaxIter = 30000
	bulkConfTol     = 1e-5
	bulkConfRepeats = 3
)

func TestBulkConformance(t *testing.T) {
	// Three records per workload, deterministically shuffled so shapes
	// interleave on the stream (the pipeline's per-shape dispatch has to
	// untangle them).
	type rec struct{ caseIdx int }
	var order []rec
	for i := range bulkConfCases {
		for r := 0; r < bulkConfRepeats; r++ {
			order = append(order, rec{i})
		}
	}
	rand.New(rand.NewSource(2)).Shuffle(len(order), func(i, j int) {
		order[i], order[j] = order[j], order[i]
	})

	var in bytes.Buffer
	for _, o := range order {
		c := bulkConfCases[o.caseIdx]
		fmt.Fprintf(&in, `{"workload":"%s","spec":%s,"max_iter":%d,"abs_tol":%g,"rel_tol":%g}`+"\n",
			c.workload, c.spec, bulkConfMaxIter, bulkConfTol, bulkConfTol)
	}

	var out bytes.Buffer
	stats, err := bulk.Run(context.Background(), bytes.NewReader(in.Bytes()), &out, bulk.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(len(order)); stats.Results != want || stats.Solved != want {
		t.Fatalf("stats = %+v, want %d results all solved", stats, want)
	}
	if stats.WarmStarts != uint64(len(bulkConfCases)*(bulkConfRepeats-1)) {
		t.Fatalf("stats = %+v: every record after the first of a shape must warm-start", stats)
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
	if len(results) != len(order) {
		t.Fatalf("got %d results, want %d", len(results), len(order))
	}

	// Reference: the same specs through the same admission layer, one
	// fresh cold solve each — what a per-request /v1/solve would run.
	type reference struct {
		iterations int
		metrics    map[string]float64
	}
	refs := map[string]reference{}
	for _, c := range bulkConfCases {
		adm, err := workload.Parse(c.workload, json.RawMessage(c.spec))
		if err != nil {
			t.Fatal(err)
		}
		prob, err := adm.Build()
		if err != nil {
			t.Fatal(err)
		}
		prob.Reset()
		res, err := admm.Solve(prob.FactorGraph(), admm.SolveOptions{
			MaxIter: bulkConfMaxIter, AbsTol: bulkConfTol, RelTol: bulkConfTol,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("%s reference did not converge in %d iterations", c.workload, res.Iterations)
		}
		refs[c.workload] = reference{res.Iterations, prob.Metrics()}
	}

	seenCold := map[string]bool{}
	for i, res := range results {
		c := bulkConfCases[order[i].caseIdx]
		if res.Error != "" {
			t.Fatalf("record %d (%s) failed: %s", i, c.workload, res.Error)
		}
		if !res.Converged {
			t.Fatalf("record %d (%s) did not converge in %d iterations", i, c.workload, res.Iterations)
		}
		ref := refs[c.workload]
		if !seenCold[c.workload] {
			seenCold[c.workload] = true
			if res.Warm {
				t.Fatalf("record %d is the first of %s but marked warm", i, c.workload)
			}
			// Cold through the pipeline IS the per-spec solve: identical
			// iteration count and bit-identical quality metrics.
			if res.Iterations != ref.iterations {
				t.Errorf("%s cold: %d iterations via pipeline, %d via admm.Solve", c.workload, res.Iterations, ref.iterations)
			}
			if len(res.Metrics) != len(ref.metrics) {
				t.Errorf("%s cold: metrics %v vs reference %v", c.workload, res.Metrics, ref.metrics)
			}
			for k, want := range ref.metrics {
				if got, ok := res.Metrics.Map()[k]; !ok || got != want {
					t.Errorf("%s cold: metric %s = %v via pipeline, %v via admm.Solve", c.workload, k, got, want)
				}
			}
			continue
		}
		if !res.Warm {
			t.Fatalf("record %d repeats %s but is not warm-started", i, c.workload)
		}
		if res.Iterations >= ref.iterations {
			t.Errorf("%s warm record %d took %d iterations, cold reference %d — warm start bought nothing",
				c.workload, i, res.Iterations, ref.iterations)
		}
		want := ref.metrics[c.metric]
		got, ok := res.Metrics.Map()[c.metric]
		if !ok {
			t.Fatalf("%s warm record %d missing metric %s: %v", c.workload, i, c.metric, res.Metrics)
		}
		if rel := math.Abs(got-want) / math.Max(1, math.Abs(want)); rel > c.tol {
			t.Errorf("%s warm record %d: %s = %g vs cold %g (relative gap %.3f > %.3f)",
				c.workload, i, c.metric, got, want, rel, c.tol)
		}
	}
}
