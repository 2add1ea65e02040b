package bulk

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/admm"
	"repro/internal/graph"
	"repro/internal/prox"
	"repro/internal/workload"
)

// flushProblem is one variable shared by two prox.Identity nodes at
// alpha 0.3: x = n = z - u, z stays 0 and each u shrinks by 0.7 per
// iteration. Reset starts u at six times the smallest subnormal, so
// the flush after the first iteration zeroes it and leaves n = -u
// stale. A record that read the stale n would carry it through x = n
// into every metric.
type flushProblem struct{ g *graph.Graph }

func newFlushProblem(t *testing.T) flushProblem {
	t.Helper()
	g := graph.New(1)
	g.AddNode(prox.Identity{}, 0)
	g.AddNode(prox.Identity{}, 0)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	g.SetUniformParams(1, 0.3)
	return flushProblem{g}
}

func (p flushProblem) FactorGraph() *graph.Graph { return p.g }
func (p flushProblem) Bytes() int64              { return p.g.Bytes() }
func (p flushProblem) Reset() {
	p.g.InitZero()
	for e := range p.g.U {
		p.g.U[e] = 6 * 0x1p-1074
		p.g.N[e] = -p.g.U[e]
	}
}
func (p flushProblem) AppendMetrics(dst []workload.Metric) []workload.Metric {
	return append(dst, workload.Metric{Name: "x0", Value: p.g.X[0]}, workload.Metric{Name: "x1", Value: p.g.X[1]},
		workload.Metric{Name: "z", Value: p.g.Z[0]})
}
func (p flushProblem) Metrics() map[string]float64 { return workload.MetricMap(p.AppendMetrics(nil)) }

// TestHeldChainMatchesAppliedAcrossFlush pins that a lane's held graph
// starts each record where a snapshot would: a reference loop that
// Captures after every record and Applies before the next — which
// rebuilds n = z - u — gives the bulk stream's results bit for bit,
// across a record whose last block boundary flushed a subnormal U
// entry. Checked records flush in the residual check's pass,
// tolerance-free ones after their fixed-count block.
func TestHeldChainMatchesAppliedAcrossFlush(t *testing.T) {
	adm, err := workload.Parse("lasso", []byte(`{"m":32,"lambda":0.3}`))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		absTol float64
	}{{"checked", 1e-300}, {"fixed-count", 0}} {
		t.Run(c.name, func(t *testing.T) {
			var in strings.Builder
			iters := []int{1, 3, 1, 2}
			for i, n := range iters {
				fmt.Fprintf(&in, `{"id":"r%d","workload":"lasso","spec":{"m":32,"lambda":0.3},"max_iter":%d,"abs_tol":%g}`+"\n", i, n, c.absTol)
			}
			var out bytes.Buffer
			opts := Options{Workers: 1, Cache: seedCache(t, adm, newFlushProblem(t))}
			if _, err := Run(context.Background(), strings.NewReader(in.String()), &out, opts); err != nil {
				t.Fatal(err)
			}
			got := decodeResults(t, out.Bytes())

			ref := newFlushProblem(t)
			g := ref.FactorGraph()
			var ws admm.WarmState
			flushed := false
			for i, n := range iters {
				if !ws.Captured() || ws.Apply(g) != nil {
					ref.Reset()
				}
				res, err := admm.Run(g, admm.Options{MaxIter: n, AbsTol: c.absTol, Backend: admm.NewSerialFused()})
				if err != nil {
					t.Fatal(err)
				}
				flushed = flushed || res.Flushed
				want := ref.Metrics()
				ws.Capture(g)
				r := got[i]
				if r.Error != "" || r.Warm != (i > 0) || r.Iterations != res.Iterations || r.Converged != res.Converged {
					t.Fatalf("record %d = %+v, want warm %v, %d iterations, converged %v", i, r, i > 0, res.Iterations, res.Converged)
				}
				got := r.Metrics.Map()
				for k, v := range want {
					if math.Float64bits(got[k]) != math.Float64bits(v) {
						t.Fatalf("record %d: %s = %g, the applied snapshot's chain gives %g", i, k, got[k], v)
					}
				}
			}
			if !flushed {
				t.Fatal("no record flushed a U entry: the chain no longer crosses the flush")
			}
		})
	}
}
