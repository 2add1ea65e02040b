package bulk

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/admm"
	"repro/internal/graph"
	"repro/internal/prox"
	"repro/internal/store"
	"repro/internal/workload"
)

const storeLassoLine = `{"id":"%s","workload":"lasso","spec":{"m":32,"lambda":0.3},"max_iter":5000,"abs_tol":1e-6,"rel_tol":1e-6}` + "\n"

func storeLassoStream(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, storeLassoLine, fmt.Sprintf("r%d", i))
	}
	return b.String()
}

func openTestStore(t *testing.T) *store.Store {
	t.Helper()
	s, err := store.Open(store.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestPipelineStoreReuse is the cross-run warm-start contract: a first
// run over an empty store solves cold and persists its chain; a second
// run over the same store seeds from it, so even the FIRST record of
// the shape is warm and converges in fewer iterations than the first
// run's cold open.
func TestPipelineStoreReuse(t *testing.T) {
	s := openTestStore(t)
	in := storeLassoStream(3)

	var out1 bytes.Buffer
	stats1, err := Run(context.Background(), strings.NewReader(in), &out1, Options{Workers: 2, Store: s})
	if err != nil {
		t.Fatal(err)
	}
	if stats1.StoreHits != 0 || stats1.StoreMisses != 1 || stats1.StoreSaves != 1 {
		t.Fatalf("first run store stats = %+v, want 0 hits, 1 miss, 1 save", stats1)
	}
	res1 := decodeResults(t, out1.Bytes())
	if res1[0].Warm {
		t.Fatal("first run's first record warm over an empty store")
	}

	var out2 bytes.Buffer
	stats2, err := Run(context.Background(), strings.NewReader(in), &out2, Options{Workers: 2, Store: s})
	if err != nil {
		t.Fatal(err)
	}
	if stats2.StoreHits != 1 || stats2.StoreMisses != 0 {
		t.Fatalf("second run store stats = %+v, want 1 hit, 0 misses", stats2)
	}
	res2 := decodeResults(t, out2.Bytes())
	if !res2[0].Warm {
		t.Fatal("second run's first record not seeded from the store")
	}
	if res2[0].Iterations >= res1[0].Iterations {
		t.Fatalf("store-warm open took %d iterations, cold open took %d", res2[0].Iterations, res1[0].Iterations)
	}
	for _, r := range res2 {
		if r.Error != "" || !r.Converged {
			t.Fatalf("store-seeded run produced a bad record: %+v", r)
		}
	}
}

// TestPipelineStoreFailedSolveNotPersisted pins the poisoned-chain
// rule for the error path: when a shape's chain ends on a failed solve
// the reset chain must not be written to the store, even though an
// earlier record of the shape succeeded.
func TestPipelineStoreFailedSolveNotPersisted(t *testing.T) {
	s := openTestStore(t)
	// Two good solves, then a sockets-transport executor whose worker
	// addresses refuse connections — it passes spec validation and fails
	// in the solve stage, poisoning the chain as its last act.
	in := storeLassoStream(2) +
		`{"id":"bad","workload":"lasso","spec":{"m":32,"lambda":0.3},"executor":{"kind":"sharded","shards":2,"transport":"sockets","addrs":["127.0.0.1:1","127.0.0.1:2"]}}` + "\n"

	var out bytes.Buffer
	stats, err := Run(context.Background(), strings.NewReader(in), &out, Options{Workers: 2, Store: s})
	if err != nil {
		t.Fatal(err)
	}
	results := decodeResults(t, out.Bytes())
	if results[2].Error == "" {
		t.Fatalf("oversharded record did not fail: %+v", results[2])
	}
	if stats.StoreSaves != 0 {
		t.Fatalf("poisoned chain persisted: stats = %+v", stats)
	}
	if s.Len() != 0 {
		t.Fatalf("store holds %d keys after a poisoned-chain run, want 0", s.Len())
	}
}

// panicOp is a prox operator that panics on first evaluation — the
// direct way to drive workload.Solve's crash guard with a graph whose
// shape still matches the chain's snapshot.
type panicOp struct{}

func (panicOp) Eval(x, n, rho []float64, d int) { panic("prox exploded") }
func (panicOp) Work(deg, d int) graph.Work      { return prox.Identity{}.Work(deg, d) }

// brokenProblem is a workload.Problem whose solve panics in the
// kernels.
type brokenProblem struct{ g *graph.Graph }

func (b brokenProblem) FactorGraph() *graph.Graph   { return b.g }
func (b brokenProblem) Bytes() int64                { return b.g.Bytes() }
func (b brokenProblem) Reset()                      {}
func (b brokenProblem) Metrics() map[string]float64 { return nil }

// TestPipelineStorePanicResetsChain pins the poisoned-chain rule for
// the panic path: a panicked solve must reset the shape's in-memory
// warm chain (this was the bug — the error path reset it, the panic
// path did not) so the stale snapshot is neither reused nor persisted.
func TestPipelineStorePanicResetsChain(t *testing.T) {
	p := &pipeline{ctx: context.Background(), opts: Options{}.withDefaults()}

	// A previously successful chain for the shape...
	good := graph.New(1)
	good.AddNode(prox.Identity{}, 0)
	if err := good.Finalize(); err != nil {
		t.Fatal(err)
	}
	st := &shapeState{}
	st.warm.Capture(good)
	st.dirty = true
	st.iterations = 3

	// ...then its problem is swapped for a same-shape graph whose prox
	// evaluation panics, so the warm snapshot applies cleanly and the
	// panic fires inside the solve itself.
	bad := graph.New(1)
	bad.AddNode(panicOp{}, 0)
	if err := bad.Finalize(); err != nil {
		t.Fatal(err)
	}
	st.prob = brokenProblem{g: bad}
	res := p.solveOne(st, &task{seq: 0, adm: workload.Admission{Key: "poison-key"}})
	if !strings.Contains(res.Error, "solve panic") {
		t.Fatalf("result error = %q, want a solve panic", res.Error)
	}
	if st.warm.Captured() {
		t.Fatal("panicked solve left the warm chain captured")
	}
	if st.dirty {
		t.Fatal("panicked solve left the chain marked dirty for persistence")
	}
}

// TestPipelineStoreShapeMismatchRejected pins the stale-entry guard: a
// stored snapshot under the right key but the wrong shape must be
// rejected by WarmState.Apply, and the record solves cold with a miss
// — never a wrong answer.
func TestPipelineStoreShapeMismatchRejected(t *testing.T) {
	s := openTestStore(t)

	// Find the admission key the stream's records will use, then poison
	// the store with a snapshot of a different shape under that key.
	adm, err := workload.Parse("lasso", []byte(`{"m":32,"lambda":0.3}`))
	if err != nil {
		t.Fatal(err)
	}
	wrong := graph.New(1)
	for i := 0; i < 3; i++ {
		wrong.AddNode(prox.Identity{}, i)
	}
	if err := wrong.Finalize(); err != nil {
		t.Fatal(err)
	}
	var ws admm.WarmState
	ws.Capture(wrong)
	if err := s.Put(adm.Key, store.Snapshot{Warm: ws, Iterations: 1}); err != nil {
		t.Fatal(err)
	}

	var outCold, outSeeded bytes.Buffer
	if _, err := Run(context.Background(), strings.NewReader(storeLassoStream(2)), &outCold, Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	stats, err := Run(context.Background(), strings.NewReader(storeLassoStream(2)), &outSeeded, Options{Workers: 1, Store: s})
	if err != nil {
		t.Fatal(err)
	}
	if stats.StoreHits != 0 || stats.StoreMisses != 1 {
		t.Fatalf("store stats = %+v, want the mismatched snapshot counted as a miss", stats)
	}
	res := decodeResults(t, outSeeded.Bytes())
	if res[0].Warm {
		t.Fatal("record warm-started off a shape-mismatched snapshot")
	}
	// Identical results to a storeless run: the bad entry cost nothing
	// but the lookup.
	if !bytes.Equal(outCold.Bytes(), outSeeded.Bytes()) {
		t.Fatal("mismatched store entry changed solve output")
	}
}
