package bulk

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/admm"
	"repro/internal/graph"
	"repro/internal/linalg"
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

// panicking is a problem whose AppendMetrics panics on its at'th call:
// a way into workload.Solve's crash guard in the middle of a real
// chain.
type panicking struct {
	workload.Problem
	at, calls int
}

func (p *panicking) AppendMetrics(dst []workload.Metric) []workload.Metric {
	if p.calls++; p.calls == p.at {
		panic("metrics exploded")
	}
	return p.Problem.AppendMetrics(dst)
}

// seedCache returns a graph cache that hands out prob for adm's shape,
// so a stream of that shape solves on it.
func seedCache(t *testing.T, adm workload.Admission, prob workload.Problem) *graph.Cache[workload.Problem] {
	t.Helper()
	cache := graph.NewCache[workload.Problem](1)
	// A key's second miss admits it to the pool.
	cache.Get(adm.Key)
	cache.Get(adm.Key)
	cache.Put(adm.Key, prob)
	return cache
}

// TestPipelineStorePanicResetsChain pins the poisoned-chain rule for
// the panic path: a panicked solve drops its shape's chain. A stream
// that ends on the panic leaves nothing in the store; otherwise the
// next record starts cold, bit for bit the stream's first record, and
// the one after it continues the new chain, which is what the store
// then gets.
func TestPipelineStorePanicResetsChain(t *testing.T) {
	adm, err := workload.Parse("lasso", []byte(`{"m":32,"lambda":0.3}`))
	if err != nil {
		t.Fatal(err)
	}
	run := func(records, panicAt int) ([]Result, *store.Store) {
		prob, err := adm.Build()
		if err != nil {
			t.Fatal(err)
		}
		s := openTestStore(t)
		var out bytes.Buffer
		opts := Options{Workers: 1, Store: s, Cache: seedCache(t, adm, &panicking{Problem: prob, at: panicAt})}
		if _, err := Run(context.Background(), strings.NewReader(storeLassoStream(records)), &out, opts); err != nil {
			t.Fatal(err)
		}
		return decodeResults(t, out.Bytes()), s
	}

	res, s := run(2, 2)
	if !strings.Contains(res[1].Error, "solve panic") {
		t.Fatalf("record 1 = %+v, want a solve panic", res[1])
	}
	if s.Len() != 0 {
		t.Fatalf("store holds %d keys after a stream that ended on a panic, want 0", s.Len())
	}

	res, s = run(4, 2)
	if !strings.Contains(res[1].Error, "solve panic") {
		t.Fatalf("record 1 = %+v, want a solve panic", res[1])
	}
	if res[2].Warm || res[2].Iterations != res[0].Iterations || !reflect.DeepEqual(res[2].Metrics, res[0].Metrics) {
		t.Fatalf("record after the panic = %+v, want the cold open %+v", res[2], res[0])
	}
	if !res[3].Warm {
		t.Fatalf("record 3 = %+v, want it warm on the restarted chain", res[3])
	}
	snap, ok := s.Get(adm.Key)
	if !ok || snap.Iterations != res[3].Iterations {
		t.Fatalf("store entry = %v (%d iterations), want the restarted chain's last solve (%d)", ok, snap.Iterations, res[3].Iterations)
	}
}

// TestPipelineDivergedChainRestarts pins the divergence rule mid-chain:
// an mpc chain whose initial state sits at the edge of the doubles
// stays finite for two iterations and overflows in the next two, so
// its second record diverges after a good first one. A stream that ends
// there leaves nothing in the store; otherwise the next record reports
// "warm":false, solves as a cold open does, and the one after it
// continues the new chain into the store. The records check residuals
// (a tolerance no solve meets), so the check's sums decide finiteness,
// except for the fixed-count variant, which scans.
func TestPipelineDivergedChainRestarts(t *testing.T) {
	for _, tol := range []string{`,"abs_tol":1e-300`, ""} {
		line := func(id string, iters int) string {
			return fmt.Sprintf(`{"id":%q,"workload":"mpc","spec":{"k":4,"q0":[1e308,1e308,1e308,1e308]},"max_iter":%d%s}`+"\n", id, iters, tol)
		}
		run := func(in string) ([]Result, *store.Store) {
			s := openTestStore(t)
			var out bytes.Buffer
			if _, err := Run(context.Background(), strings.NewReader(in), &out, Options{Workers: 1, Store: s}); err != nil {
				t.Fatal(err)
			}
			return decodeResults(t, out.Bytes()), s
		}
		// A diverged state has no finite u0 to report.
		finite := func(r Result) bool { _, ok := r.Metrics.Map()["u0"]; return ok }
		diverged := func(r Result) bool { return r.Error == "" && r.Iterations == 2 && r.Warm && !finite(r) }

		res, s := run(line("a", 2) + line("b", 2))
		if res[0].Error != "" || res[0].Warm || !finite(res[0]) || !diverged(res[1]) {
			t.Fatalf("tol %q: records = %+v, want a finite cold open, then a warm record that diverges", tol, res)
		}
		if s.Len() != 0 {
			t.Fatalf("tol %q: store holds %d keys after a stream that ended on a diverged chain, want 0", tol, s.Len())
		}

		res, s = run(line("a", 2) + line("b", 2) + line("c", 1) + line("d", 1))
		cold, _ := run(line("c", 1))
		if !diverged(res[1]) {
			t.Fatalf("tol %q: record 1 = %+v, want it diverged", tol, res[1])
		}
		if res[2].Warm || res[2].Iterations != 1 || !reflect.DeepEqual(res[2].Metrics, cold[0].Metrics) {
			t.Fatalf("tol %q: record after the divergence = %+v, want the cold open %+v", tol, res[2], cold[0])
		}
		if !res[3].Warm || !finite(res[3]) {
			t.Fatalf("tol %q: record 3 = %+v, want it warm and finite on the restarted chain", tol, res[3])
		}
		if snap, ok := s.Get(res[3].Shape); !ok || snap.Iterations != 1 || !linalg.AllFinite(snap.Warm.X) {
			t.Fatalf("tol %q: store entry = %v, %+v; want the restarted chain's finite state", tol, ok, snap)
		}
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
