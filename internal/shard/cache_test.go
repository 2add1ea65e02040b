package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/admm"
	"repro/internal/graph"
)

// startCacheWorkers hosts n in-process shard workers with a problem
// cache of the given size (0 = none).
func startCacheWorkers(t *testing.T, n, entries int, builders map[string]BuilderFunc) []string {
	t.Helper()
	dir := t.TempDir()
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("unix:%s/cw%d.sock", dir, i)
		ln, err := ListenAddr(addrs[i])
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		go ServeWorker(ln, WorkerOptions{Builders: builders, CacheEntries: entries})
	}
	return addrs
}

// tiers lists each worker's cache tier in worker order, comma-separated.
func tiers(st Stats) string {
	var ts []string
	for _, w := range st.Workers {
		ts = append(ts, w.Cache)
	}
	return strings.Join(ts, ",")
}

// TestWarmCacheHandshakeTiers drives all three cache tiers through the
// one session handshake and pins its frame accounting — Cfg and Ready
// always, State unless the worker reports a state hit: a first solve
// misses (3 frames per worker), an identical second solve is a
// state-tier hit on every worker (2: no State push), and a third solve
// from a different initial iterate is a graph-tier hit (3: the push
// follows). Every tier's result must stay bit-identical to Serial.
func TestWarmCacheHandshakeTiers(t *testing.T) {
	builders := map[string]BuilderFunc{
		"chain": func(spec []byte) (*graph.Graph, error) { return chainGraph(t, 48), nil },
	}
	addrs := startCacheWorkers(t, 2, 2, builders)
	spec := chainSpec(addrs)

	solve := func(g *graph.Graph, iters int) Stats {
		t.Helper()
		r, err := NewRemote(context.Background(), spec, g)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		var nanos [admm.NumPhases]int64
		r.Iterate(g, iters, &nanos)
		return r.Stats()
	}
	serial := func(mutate func(*graph.Graph), iters int) *graph.Graph {
		t.Helper()
		ref := chainGraph(t, 48)
		if mutate != nil {
			mutate(ref)
		}
		var nanos [admm.NumPhases]int64
		b := admm.NewSerialFused()
		defer b.Close()
		b.Iterate(ref, iters, &nanos)
		return ref
	}
	checkZ := func(tag string, g, ref *graph.Graph) {
		t.Helper()
		for i := range ref.Z {
			if ref.Z[i] != g.Z[i] {
				t.Fatalf("%s: diverged from serial at Z[%d]: %g vs %g", tag, i, g.Z[i], ref.Z[i])
			}
		}
	}

	// Solve 1: cold workers — every worker builds.
	g1 := chainGraph(t, 48)
	st1 := solve(g1, 40)
	if got := tiers(st1); got != "miss,miss" {
		t.Fatalf("first solve: cache tiers %s, want miss,miss", got)
	}
	if st1.StatePushes != 2 || st1.HandshakeFrames != 6 {
		t.Fatalf("first solve: %d state pushes, %d handshake frames, want 2 and 6", st1.StatePushes, st1.HandshakeFrames)
	}
	checkZ("miss tier", g1, serial(nil, 40))

	// Solve 2: identical problem and initial state — state-tier hit on
	// both workers: nothing is rebuilt and the state is never re-sent.
	g2 := chainGraph(t, 48)
	st2 := solve(g2, 40)
	if got := tiers(st2); got != "state,state" {
		t.Fatalf("second solve: cache tiers %s, want state,state", got)
	}
	if st2.StatePushes != 0 || st2.HandshakeFrames != 4 {
		t.Fatalf("second solve: %d state pushes, %d handshake frames, want 0 and 4", st2.StatePushes, st2.HandshakeFrames)
	}
	checkZ("state-hit tier", g2, serial(nil, 40))

	// Solve 3: same problem, different initial iterate — the cached
	// graph is reused but the state digest differs, so the push happens.
	bump := func(g *graph.Graph) {
		for i := range g.Z {
			g.Z[i] += 0.25
		}
	}
	g3 := chainGraph(t, 48)
	bump(g3)
	st3 := solve(g3, 40)
	if got := tiers(st3); got != "graph,graph" {
		t.Fatalf("third solve: cache tiers %s, want graph,graph", got)
	}
	if st3.StatePushes != 2 || st3.HandshakeFrames != 6 {
		t.Fatalf("third solve: %d state pushes, %d handshake frames, want 2 and 6", st3.StatePushes, st3.HandshakeFrames)
	}
	checkZ("graph-hit tier", g3, serial(bump, 40))

	// Solve 4: the graph-hit session re-captured its pushed state, so
	// repeating the bumped solve is a state-tier hit again.
	g4 := chainGraph(t, 48)
	bump(g4)
	st4 := solve(g4, 40)
	if got := tiers(st4); got != "state,state" || st4.StatePushes != 0 {
		t.Fatalf("fourth solve: cache tiers %s, %d state pushes, want state,state and 0", got, st4.StatePushes)
	}
	checkZ("re-captured state", g4, serial(bump, 40))
}

// TestWarmCacheDisabled: a worker with no cache reports a miss every
// time — the one handshake still works, with its full 3 frames per
// worker, and nothing is retained.
func TestWarmCacheDisabled(t *testing.T) {
	builders := map[string]BuilderFunc{
		"chain": func(spec []byte) (*graph.Graph, error) { return chainGraph(t, 32), nil },
	}
	addrs := startCacheWorkers(t, 2, 0, builders)
	spec := chainSpec(addrs)
	for round := 1; round <= 2; round++ {
		g := chainGraph(t, 32)
		r, err := NewRemote(context.Background(), spec, g)
		if err != nil {
			t.Fatal(err)
		}
		var nanos [admm.NumPhases]int64
		r.Iterate(g, 20, &nanos)
		st := r.Stats()
		r.Close()
		if got := tiers(st); got != "miss,miss" || st.StatePushes != 2 || st.HandshakeFrames != 6 {
			t.Fatalf("round %d: cache tiers %s, %d state pushes, %d handshake frames; want miss,miss, 2 and 6 with the cache disabled",
				round, got, st.StatePushes, st.HandshakeFrames)
		}
		ref := chainGraph(t, 32)
		b := admm.NewSerialFused()
		b.Iterate(ref, 20, &nanos)
		b.Close()
		for i := range ref.Z {
			if ref.Z[i] != g.Z[i] {
				t.Fatalf("round %d diverged from serial at Z[%d]", round, i)
			}
		}
	}
}

// TestWarmCacheLRUEviction exercises the bound: a 1-entry cache serving
// two alternating problems evicts on every switch, so re-solving the
// first problem misses again.
func TestWarmCacheLRUEviction(t *testing.T) {
	builders := map[string]BuilderFunc{
		"chain": func(spec []byte) (*graph.Graph, error) {
			var s struct {
				N int `json:"n"`
			}
			if err := json.Unmarshal(spec, &s); err != nil {
				return nil, err
			}
			return chainGraph(t, s.N), nil
		},
	}
	addrs := startCacheWorkers(t, 2, 1, builders)
	solveN := func(n int) Stats {
		t.Helper()
		spec := chainSpec(addrs)
		spec.Problem = &admm.ProblemRef{Workload: "chain", Spec: []byte(fmt.Sprintf(`{"n":%d}`, n))}
		g := chainGraph(t, n)
		r, err := NewRemote(context.Background(), spec, g)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		var nanos [admm.NumPhases]int64
		r.Iterate(g, 10, &nanos)
		return r.Stats()
	}
	if got := tiers(solveN(32)); got != "miss,miss" {
		t.Fatalf("cold 32: cache tiers %s, want miss,miss", got)
	}
	if got := tiers(solveN(48)); got != "miss,miss" {
		t.Fatalf("cold 48 (evicts 32): cache tiers %s, want miss,miss", got)
	}
	if got := tiers(solveN(32)); got != "miss,miss" {
		t.Fatalf("re-solve 32 after eviction: cache tiers %s, want miss,miss (entry should have been evicted)", got)
	}
	if got := tiers(solveN(32)); got != "state,state" {
		t.Fatalf("warm 32: cache tiers %s, want state,state", got)
	}
}
