// Fault matrix: a two-worker cross-process solve is killed at every
// frame boundary of every connection, in both directions, via the
// deterministic faultnet wrapper. The contract under test is the
// paper's determinism guarantee carried through failure: a faulted
// solve may fail with a typed error, but if it reports success its
// iterates are bit-identical to Serial — never a silently wrong
// answer. A goroutine census before/after the sweep pins the absence
// of leaks from torn-down sessions.
//
// The workers rebuild a real workload (internal/workload imports this
// package), so the matrix lives in the external test package.
package shard_test

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/admm"
	"repro/internal/faultnet"
	"repro/internal/graph"
	"repro/internal/mpc"
	"repro/internal/shard"
	"repro/internal/workload"
)

// matrixIters iterations at a check period of 3: the solve spans
// multiple iteration blocks, so Iter and Up frames repeat, and one
// faulted run is milliseconds.
const matrixIters = 6

func matrixGraph(t testing.TB) *graph.Graph {
	t.Helper()
	p, err := mpc.FromSpec(mpc.Spec{K: 40})
	if err != nil {
		t.Fatal(err)
	}
	p.Graph.InitZero()
	return p.Graph
}

func matrixOpts(spec admm.ExecutorSpec) admm.SolveOptions {
	return admm.SolveOptions{Executor: spec, MaxIter: matrixIters, AbsTol: 1e-12, RelTol: 1e-12, CheckEvery: 3}
}

func matrixSpec(addrs []string) admm.ExecutorSpec {
	return admm.ExecutorSpec{
		Kind:      admm.ExecSharded,
		Shards:    len(addrs),
		Transport: admm.TransportSockets,
		Addrs:     addrs,
		Problem:   &admm.ProblemRef{Workload: "mpc", Spec: []byte(`{"k":40}`)},
	}
}

// startMatrixWorkers hosts one in-process shard worker per script, each
// behind a faultnet listener running it (nil = clean), and returns the
// dialable addrs and the listeners.
func startMatrixWorkers(t testing.TB, scripts []faultnet.Script) ([]string, []*faultnet.Listener) {
	t.Helper()
	addrs := make([]string, len(scripts))
	lns := make([]*faultnet.Listener, len(scripts))
	for i, script := range scripts {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if script == nil {
			script = faultnet.Plans()
		}
		addrs[i] = "tcp:" + ln.Addr().String()
		lns[i] = faultnet.WrapListener(ln, script)
		t.Cleanup(func() { lns[i].Close() })
		go shard.ServeWorker(lns[i], shard.WorkerOptions{Builders: workload.Builders(), CacheEntries: 4})
	}
	return addrs, lns
}

func TestFaultMatrixEveryFrameBoundary(t *testing.T) {
	// A cut mid-hello leaves the coordinator, or a surviving session
	// waiting on its mesh peer, to the liveness bound: 2 s here, not 10.
	// The tick stays at its default, so the census counts the frames a
	// real session sends and no Tick lands in a healthy run.
	shard.ShrinkLivenessBound(t, 2*time.Second)

	// Serial reference for the bit-identical check.
	ref := matrixGraph(t)
	if _, err := admm.Solve(ref, matrixOpts(admm.ExecutorSpec{})); err != nil {
		t.Fatal(err)
	}

	// Census run: clean two-worker solve over instrumented listeners to
	// learn how many frames cross each connection in each direction.
	addrs, lns := startMatrixWorkers(t, []faultnet.Script{nil, nil})
	g := matrixGraph(t)
	if _, err := shard.Solve(context.Background(), g, matrixOpts(matrixSpec(addrs))); err != nil {
		t.Fatalf("census solve failed: %v", err)
	}
	for i := range ref.Z {
		if ref.Z[i] != g.Z[i] {
			t.Fatalf("clean sharded solve diverged from serial at Z[%d]", i)
		}
	}
	type edge struct {
		worker, conn  int // worker index, accept index on its listener
		in            bool
		frames, bytes int
	}
	var edges []edge
	for w, ln := range lns {
		for ci, conn := range ln.Conns() {
			edges = append(edges,
				edge{w, ci, true, conn.FramesIn(), int(conn.BytesIn())},
				edge{w, ci, false, conn.FramesOut(), int(conn.BytesOut())},
			)
		}
	}
	for _, ln := range lns {
		ln.Close()
	}

	// Let the census workers wind down, then take the leak baseline.
	time.Sleep(100 * time.Millisecond)
	baseline := runtime.NumGoroutine() + 2

	// One faulted run per (connection, direction, frame boundary), plus
	// mid-frame byte cuts: sever after k complete frames — the next byte
	// on that stream kills the connection at exactly that boundary.
	runs, failed, clean := 0, 0, 0
	runOne := func(name string, victim, connIdx int, plan faultnet.Plan) {
		t.Helper()
		scripts := []faultnet.Script{nil, nil}
		scripts[victim] = faultnet.PlanAt(connIdx, plan)
		addrs, lns := startMatrixWorkers(t, scripts)
		g := matrixGraph(t)
		_, err := shard.Solve(context.Background(), g, matrixOpts(matrixSpec(addrs)))
		runs++
		if err != nil {
			failed++
		} else {
			clean++
			for i := range ref.Z {
				if ref.Z[i] != g.Z[i] {
					t.Fatalf("%s: solve reported success with wrong answer at Z[%d]: %g vs %g",
						name, i, g.Z[i], ref.Z[i])
				}
			}
		}
		for _, ln := range lns {
			ln.Close()
		}
	}
	for _, e := range edges {
		dir := "out"
		if e.in {
			dir = "in"
		}
		for k := 1; k <= e.frames; k++ {
			cut := faultnet.Cut{AfterFrames: k}
			plan := faultnet.Plan{Out: cut}
			if e.in {
				plan = faultnet.Plan{In: cut}
			}
			runOne(fmt.Sprintf("w%d/conn%d/%s/frame%d", e.worker, e.conn, dir, k),
				e.worker, e.conn, plan)
		}
		// Two mid-frame byte cuts per edge: inside the first frame header
		// and mid-stream, exercising partial-frame teardown.
		for _, b := range []int{5, e.bytes / 2} {
			if b <= 0 || b >= e.bytes {
				continue
			}
			cut := faultnet.Cut{AfterBytes: b}
			plan := faultnet.Plan{Out: cut}
			if e.in {
				plan = faultnet.Plan{In: cut}
			}
			runOne(fmt.Sprintf("w%d/conn%d/%s/byte%d", e.worker, e.conn, dir, b),
				e.worker, e.conn, plan)
		}
	}
	t.Logf("fault matrix: %d runs (%d errored, %d completed bit-identical) over %d edges",
		runs, failed, clean, len(edges))
	if failed == 0 {
		t.Fatal("no fault in the matrix produced a failure — cuts are not landing")
	}
	// Goroutines still draining a torn-down session end within the
	// liveness bound; poll well past it.
	deadline := time.Now().Add(15 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("after fault matrix: %d goroutines, baseline %d; stacks:\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(25 * time.Millisecond)
	}
}
