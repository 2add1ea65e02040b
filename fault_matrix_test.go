// Fault matrix: a two-worker cross-process solve is killed at every
// frame boundary of every connection, in both directions, via the
// deterministic faultnet wrapper. The contract under test is the
// paper's determinism guarantee carried through failure: a faulted
// solve may fail with a typed error, but if it reports success its
// iterates are bit-identical to Serial — never a silently wrong
// answer. A goroutine census before/after the sweep pins the absence
// of leaks from torn-down sessions.
package repro_test

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

// matrixProblem is the shared workload for the sweep: small enough
// that one faulted run is milliseconds, residual-checked so the solve
// spans multiple iteration blocks (Iter/Done/Up all repeat).
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
	return admm.SolveOptions{
		Executor:   spec,
		MaxIter:    matrixIters,
		AbsTol:     1e-12,
		RelTol:     1e-12,
		CheckEvery: 3,
	}
}

func matrixSpec(addrs []string) admm.ExecutorSpec {
	return admm.ExecutorSpec{
		Kind:               admm.ExecSharded,
		Shards:             len(addrs),
		Transport:          admm.TransportSockets,
		Addrs:              addrs,
		Problem:            &admm.ProblemRef{Workload: "mpc", Spec: []byte(`{"k":40}`)},
		DialTimeoutMS:      2000,
		HandshakeTimeoutMS: 5000,
		FrameTimeoutMS:     5000,
		DialAttempts:       1,
	}
}

// startScriptedWorkers hosts n in-process shard workers, each behind a
// faultnet listener running scripts[i] (nil = clean). It returns the
// dialable addrs and the listeners (for fault/traffic introspection).
func startScriptedWorkers(t testing.TB, scripts []faultnet.Script) ([]string, []*faultnet.Listener) {
	t.Helper()
	addrs := make([]string, len(scripts))
	lns := make([]*faultnet.Listener, len(scripts))
	for i, script := range scripts {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = "tcp:" + ln.Addr().String()
		lns[i] = serveScriptedWorker(t, ln, script)
	}
	return addrs, lns
}

// serveScriptedWorker runs a shard worker on ln with script's faults (nil
// = none) and closes it when the test ends.
func serveScriptedWorker(t testing.TB, ln net.Listener, script faultnet.Script) *faultnet.Listener {
	if script == nil {
		script = faultnet.Plans()
	}
	fln := faultnet.WrapListener(ln, script)
	t.Cleanup(func() { fln.Close() })
	// Tight mesh bounds: a faulted run can leave one surviving session
	// waiting for a mesh peer whose session already died; that wait is
	// deadline-bounded by MeshWait, and the leak checks budget for it
	// draining.
	go shard.ServeWorker(fln, shard.WorkerOptions{
		Builders:     workload.Builders(),
		DialTimeout:  2 * time.Second,
		MeshWait:     2 * time.Second,
		CacheEntries: 4,
	})
	return fln
}

// settleGoroutines polls until the goroutine count drops back to the
// baseline (plus slack for runtime housekeeping).
func settleGoroutines(t *testing.T, baseline int, context string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%s: %d goroutines, baseline %d; stacks:\n%s", context, n, baseline, buf)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

func TestFaultMatrixEveryFrameBoundary(t *testing.T) {
	// Serial reference for the bit-identical check.
	ref := matrixGraph(t)
	refOpts := matrixOpts(admm.ExecutorSpec{})
	if _, err := admm.Solve(ref, refOpts); err != nil {
		t.Fatal(err)
	}

	// Census run: clean two-worker solve over instrumented listeners to
	// learn how many frames cross each connection in each direction.
	addrs, lns := startScriptedWorkers(t, []faultnet.Script{nil, nil})
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
		addrs, lns := startScriptedWorkers(t, scripts)
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
	settleGoroutines(t, baseline, "after fault matrix")
}

// TestFailoverSurvivorConformance is the acceptance pin for recovery:
// kill one of three workers mid-solve and demand the failover result
// be bit-identical to (a) a clean solve on the surviving two-worker
// partition and (b) the serial baseline.
func TestFailoverSurvivorConformance(t *testing.T) {
	// Victim: control stream cut after 2 inbound frames (Cfg and State
	// land; the first Iter trips it), then refuse everything — so the
	// post-mortem health probe classifies it dead.
	victim := func(i int) faultnet.Plan {
		if i == 0 {
			return faultnet.Plan{In: faultnet.Cut{AfterFrames: 2}}
		}
		return faultnet.Plan{Refuse: true}
	}
	addrs, _ := startScriptedWorkers(t, []faultnet.Script{nil, nil, victim})

	g := matrixGraph(t)
	spec := matrixSpec(addrs)
	spec.Failover = admm.FailoverSurvivors
	spec.DialAttempts = 2
	out, err := shard.Solve(context.Background(), g, matrixOpts(spec))
	if err != nil {
		t.Fatalf("failover solve failed: %v (trail %v)", err, out.Failures)
	}
	if out.Failovers < 1 {
		t.Fatalf("victim did not trigger a failover: %+v", out)
	}
	if out.LocalFallback {
		t.Fatalf("local fallback fired with two survivors: %+v", out)
	}
	if len(out.FinalAddrs) != 2 {
		t.Fatalf("final worker set %v, want the two survivors", out.FinalAddrs)
	}

	// (a) Clean solve on the survivor partition, fresh workers.
	cleanAddrs, _ := startScriptedWorkers(t, []faultnet.Script{nil, nil})
	gc := matrixGraph(t)
	if _, err := shard.Solve(context.Background(), gc, matrixOpts(matrixSpec(cleanAddrs))); err != nil {
		t.Fatal(err)
	}
	// (b) Serial baseline.
	ref := matrixGraph(t)
	if _, err := admm.Solve(ref, matrixOpts(admm.ExecutorSpec{})); err != nil {
		t.Fatal(err)
	}
	for i := range ref.Z {
		if g.Z[i] != gc.Z[i] {
			t.Fatalf("failover result != clean survivor solve at Z[%d]: %g vs %g", i, g.Z[i], gc.Z[i])
		}
		if g.Z[i] != ref.Z[i] {
			t.Fatalf("failover result != serial at Z[%d]: %g vs %g", i, g.Z[i], ref.Z[i])
		}
	}
}
