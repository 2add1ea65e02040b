// Failover conformance over in-process shard workers behind faultnet
// listeners: killing one worker mid-solve under "survivors" must give
// the answer, to the last bit, of a clean solve on the survivors and of
// Serial. The scripted-worker helpers here serve the fleet and one-route
// conformance tests too; the every-frame-boundary fault matrix lives
// with the shard package (internal/shard/fault_matrix_test.go).
package repro_test

import (
	"context"
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

// matrixIters iterations at a check period of 3 on an mpc k=40 graph:
// small enough that one faulted run is milliseconds, residual-checked
// so the solve spans multiple iteration blocks.
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
		Kind:      admm.ExecSharded,
		Shards:    len(addrs),
		Transport: admm.TransportSockets,
		Addrs:     addrs,
		Problem:   &admm.ProblemRef{Workload: "mpc", Spec: []byte(`{"k":40}`)},
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
	// A faulted run can leave a surviving session waiting for a mesh
	// peer whose session already died, or whose hello was cut; the
	// coordinator's verdict (the liveness bound, for a lost hello) or
	// hang-up ends that wait, and the leak checks budget for it
	// draining.
	go shard.ServeWorker(fln, shard.WorkerOptions{Builders: workload.Builders(), CacheEntries: 4})
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
