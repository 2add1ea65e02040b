// Fleet conformance: solves routed through the persistent worker
// registry (lease → dial on demand → handshake) must stay
// bit-identical to Serial on every workload, and a second solve of the
// same ProblemRef must reuse the workers' caches — pinned both by the
// coordinator's handshake accounting (state hits, zero State pushes)
// and by the faultnet listeners' frame counters (one State frame fewer
// per worker on the wire). The chaos test kills a registered worker
// mid-solve and demands failover recovery, a dead mark within one probe
// round, and no leaked goroutines.
package repro_test

import (
	"context"
	"encoding/json"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/admm"
	"repro/internal/faultnet"
	"repro/internal/fleet"
	"repro/internal/graph"
	"repro/internal/lasso"
	"repro/internal/mpc"
	"repro/internal/packing"
	"repro/internal/shard"
	"repro/internal/svm"
)

// fleetWorkload pairs a deterministic graph builder with the
// ProblemRef the workers rebuild it from — the same four workloads the
// transport conformance suite pins.
type fleetWorkload struct {
	build func(t testing.TB) *graph.Graph
	spec  json.RawMessage
}

func fleetWorkloads() map[string]fleetWorkload {
	return map[string]fleetWorkload{
		"lasso": {
			build: func(t testing.TB) *graph.Graph {
				p, err := lasso.FromSpec(lasso.Spec{M: 128, Lambda: 0.3})
				if err != nil {
					t.Fatal(err)
				}
				p.Graph.InitZero()
				return p.Graph
			},
			spec: json.RawMessage(`{"m":128,"lambda":0.3}`),
		},
		"svm": {
			build: func(t testing.TB) *graph.Graph {
				p, err := svm.FromSpec(svm.Spec{N: 300})
				if err != nil {
					t.Fatal(err)
				}
				p.Graph.InitZero()
				return p.Graph
			},
			spec: json.RawMessage(`{"n":300}`),
		},
		"mpc": {
			build: func(t testing.TB) *graph.Graph {
				p, err := mpc.FromSpec(mpc.Spec{K: 400})
				if err != nil {
					t.Fatal(err)
				}
				p.Graph.InitZero()
				return p.Graph
			},
			spec: json.RawMessage(`{"k":400}`),
		},
		"packing": {
			build: func(t testing.TB) *graph.Graph {
				p, err := packing.FromSpec(packing.Spec{N: 12})
				if err != nil {
					t.Fatal(err)
				}
				p.InitRandom(rand.New(rand.NewSource(1)))
				return p.Graph
			},
			spec: json.RawMessage(`{"n":12}`),
		},
	}
}

// fleetRegistry stands a real registry over live workers and probes it
// once; every worker must come up healthy.
func fleetRegistry(t *testing.T, addrs []string, deadAfter int) *fleet.Registry {
	t.Helper()
	reg, err := fleet.New(fleet.Config{Addrs: addrs, DeadAfter: deadAfter, ProbeTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range reg.ProbeOnce(context.Background()) {
		if w.State != fleet.StateHealthy {
			t.Fatalf("worker %s failed its first probe: %s (%s)", w.Addr, w.State, w.LastErr)
		}
	}
	return reg
}

// fleetPlan routes one solve through the registry's admission planner
// (remote floor lowered so the test workloads qualify) and demands the
// remote route.
func fleetPlan(t *testing.T, reg *fleet.Registry, g *graph.Graph, workers int) fleet.Decision {
	t.Helper()
	d := reg.Plan(g, fleet.PlannerConfig{MinEdges: 1, MaxCutShare: 1, MinWorkers: 2, MaxWorkers: workers})
	if d.Route != fleet.RouteRemote {
		t.Fatalf("planner routed %s (%s), want remote", d.Route, d.Reason)
	}
	return d
}

// frameMeter returns a function reporting the complete frames moved
// (both directions, every connection the scripted listeners accepted)
// since its previous call. It first waits until every worker reports no
// session running — a worker reads a solve's Bye after the coordinator
// has returned — and leaves those probes' own Ping and Pong out.
func frameMeter(t *testing.T, addrs []string, lns []*faultnet.Listener) func() int {
	var last, probeFrames int
	return func() int {
		t.Helper()
		for busy := true; busy; probeFrames += 2 * len(addrs) {
			busy = false
			for _, h := range shard.ProbeWorkers(context.Background(), addrs, 2*time.Second) {
				if !h.Alive {
					t.Fatalf("worker %s stopped answering probes: %s", h.Addr, h.Err)
				}
				busy = busy || h.Busy
			}
		}
		total := -probeFrames
		for _, ln := range lns {
			for _, c := range ln.Conns() {
				total += c.FramesIn() + c.FramesOut()
			}
		}
		moved := total - last
		last = total
		return moved
	}
}

// cacheTiers lists each worker's cache tier in worker order,
// comma-separated.
func cacheTiers(st shard.Stats) string {
	var ts []string
	for _, w := range st.Workers {
		ts = append(ts, w.Cache)
	}
	return strings.Join(ts, ",")
}

// TestFleetConformance: for every workload, a registry-routed fleet
// solve is bit-identical to Serial, and re-solving the same ProblemRef
// through the same registry is a state-tier cache hit on every worker —
// nothing is rebuilt, the state is never re-sent, and the wire carries
// exactly one frame fewer per worker: the skipped State.
func TestFleetConformance(t *testing.T) {
	const iters = 24
	for name, w := range fleetWorkloads() {
		t.Run(name, func(t *testing.T) {
			ref := w.build(t)
			if _, err := admm.Solve(ref, admm.SolveOptions{MaxIter: iters}); err != nil {
				t.Fatal(err)
			}

			addrs, lns := startScriptedWorkers(t, []faultnet.Script{nil, nil})
			reg := fleetRegistry(t, addrs, 3)
			moved := frameMeter(t, addrs, lns)
			moved() // the registry's first probe

			solve := func() (*graph.Graph, shard.Stats) {
				t.Helper()
				g := w.build(t)
				d := fleetPlan(t, reg, g, 2)
				defer d.Release()
				spec := d.Spec(admm.ExecutorSpec{Problem: &admm.ProblemRef{Workload: name, Spec: w.spec}})
				out, err := shard.Solve(context.Background(), g, admm.SolveOptions{
					Executor: spec, MaxIter: iters,
				})
				if err != nil {
					t.Fatalf("fleet solve failed: %v (trail %v)", err, out.Failures)
				}
				if len(out.ShardStats.Workers) == 0 {
					t.Fatal("fleet solve reported no shard stats")
				}
				return g, out.ShardStats
			}
			checkZ := func(tag string, g *graph.Graph) {
				t.Helper()
				for i := range ref.Z {
					if ref.Z[i] != g.Z[i] {
						t.Fatalf("%s: diverged from serial at Z[%d]: %g vs %g", tag, i, g.Z[i], ref.Z[i])
					}
				}
			}

			g1, st1 := solve()
			checkZ("cold fleet solve", g1)
			if got := cacheTiers(st1); got != "miss,miss" || st1.StatePushes != 2 || st1.HandshakeFrames != 6 {
				t.Fatalf("cold solve: cache tiers %s, state pushes/handshake frames = %d/%d, want miss,miss and 2/6",
					got, st1.StatePushes, st1.HandshakeFrames)
			}
			coldFrames := moved()

			g2, st2 := solve()
			checkZ("warm fleet solve", g2)
			if got := cacheTiers(st2); got != "state,state" {
				t.Fatalf("warm solve: cache tiers %s, want state,state", got)
			}
			if st2.StatePushes != 0 {
				t.Fatalf("warm solve re-sent the state: %d state pushes", st2.StatePushes)
			}
			if st2.HandshakeFrames >= st1.HandshakeFrames {
				t.Fatalf("warm handshake not cheaper: %d frames vs %d cold",
					st2.HandshakeFrames, st1.HandshakeFrames)
			}
			warmFrames := moved()
			if warmFrames != coldFrames-2 {
				t.Fatalf("warm solve moved %d frames on the wire, cold moved %d — want the two State pushes fewer",
					warmFrames, coldFrames)
			}
			t.Logf("%s: cold %d wire frames (%d handshake), warm %d (%d handshake)",
				name, coldFrames, st1.HandshakeFrames, warmFrames, st2.HandshakeFrames)
		})
	}
}

// TestFleetWorkerRestartBetweenProbes: a worker that restarts at the
// same address between two probe rounds reads healthy both times, and
// the next fleet solve reaches the new process on its first attempt —
// the registry holds nothing that outlives the old one — and matches
// Serial bit for bit.
func TestFleetWorkerRestartBetweenProbes(t *testing.T) {
	addrs, lns := startScriptedWorkers(t, []faultnet.Script{nil, nil})
	reg := fleetRegistry(t, addrs, 3)

	// Closing worker 0's listener closes its connections too; a new
	// worker then serves at the same address.
	lns[0].Close()
	ln, err := net.Listen("tcp", strings.TrimPrefix(addrs[0], "tcp:"))
	if err != nil {
		t.Fatal(err)
	}
	serveScriptedWorker(t, ln, nil)
	for _, w := range reg.ProbeOnce(context.Background()) {
		if w.State != fleet.StateHealthy {
			t.Fatalf("worker %s after the restart: %s (%s), want healthy", w.Addr, w.State, w.LastErr)
		}
	}

	g := matrixGraph(t)
	d := fleetPlan(t, reg, g, 2)
	spec := d.Spec(admm.ExecutorSpec{Problem: &admm.ProblemRef{Workload: "mpc", Spec: []byte(`{"k":40}`)}})
	out, err := shard.Solve(context.Background(), g, matrixOpts(spec))
	d.Release()
	if err != nil {
		t.Fatalf("solve after a worker restart failed: %v (trail %v)", err, out.Failures)
	}
	if out.Attempts != 1 || len(out.Failures) != 0 {
		t.Fatalf("attempts %d, failures %v: want one clean attempt", out.Attempts, out.Failures)
	}

	ref := matrixGraph(t)
	if _, err := admm.Solve(ref, matrixOpts(admm.ExecutorSpec{})); err != nil {
		t.Fatal(err)
	}
	for i := range ref.Z {
		if ref.Z[i] != g.Z[i] {
			t.Fatalf("solve after a worker restart != serial at Z[%d]: %g vs %g", i, g.Z[i], ref.Z[i])
		}
	}
}

// TestFleetChaosWorkerDeath: one of three registry-routed workers dies
// mid-solve. shard.Solve must recover onto the survivors with a
// bit-identical result, the registry must mark the victim dead within
// one probe round, and the teardown must leak no goroutines.
func TestFleetChaosWorkerDeath(t *testing.T) {
	time.Sleep(50 * time.Millisecond)
	baseline := runtime.NumGoroutine() + 2

	// Accept 0 is the registry's first probe (clean). Accept 1 is the
	// solve handshake: the cache probe, config, and state land, then the
	// first iteration frame severs the stream. Everything after is
	// refused, so both the failover probe and the registry's next round
	// see a dead endpoint.
	victim := func(i int) faultnet.Plan {
		switch i {
		case 0:
			return faultnet.Plan{}
		case 1:
			return faultnet.Plan{In: faultnet.Cut{AfterFrames: 3}}
		default:
			return faultnet.Plan{Refuse: true}
		}
	}
	addrs, lns := startScriptedWorkers(t, []faultnet.Script{nil, nil, victim})
	reg := fleetRegistry(t, addrs, 1) // DeadAfter 1: one failed probe is enough

	g := matrixGraph(t)
	d := fleetPlan(t, reg, g, 3)
	spec := d.Spec(admm.ExecutorSpec{Problem: &admm.ProblemRef{Workload: "mpc", Spec: []byte(`{"k":40}`)}})
	out, err := shard.Solve(context.Background(), g, matrixOpts(spec))
	d.Release()
	if err != nil {
		t.Fatalf("chaos solve failed: %v (trail %v)", err, out.Failures)
	}
	if out.Failovers < 1 {
		t.Fatalf("victim did not trigger a failover: %+v", out)
	}
	if out.LocalFallback {
		t.Fatalf("local fallback fired with two survivors: %+v", out)
	}

	ref := matrixGraph(t)
	if _, err := admm.Solve(ref, matrixOpts(admm.ExecutorSpec{})); err != nil {
		t.Fatal(err)
	}
	for i := range ref.Z {
		if ref.Z[i] != g.Z[i] {
			t.Fatalf("chaos failover result != serial at Z[%d]: %g vs %g", i, g.Z[i], ref.Z[i])
		}
	}

	// One probe round after the death: the victim must be dead, the
	// survivors still healthy.
	ws := reg.ProbeOnce(context.Background())
	if ws[2].State != fleet.StateDead {
		t.Fatalf("victim state %s after one probe round, want dead", ws[2].State)
	}
	if ws[0].State != fleet.StateHealthy || ws[1].State != fleet.StateHealthy {
		t.Fatalf("survivors not healthy after the chaos round: %s/%s", ws[0].State, ws[1].State)
	}

	for _, ln := range lns {
		ln.Close()
	}
	settleGoroutines(t, baseline, "after fleet chaos")
}
