package fleet_test

import (
	"context"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/admm"
	"repro/internal/fleet"
	"repro/internal/graph"
	"repro/internal/mpc"
	"repro/internal/prox"
	"repro/internal/shard"
)

// chainGraph is an MPC-like consensus chain: geometric, so its
// balanced partition has a tiny cut — the remote-friendly shape.
func chainGraph(t testing.TB, n int) *graph.Graph {
	t.Helper()
	g := graph.New(2)
	for i := 0; i+1 < n; i++ {
		g.AddNode(prox.Consensus{Dim: 2}, i, i+1)
	}
	for i := 0; i < n; i++ {
		g.AddNode(prox.SquaredNorm{C: 0.5, Dim: 2}, i)
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	g.SetUniformParams(1, 1)
	g.InitRandom(-1, 1, rand.New(rand.NewSource(1)))
	return g
}

// starGraph is the consensus-star pathology: every function touches
// variable 0, so any split either ships the hub every iteration (huge
// cut share) or piles the whole graph onto one shard (imbalance) — the
// shape the planner must keep local.
func starGraph(t testing.TB, n int) *graph.Graph {
	t.Helper()
	g := graph.New(2)
	for i := 1; i < n; i++ {
		g.AddNode(prox.Consensus{Dim: 2}, 0, i)
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	g.SetUniformParams(1, 1)
	g.InitRandom(-1, 1, rand.New(rand.NewSource(1)))
	return g
}

// plannerFleet builds a 3-worker registry with scripted health and a
// low remote floor so small test graphs exercise every branch.
func plannerFleet(t *testing.T, rounds ...[]shard.WorkerHealth) (*fleet.Registry, []string, fleet.PlannerConfig) {
	t.Helper()
	addrs := []string{"w0:1", "w1:1", "w2:1"}
	if len(rounds) == 0 {
		rounds = [][]shard.WorkerHealth{round(addrs, "", "", "")}
	}
	probe := &scriptProbe{rounds: rounds}
	r, err := fleet.New(fleet.Config{Addrs: addrs, Now: newFakeClock().Now, Probe: probe.probe})
	if err != nil {
		t.Fatal(err)
	}
	r.ProbeOnce(context.Background())
	pc := fleet.PlannerConfig{MinEdges: 16, MaxCutShare: 0.25, MinWorkers: 2, MaxWorkers: 3}
	return r, addrs, pc
}

// TestPlannerTable walks every admission branch: local below the
// remote floor, remote on a low-cut graph, local on a high-cut graph
// (with the lease returned), shed when the healthy fleet is saturated,
// and local when too few workers are healthy at all.
func TestPlannerTable(t *testing.T) {
	chain := chainGraph(t, 64) // 190 edges, cut share ~0
	star := starGraph(t, 64)   // 126 edges, no acceptable split

	t.Run("local below floor", func(t *testing.T) {
		r, _, pc := plannerFleet(t)
		d := r.Plan(chainGraph(t, 4), pc)
		defer d.Release()
		if d.Route != fleet.RouteLocal || !strings.Contains(d.Reason, "below remote floor") {
			t.Fatalf("got %s (%s), want local below the floor", d.Route, d.Reason)
		}
	})

	t.Run("remote low cut", func(t *testing.T) {
		r, addrs, pc := plannerFleet(t)
		d := r.Plan(chain, pc)
		if d.Route != fleet.RouteRemote {
			t.Fatalf("got %s (%s), want remote", d.Route, d.Reason)
		}
		if d.Shards != 3 || len(d.Addrs) != 3 {
			t.Fatalf("remote plan incomplete: %+v", d)
		}
		if d.CutShare <= 0 || d.CutShare > pc.MaxCutShare {
			t.Fatalf("cut share %.3f outside (0, %.2f]", d.CutShare, pc.MaxCutShare)
		}
		// The lease is live until released.
		for i, w := range r.Snapshot() {
			if w.InFlight != 1 {
				t.Fatalf("worker %s in-flight %d during solve, want 1", addrs[i], w.InFlight)
			}
		}
		d.Release()
		for _, w := range r.Snapshot() {
			if w.InFlight != 0 || w.Solves != 1 {
				t.Fatalf("release bookkeeping off: %+v", w)
			}
		}
	})

	t.Run("local high cut share releases lease", func(t *testing.T) {
		r, _, pc := plannerFleet(t)
		d := r.Plan(star, pc)
		defer d.Release()
		if d.Route != fleet.RouteLocal {
			t.Fatalf("got %s (%s), want local for the consensus star", d.Route, d.Reason)
		}
		for _, w := range r.Snapshot() {
			if w.InFlight != 0 {
				t.Fatalf("vetoed plan leaked a lease on %s", w.Addr)
			}
		}
	})

	t.Run("shed when saturated", func(t *testing.T) {
		r, _, pc := plannerFleet(t)
		hold := r.Acquire(2) // 2 of 3 slots taken: 1 available < MinWorkers
		defer hold.Release()
		d := r.Plan(chain, pc)
		defer d.Release()
		if d.Route != fleet.RouteShed || !strings.Contains(d.Reason, "saturated") {
			t.Fatalf("got %s (%s), want shed on a saturated fleet", d.Route, d.Reason)
		}
	})

	t.Run("local when fleet too small", func(t *testing.T) {
		addrs := []string{"w0:1", "w1:1", "w2:1"}
		r, _, pc := plannerFleet(t, round(addrs, "", "probe: refused", "probe: refused"))
		d := r.Plan(chain, pc)
		defer d.Release()
		if d.Route != fleet.RouteLocal || !strings.Contains(d.Reason, "fleet too small") {
			t.Fatalf("got %s (%s), want local with one healthy worker", d.Route, d.Reason)
		}
	})

	t.Run("partial lease shrinks shard count", func(t *testing.T) {
		r, addrs, pc := plannerFleet(t)
		hold := r.Acquire(1) // takes w0
		defer hold.Release()
		d := r.Plan(chain, pc)
		defer d.Release()
		if d.Route != fleet.RouteRemote || d.Shards != 2 {
			t.Fatalf("got %s shards=%d (%s), want remote on the 2 free workers", d.Route, d.Shards, d.Reason)
		}
		for _, a := range d.Addrs {
			if a == addrs[0] {
				t.Fatalf("planner leased the busy worker %s", a)
			}
		}
	})
}

// TestPlannerLoadInputIsInFlight pins the planner's load signal to the
// registry's live lease counts: a worker with the fastest probe RTT but
// a busy session slot must lose to slower idle workers. (RTT measures
// the accept loop, not slot availability.)
func TestPlannerLoadInputIsInFlight(t *testing.T) {
	addrs := []string{"fast:1", "slow1:1", "slow2:1"}
	rounds := []shard.WorkerHealth{
		{Addr: addrs[0], Alive: true, RTT: time.Microsecond},
		{Addr: addrs[1], Alive: true, RTT: time.Second},
		{Addr: addrs[2], Alive: true, RTT: time.Second},
	}
	probe := &scriptProbe{rounds: [][]shard.WorkerHealth{rounds}}
	r, err := fleet.New(fleet.Config{Addrs: addrs, Now: newFakeClock().Now, Probe: probe.probe})
	if err != nil {
		t.Fatal(err)
	}
	r.ProbeOnce(context.Background())

	hold := r.Acquire(1) // occupies the fast worker's only slot
	defer hold.Release()
	if hold == nil || hold.Addrs[0] != addrs[0] {
		t.Fatalf("setup lease went to %v, want %s", hold.Addrs, addrs[0])
	}
	d := r.Plan(chainGraph(t, 64), fleet.PlannerConfig{MinEdges: 16, MinWorkers: 2, MaxWorkers: 3})
	defer d.Release()
	if d.Route != fleet.RouteRemote || len(d.Addrs) != 2 {
		t.Fatalf("got %s addrs=%v (%s), want remote on the two idle workers", d.Route, d.Addrs, d.Reason)
	}
	for _, a := range d.Addrs {
		if a == addrs[0] {
			t.Fatal("planner chose the low-RTT worker whose session slot is taken: load input must be in-flight leases, not probe RTT")
		}
	}
}

// TestDecisionSpecClearsKindKnobs: a fleet-routed request keeps none of
// the knobs of the kind it named once it is rewritten to sharded — in
// particular a request for the serial oracle (fused: false), which is
// fleet-eligible, must not fail Validate after routing.
func TestDecisionSpecClearsKindKnobs(t *testing.T) {
	r, _, pc := plannerFleet(t)
	d := r.Plan(chainGraph(t, 64), pc)
	defer d.Release()
	if d.Route != fleet.RouteRemote {
		t.Fatalf("got %s (%s), want a remote route", d.Route, d.Reason)
	}
	off := false
	spec := d.Spec(admm.ExecutorSpec{Kind: admm.ExecSerial, Fused: &off})
	if spec.Kind != admm.ExecSharded || spec.Fused != nil {
		t.Fatalf("routed spec %+v still carries the request kind's knobs", spec)
	}
	if err := spec.Validate(); err != nil {
		t.Fatalf("routed spec does not validate: %v", err)
	}
}

// TestOnePartitionPriced: the auto policy, the fleet planner and the
// sharded backend all price one split. On the benchmark's mpc chain
// (k=16000) at 2 shards, auto resolves to sharded, the planner's cut
// share is the balanced partition's graph.CutCost over the edge-state
// words, and the backend reports that same CutCost after a solve.
func TestOnePartitionPriced(t *testing.T) {
	p, err := mpc.FromSpec(mpc.Spec{K: 16000})
	if err != nil {
		t.Fatal(err)
	}
	g := p.Graph
	g.InitZero()
	part, err := graph.NewPartition(g, 2, graph.StrategyBalanced)
	if err != nil {
		t.Fatal(err)
	}
	cut := graph.CutCost(g, &part)
	st := g.Stats()

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	spec := admm.ExecutorSpec{Kind: admm.ExecAuto}.ResolveAuto(g)
	if spec.Kind != admm.ExecSharded || spec.Shards != 2 {
		t.Fatalf("auto resolved to %+v, want sharded at 2 shards", spec)
	}

	r, _, pc := plannerFleet(t)
	pc.MaxWorkers = 2
	d := r.Plan(g, pc)
	d.Release()
	if d.Route != fleet.RouteRemote || d.Shards != 2 {
		t.Fatalf("planner: %s (%s) at %d shards, want remote at 2", d.Route, d.Reason, d.Shards)
	}
	if want := cut / float64(st.Edges*st.D); d.CutShare != want {
		t.Fatalf("planner cut share %v, want CutCost %v / %d edge words = %v", d.CutShare, cut, st.Edges*st.D, want)
	}

	out, err := shard.Solve(context.Background(), g, admm.SolveOptions{Executor: spec, MaxIter: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.ShardStats.Workers) == 0 || out.ShardStats.CutCost != cut {
		t.Fatalf("backend cut cost %v (%d workers' stats), want %v", out.ShardStats.CutCost, len(out.ShardStats.Workers), cut)
	}
}
