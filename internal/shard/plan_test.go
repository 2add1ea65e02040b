package shard

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/admm"
	"repro/internal/exchange"
	"repro/internal/graph"
	"repro/internal/sched"
)

// flatten expands runs into indices, failing unless they are ascending
// and disjoint.
func flatten(t *testing.T, what string, runs []sched.Range) []int {
	t.Helper()
	var out []int
	for _, r := range runs {
		if r.Lo >= r.Hi || (len(out) > 0 && r.Lo <= out[len(out)-1]) {
			t.Fatalf("%s: run [%d,%d) is empty or not after the %d indices before it", what, r.Lo, r.Hi, len(out))
		}
		for i := r.Lo; i < r.Hi; i++ {
			out = append(out, i)
		}
	}
	return out
}

// TestPlanSplitsPartitionRuns pins what the plan decides — the x half
// of the schedule runShardIters executes, the interior sweep's split
// around the combine — and where each owned edge takes its u/n. On
// every workload, shard count and plan kind, xBefore and xAfter
// partition the shard's functions exactly, and its edges split exactly
// into three groups: the edges of its interior variables (the z
// sweeps' u/n, interiorRuns ∪ interiorAfter), its own edges on the
// boundary variables it combines (the combine's u/n) and the edges it
// posts in the plan's manifest (Mailbox.Settle's u/n), which are
// exactly the edges whose variable a peer combines, on both transports
// — so every owned edge gets one u/n update per iteration. A
// shared-memory plan leaves nothing to overlap, and its fill
// (interiorAfter) is the longest suffix of the interior whose degree
// keeps the shard's combine plus fill within the largest combine
// degree; a message plan runs before BeginGatherM exactly the
// functions that own a posted edge, and fills nothing. An MPC chain
// moves at most one variable per shard; packingFill pins packing-wide.
func TestPlanSplitsPartitionRuns(t *testing.T) {
	for name, g := range transportWorkloads(t) {
		for _, shards := range []int{1, 2, 4} {
			for _, shared := range []bool{true, false} {
				kind := "message"
				if shared {
					kind = "shared-memory"
				}
				t.Run(fmt.Sprintf("%s-%d-%s", name, shards, kind), func(t *testing.T) {
					p, err := newPlan(g, shards, shared)
					if err != nil {
						t.Fatal(err)
					}
					man := exchange.NewManifestOwners(g, &p.part, shards, p.owner)
					frontierFuncs := 0
					combine := combineDegrees(p)
					most := slices.Max(combine)
					for s := range p.local {
						lp := &p.local[s]
						funcs := flatten(t, "funcRuns", lp.funcRuns)
						edges := flatten(t, "edgeRuns", lp.edgeRuns)
						xBefore := flatten(t, "xBefore", lp.xBefore)
						xAfter := flatten(t, "xAfter", lp.xAfter)
						if got := slices.Sorted(slices.Values(append(slices.Clone(xBefore), xAfter...))); !slices.Equal(got, funcs) {
							t.Fatalf("shard %d: xBefore ∪ xAfter = %v, funcRuns = %v", s, got, funcs)
						}
						mine := func(e int) bool { return slices.Contains(edges, e) }
						var interior, combined, posted []int
						before := flatten(t, "interiorRuns", lp.interiorRuns)
						after := flatten(t, "interiorAfter", lp.interiorAfter)
						for _, v := range slices.Concat(before, after) {
							interior = append(interior, g.VarEdges(v)...)
						}
						checkFill(t, g, s, before, after, most-combine[s], shared)
						if name == "mpc" && len(after) > 1 {
							t.Fatalf("shard %d: the chain's fill moves %d variables, want at most one", s, len(after))
						}
						for _, v := range lp.boundary {
							for _, e := range g.VarEdges(v) {
								if mine(e) {
									combined = append(combined, e)
								}
							}
						}
						for j := 0; j < shards; j++ {
							if j != s {
								for _, e := range man.MEdges[s*shards+j] {
									posted = append(posted, int(e))
								}
							}
						}
						groups := slices.Concat(interior, combined, posted)
						if got := slices.Sorted(slices.Values(groups)); !slices.Equal(got, edges) {
							t.Fatalf("shard %d: interior edges (%d) + own edges of combined boundary variables (%d) + posted edges (%d) = %v, edgeRuns = %v",
								s, len(interior), len(combined), len(posted), got, edges)
						}
						var peers []int
						for _, e := range edges {
							if v := g.EdgeVar(e); p.part.IsBoundary(v) && p.owner[v] != s {
								peers = append(peers, e)
							}
						}
						if got := slices.Sorted(slices.Values(posted)); !slices.Equal(got, peers) {
							t.Fatalf("shard %d: posted edges %v, the edges whose variable a peer combines %v", s, got, peers)
						}
						if shared {
							if len(xAfter) != 0 {
								t.Fatalf("shard %d: shared-memory plan runs %d functions after the post", s, len(xAfter))
							}
							continue
						}
						for _, a := range funcs {
							lo, hi := g.FuncEdges(a)
							frontier := false
							for e := lo; e < hi; e++ {
								frontier = frontier || slices.Contains(posted, e)
							}
							if before := slices.Contains(xBefore, a); before != frontier {
								t.Fatalf("shard %d: function %d in xBefore = %v, owns a posted edge = %v", s, a, before, frontier)
							}
						}
						frontierFuncs += len(xBefore)
					}
					if !shared && shards > 1 && len(p.part.BoundaryVars) > 0 && frontierFuncs == 0 {
						t.Fatal("a cut partition has no frontier function: nothing would be sent")
					}
				})
			}
		}
	}
	t.Run("packing64-2-fill", packingFill)
}

// combineDegrees returns each shard's combine degree: the summed
// degree of the boundary variables it combines.
func combineDegrees(p *plan) []int {
	out := make([]int, len(p.local))
	for s := range p.local {
		for _, v := range p.local[s].boundary {
			out[s] += p.g.VarDegree(v)
		}
	}
	return out
}

// checkFill fails unless after, shard s's fill, is empty on a message
// plan and, on shared memory, is the longest suffix of before ∪ after
// whose summed degree is at most gap.
func checkFill(t *testing.T, g *graph.Graph, s int, before, after []int, gap int, shared bool) {
	t.Helper()
	if !shared {
		if len(after) != 0 {
			t.Fatalf("shard %d: message plan fills %d interior variables behind the combine", s, len(after))
		}
		return
	}
	if len(before) > 0 && len(after) > 0 && before[len(before)-1] > after[0] {
		t.Fatalf("shard %d: fill starts at variable %d, ahead of interior variable %d", s, after[0], before[len(before)-1])
	}
	fill := 0
	for _, v := range after {
		fill += g.VarDegree(v)
	}
	if fill > gap {
		t.Fatalf("shard %d: fill of degree %d exceeds the gap %d to the largest combine degree", s, fill, gap)
	}
	if n := len(before); n > 0 && fill+g.VarDegree(before[n-1]) <= gap {
		t.Fatalf("shard %d: fill of degree %d is not maximal: interior variable %d (degree %d) fits the gap %d",
			s, fill, before[n-1], g.VarDegree(before[n-1]), gap)
	}
}

// packingFill pins the fill on the benchmark's packing-wide graph
// (n = 64) at 2 shards: the even gather owners leave shard 0 combining
// 1862 edges against shard 1's 4256, and all 36 of shard 0's interior
// variables (2394 edges) move behind its combine, so both shards carry
// 4256 edges between the barriers and none before the first.
func packingFill(t *testing.T) {
	g := packingGraph(t, 64)
	p, err := newPlan(g, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	combine := combineDegrees(p)
	degree := func(runs []sched.Range) (vars, edges int) {
		for _, v := range flatten(t, "interior", runs) {
			vars, edges = vars+1, edges+g.VarDegree(v)
		}
		return vars, edges
	}
	for s, want := range []struct{ combine, moved, movedVars int }{{1862, 2394, 36}, {4256, 0, 0}} {
		lp := &p.local[s]
		if _, early := degree(lp.interiorRuns); early != 0 {
			t.Fatalf("shard %d sweeps %d interior edges before the first barrier, want 0", s, early)
		}
		vars, moved := degree(lp.interiorAfter)
		if combine[s] != want.combine || moved != want.moved || vars != want.movedVars {
			t.Fatalf("shard %d: combine %d, fill %d edges over %d variables; want %d, %d over %d",
				s, combine[s], moved, vars, want.combine, want.moved, want.movedVars)
		}
		if between := combine[s] + moved; between != 4256 {
			t.Fatalf("shard %d carries %d edges between the barriers, want 4256", s, between)
		}
	}
}

// TestShardLoopTimeAddsUp: every nanosecond runShardIters spends lands
// in exactly one bucket, so worker 0's phase times plus its sync wait
// add up to the loop's wall time on both transports — a per-worker wait
// share is only evidence if it does — and boundary z is a part of the z
// phase, not an addition to it. The local-fill row times a worker that
// sweeps a fill between the barriers (packing, n = 12).
func TestShardLoopTimeAddsUp(t *testing.T) {
	const shards, iters = 2, 3000
	for _, c := range []struct {
		name, transport string
		g               *graph.Graph
	}{
		{admm.TransportLocal, admm.TransportLocal, chainGraph(t, 400)},
		{admm.TransportSockets, admm.TransportSockets, chainGraph(t, 400)},
		{"local-fill", admm.TransportLocal, packingGraph(t, 12)},
	} {
		t.Run(c.name, func(t *testing.T) {
			g := c.g
			shared := c.transport == admm.TransportLocal
			p, err := newPlan(g, shards, shared)
			if err != nil {
				t.Fatal(err)
			}
			if c.name == "local-fill" && len(p.local[0].interiorAfter) == 0 {
				t.Fatal("worker 0 has no fill to time")
			}
			var ex exchange.Exchanger
			var mb *exchange.Mailbox
			if shared {
				ex = exchange.NewLocal(shards)
				mb = exchange.NewMailbox(g, exchange.NewManifestOwners(g, &p.part, shards, p.owner))
			} else {
				lb := exchange.NewLoopback(g, exchange.NewManifest(g, &p.part, shards), true)
				ex, mb = lb, lb.Mailbox()
			}
			defer ex.Close()

			var tms [shards]workerTimings
			var wg sync.WaitGroup
			for id := 1; id < shards; id++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					runShardIters(g, &p.local[id], ex, mb, id, iters, &tms[id])
				}()
			}
			start := time.Now()
			runShardIters(g, &p.local[0], ex, mb, 0, iters, &tms[0])
			wall := time.Since(start)
			wg.Wait()

			tm := &tms[0]
			sum := tm.syncWait
			for _, v := range tm.phaseNanos {
				sum += v
			}
			if diff := wall.Nanoseconds() - sum; diff < 0 || float64(diff) > 0.02*float64(wall.Nanoseconds()) {
				t.Fatalf("phases %v + sync wait %d = %d ns, loop wall time %d ns: off by %d ns (> 2%%)",
					tm.phaseNanos, tm.syncWait, sum, wall.Nanoseconds(), diff)
			}
			if tm.phaseNanos[admm.PhaseM] != 0 || tm.phaseNanos[admm.PhaseN] != 0 {
				t.Fatalf("the fused loop charged the m or n bucket: %v", tm.phaseNanos)
			}
			if tm.boundaryZ <= 0 || tm.boundaryZ > tm.phaseNanos[admm.PhaseZ] {
				t.Fatalf("boundary z %d ns is not a part of the z phase's %d ns", tm.boundaryZ, tm.phaseNanos[admm.PhaseZ])
			}
			if tm.syncWait <= 0 {
				t.Fatal("no sync wait recorded across 6000 sync points")
			}
		})
	}
}
