package shard

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/admm"
	"repro/internal/exchange"
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

// TestPlanSplitsPartitionRuns pins what the plan now decides — the
// schedule runShardIters executes. On every workload, shard count and
// plan kind, the before/after lists partition the shard's functions
// (resp. edges) exactly; a shared-memory plan leaves nothing to overlap;
// a message plan runs before BeginGatherM exactly the functions that
// own an edge on a boundary variable another shard combines, and after
// FinishScatterZ exactly those edges.
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
					frontierFuncs := 0
					for s := range p.local {
						lp := &p.local[s]
						funcs := flatten(t, "funcRuns", lp.funcRuns)
						edges := flatten(t, "edgeRuns", lp.edgeRuns)
						xBefore := flatten(t, "xBefore", lp.xBefore)
						xAfter := flatten(t, "xAfter", lp.xAfter)
						unBefore := flatten(t, "unBefore", lp.unBefore)
						unAfter := flatten(t, "unAfter", lp.unAfter)
						if got := slices.Sorted(slices.Values(append(slices.Clone(xBefore), xAfter...))); !slices.Equal(got, funcs) {
							t.Fatalf("shard %d: xBefore ∪ xAfter = %v, funcRuns = %v", s, got, funcs)
						}
						if got := slices.Sorted(slices.Values(append(slices.Clone(unBefore), unAfter...))); !slices.Equal(got, edges) {
							t.Fatalf("shard %d: unBefore ∪ unAfter = %v, edgeRuns = %v", s, got, edges)
						}
						if shared {
							if len(xAfter) != 0 || len(unBefore) != 0 {
								t.Fatalf("shard %d: shared-memory plan split its work (%d functions after the post, %d edges before the z barrier)",
									s, len(xAfter), len(unBefore))
							}
							continue
						}
						remote := func(e int) bool {
							v := g.EdgeVar(e)
							return p.part.IsBoundary(v) && p.owner[v] != s
						}
						for _, e := range edges {
							if after := slices.Contains(unAfter, e); after != remote(e) {
								t.Fatalf("shard %d: edge %d in unAfter = %v, its z is remotely combined = %v", s, e, after, remote(e))
							}
						}
						for _, a := range funcs {
							lo, hi := g.FuncEdges(a)
							frontier := false
							for e := lo; e < hi; e++ {
								frontier = frontier || remote(e)
							}
							if before := slices.Contains(xBefore, a); before != frontier {
								t.Fatalf("shard %d: function %d in xBefore = %v, owns a remotely combined edge = %v", s, a, before, frontier)
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
}

// TestShardLoopTimeAddsUp: every nanosecond runShardIters spends lands
// in exactly one bucket, so worker 0's phase times plus its sync wait
// add up to the loop's wall time on both transports — a per-worker wait
// share is only evidence if it does — and boundary z is a part of the z
// phase, not an addition to it.
func TestShardLoopTimeAddsUp(t *testing.T) {
	const shards, iters = 2, 3000
	for _, transport := range []string{admm.TransportLocal, admm.TransportSockets} {
		t.Run(transport, func(t *testing.T) {
			g := chainGraph(t, 400)
			shared := transport == admm.TransportLocal
			p, err := newPlan(g, shards, shared)
			if err != nil {
				t.Fatal(err)
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
