package shard

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/admm"
	"repro/internal/exchange"
	"repro/internal/graph"
	"repro/internal/packing"
)

// packingGraph builds an n-circle packing instance a few fused serial
// iterations into its solve, so X and U are both busy. Equal arguments
// give bit-identical graphs.
func packingGraph(tb testing.TB, n int) *graph.Graph {
	tb.Helper()
	p, err := packing.FromSpec(packing.Spec{N: n})
	if err != nil {
		tb.Fatal(err)
	}
	p.InitRandom(rand.New(rand.NewSource(3)))
	var nanos [admm.NumPhases]int64
	admm.NewSerialFused().Iterate(p.Graph, 3, &nanos)
	return p.Graph
}

// mailboxCell is one transport's plan, manifest and mailbox over a
// graph, driven on the test's own goroutine.
type mailboxCell struct {
	name string
	plan *plan
	man  *exchange.Manifest
	mb   *exchange.Mailbox
	lb   *exchange.Messaged // nil on shared memory
}

// mailboxCells builds the fused shared-memory cell (balanced owners,
// one buffer per row) and the fused loopback cell (majority owners,
// every row framed and decoded) of one partition.
func mailboxCells(tb testing.TB, g *graph.Graph, shards int, strategy graph.PartitionStrategy) []mailboxCell {
	tb.Helper()
	local, err := newPlan(g, shards, strategy, false, true)
	if err != nil {
		tb.Fatal(err)
	}
	wire, err := newPlan(g, shards, strategy, false, false)
	if err != nil {
		tb.Fatal(err)
	}
	localMan := exchange.NewManifestOwners(g, &local.part, shards, local.owner)
	wireMan := exchange.NewManifest(g, &wire.part, shards)
	lb := exchange.NewLoopback(g, wireMan, true)
	tb.Cleanup(func() { lb.Close() })
	return []mailboxCell{
		{"local", local, localMan, exchange.NewMailbox(g, localMan), nil},
		{"loopback", wire, wireMan, lb.Mailbox(), lb},
	}
}

// phaseAThroughSync1 runs every shard's fused phase A and its posts,
// then carries the rows across sync point 1: nothing to do on shared
// memory (one goroutine), all sends then all receives on the loopback
// (its writes never block).
func (c *mailboxCell) phaseAThroughSync1(g *graph.Graph) {
	for w := range c.plan.local {
		lp := &c.plan.local[w]
		for _, r := range lp.funcRuns {
			admm.UpdateXRange(g, r.Lo, r.Hi)
		}
		for _, r := range lp.interiorRuns {
			admm.UpdateZFusedRange(g, r.Lo, r.Hi)
		}
		c.mb.Post(w)
	}
	if c.lb == nil {
		return
	}
	for w := range c.plan.local {
		c.lb.BeginGatherM(w)
	}
	for w := range c.plan.local {
		c.lb.FinishGatherM(w)
	}
}

// TestCombineReadsNoRemoteEdgeState pins the structure the packed rows
// exist for: after phase A and the posts, a shard combines its boundary
// z without reading X or U of any edge it does not own — every such
// block is poisoned with NaN before its Combine — and the result is
// bit-identical to the serial fused z-update on an untouched copy.
func TestCombineReadsNoRemoteEdgeState(t *testing.T) {
	for _, shards := range []int{2, 3} {
		ref := packingGraph(t, 12)
		admm.UpdateXRange(ref, 0, ref.NumFunctions())
		admm.UpdateZFusedRange(ref, 0, ref.NumVariables())
		for _, build := range []int{0, 1} {
			g := packingGraph(t, 12)
			c := mailboxCells(t, g, shards, graph.StrategyBalanced)[build]
			t.Run(fmt.Sprintf("%s-%d", c.name, shards), func(t *testing.T) {
				if len(c.plan.part.BoundaryVars) == 0 {
					t.Fatal("no boundary to combine")
				}
				c.phaseAThroughSync1(g)
				d := g.D()
				keepX := append([]float64(nil), g.X...)
				keepU := append([]float64(nil), g.U...)
				for w := range c.plan.local {
					if c.lb == nil && len(c.plan.local[w].boundary) == 0 {
						t.Fatalf("shard %d combines nothing on shared memory", w)
					}
					owned := make([]bool, g.NumEdges())
					for _, r := range c.plan.local[w].edgeRuns {
						for e := r.Lo; e < r.Hi; e++ {
							owned[e] = true
						}
					}
					for e, mine := range owned {
						if !mine {
							for i := e * d; i < (e+1)*d; i++ {
								g.X[i], g.U[i] = math.NaN(), math.NaN()
							}
						}
					}
					c.mb.Combine(w)
					copy(g.X, keepX)
					copy(g.U, keepU)
				}
				for i := range ref.Z {
					if math.Float64bits(g.Z[i]) != math.Float64bits(ref.Z[i]) {
						t.Fatalf("Z[%d] = %g, serial fused z-update has %g", i, g.Z[i], ref.Z[i])
					}
				}
			})
		}
	}
}

// TestInboxRowsMatchManifest: under every strategy and shard count, on
// every workload and both transports, each ordered pair's inbox row is
// exactly its off-diagonal Manifest.MEdges row — one d-block of x + u
// per listed edge, in manifest order, nothing else.
func TestInboxRowsMatchManifest(t *testing.T) {
	strategies := []graph.PartitionStrategy{
		graph.StrategyBlock, graph.StrategyBalanced, graph.StrategyGreedyMincut, graph.StrategyMincutFM,
	}
	for wname, wl := range transportWorkloads(t) {
		g := wl.g
		g.InitRandom(-1, 1, rand.New(rand.NewSource(5)))
		d := g.D()
		for _, strategy := range strategies {
			for _, shards := range []int{2, 3, 4, 7} {
				for _, c := range mailboxCells(t, g, shards, strategy) {
					c.phaseAThroughSync1(g)
					for i := 0; i < shards; i++ {
						for j := 0; j < shards; j++ {
							edges, row := c.man.MEdges[i*shards+j], c.mb.Row(i, j)
							if i == j {
								edges = nil
							}
							if len(row) != len(edges)*d {
								t.Fatalf("%s/%s/%d/%s: row %d->%d holds %d doubles for %d edges (d=%d)",
									wname, strategy, shards, c.name, i, j, len(row), len(edges), d)
							}
							for idx, e := range edges {
								for k := 0; k < d; k++ {
									at := int(e)*d + k
									if want := g.X[at] + g.U[at]; math.Float64bits(row[idx*d+k]) != math.Float64bits(want) {
										t.Fatalf("%s/%s/%d/%s: row %d->%d block %d (edge %d) [%d] = %g, want x+u = %g",
											wname, strategy, shards, c.name, i, j, idx, e, k, row[idx*d+k], want)
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// BenchmarkBoundaryCombine times the boundary half of one fused
// iteration on the benchmark's packing shape (n=64, 2 shards, shared
// memory): both shards' posts, then both shards' combines, on one
// goroutine, in ns per boundary edge.
func BenchmarkBoundaryCombine(b *testing.B) {
	g := packingGraph(b, 64)
	c := mailboxCells(b, g, 2, graph.StrategyBalanced)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.mb.Post(0)
		c.mb.Post(1)
		c.mb.Combine(0)
		c.mb.Combine(1)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(c.plan.part.BoundaryEdges), "ns/boundary-edge")
}
