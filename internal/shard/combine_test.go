package shard

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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
func mailboxCells(tb testing.TB, g *graph.Graph, shards int) []mailboxCell {
	tb.Helper()
	local, err := newPlan(g, shards, true)
	if err != nil {
		tb.Fatal(err)
	}
	wire, err := newPlan(g, shards, false)
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
		for _, r := range slices.Concat(lp.interiorRuns, lp.interiorAfter) {
			admm.UpdateZUNRange(g, r.Lo, r.Hi)
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
// bit-identical to the serial fused sweep on an untouched copy. It pins
// the combine's write set too: U and N of every edge but the shard's own
// edges on the variables it combines carry a tagged NaN through the
// Combine, and those own edges get the serial sweep's u and n. Then the
// same for Settle and the edges the shard posted.
func TestCombineReadsNoRemoteEdgeState(t *testing.T) {
	for _, shards := range []int{2, 3} {
		ref := packingGraph(t, 12)
		admm.UpdateXRange(ref, 0, ref.NumFunctions())
		admm.UpdateZUNRange(ref, 0, ref.NumVariables())
		for _, build := range []int{0, 1} {
			g := packingGraph(t, 12)
			c := mailboxCells(t, g, shards)[build]
			t.Run(fmt.Sprintf("%s-%d", c.name, shards), func(t *testing.T) {
				if len(c.plan.part.BoundaryVars) == 0 {
					t.Fatal("no boundary to combine")
				}
				c.phaseAThroughSync1(g)
				d := g.D()
				keepX := append([]float64(nil), g.X...)
				keepU := append([]float64(nil), g.U...)
				keepN := append([]float64(nil), g.N...)
				tag := func(e int) float64 { return math.Float64frombits(0x7ff8_dead_0000_0000 | uint64(e)) }
				written := 0
				for w := range c.plan.local {
					lp := &c.plan.local[w]
					if c.lb == nil && len(lp.boundary) == 0 {
						t.Fatalf("shard %d combines nothing on shared memory", w)
					}
					owned := make([]bool, g.NumEdges())
					for _, r := range lp.edgeRuns {
						for e := r.Lo; e < r.Hi; e++ {
							owned[e] = true
						}
					}
					combined := make([]bool, g.NumEdges())
					for _, v := range lp.boundary {
						for _, e := range g.VarEdges(v) {
							combined[e] = owned[e]
						}
					}
					for e := range owned {
						for i := e * d; i < (e+1)*d; i++ {
							if !owned[e] {
								g.X[i] = math.NaN()
							}
							if !combined[e] {
								g.U[i], g.N[i] = tag(e), tag(e)
							}
						}
					}
					c.mb.Combine(w)
					for e, mine := range combined {
						for i := e * d; i < (e+1)*d; i++ {
							wantU, wantN := tag(e), tag(e)
							if mine {
								wantU, wantN = ref.U[i], ref.N[i]
								written++
							}
							if math.Float64bits(g.U[i]) != math.Float64bits(wantU) || math.Float64bits(g.N[i]) != math.Float64bits(wantN) {
								t.Fatalf("shard %d: edge %d (own edge on a variable it combines: %v) has U[%d], N[%d] = %g, %g after the combine, want %g, %g",
									w, e, mine, i, i, g.U[i], g.N[i], wantU, wantN)
							}
						}
					}
					copy(g.X, keepX)
					copy(g.U, keepU)
					copy(g.N, keepN)
				}
				if written == 0 {
					t.Fatal("no shard combines an edge of its own: the write set went unchecked")
				}
				for i := range ref.Z {
					if math.Float64bits(g.Z[i]) != math.Float64bits(ref.Z[i]) {
						t.Fatalf("Z[%d] = %g, serial fused sweep has %g", i, g.Z[i], ref.Z[i])
					}
				}
				// Every boundary z is in place (one graph in-process), so
				// each shard's Settle must give exactly the edges it
				// posted the serial sweep's u and n, and write no other.
				written = 0
				for w := range c.plan.local {
					posted := make([]bool, g.NumEdges())
					for j := 0; j < shards; j++ {
						if j != w {
							for _, e := range c.man.MEdges[w*shards+j] {
								posted[e] = true
							}
						}
					}
					for e, mine := range posted {
						for i := e * d; i < (e+1)*d && !mine; i++ {
							g.U[i], g.N[i] = tag(e), tag(e)
						}
					}
					c.mb.Settle(w)
					for e, mine := range posted {
						for i := e * d; i < (e+1)*d; i++ {
							wantU, wantN := tag(e), tag(e)
							if mine {
								wantU, wantN = ref.U[i], ref.N[i]
								written++
							}
							if math.Float64bits(g.U[i]) != math.Float64bits(wantU) || math.Float64bits(g.N[i]) != math.Float64bits(wantN) {
								t.Fatalf("shard %d: edge %d (posted: %v) has U[%d], N[%d] = %g, %g after Settle, want %g, %g",
									w, e, mine, i, i, g.U[i], g.N[i], wantU, wantN)
							}
						}
					}
					copy(g.U, keepU)
					copy(g.N, keepN)
				}
				if written == 0 {
					t.Fatal("no shard posts an edge: Settle went unchecked")
				}
			})
		}
	}
}

// TestInboxRowsMatchManifest: at every shard count, on
// every workload and both transports, each ordered pair's inbox row is
// exactly its off-diagonal Manifest.MEdges row — one d-block of x + u
// per listed edge, in manifest order, nothing else.
func TestInboxRowsMatchManifest(t *testing.T) {
	for wname, g := range transportWorkloads(t) {
		g.InitRandom(-1, 1, rand.New(rand.NewSource(5)))
		d := g.D()
		for _, shards := range []int{2, 3, 4, 7} {
			for _, c := range mailboxCells(t, g, shards) {
				c.phaseAThroughSync1(g)
				for i := 0; i < shards; i++ {
					for j := 0; j < shards; j++ {
						edges, row := c.man.MEdges[i*shards+j], c.mb.Row(i, j)
						if i == j {
							edges = nil
						}
						if len(row) != len(edges)*d {
							t.Fatalf("%s/%d/%s: row %d->%d holds %d doubles for %d edges (d=%d)",
								wname, shards, c.name, i, j, len(row), len(edges), d)
						}
						for idx, e := range edges {
							for k := 0; k < d; k++ {
								at := int(e)*d + k
								if want := g.X[at] + g.U[at]; math.Float64bits(row[idx*d+k]) != math.Float64bits(want) {
									t.Fatalf("%s/%d/%s: row %d->%d block %d (edge %d) [%d] = %g, want x+u = %g",
										wname, shards, c.name, i, j, idx, e, k, row[idx*d+k], want)
								}
							}
						}
					}
				}
			}
		}
	}
}

// BenchmarkBoundaryCombine times the boundary combine of one fused
// iteration — each boundary variable's z, then the u/n of its
// combiner's own edges on it — on the benchmark's packing shape (n=64,
// 2 shards), both shards' combines on one goroutine after one round of
// posts, in ns per boundary edge: on the Go loops (go/*) and, where the
// CPU has it, the AVX2 kernel (avx2/*), over shared memory (*/local)
// and the framed loopback (*/loopback). The combines move U, so every
// 1024 rounds it is put back, untimed.
func BenchmarkBoundaryCombine(b *testing.B) {
	kernels := []string{"go"}
	if combineAVX2 {
		kernels = append(kernels, "avx2")
	}
	for _, kernel := range kernels {
		for _, cell := range []int{0, 1} {
			g := packingGraph(b, 64)
			c := mailboxCells(b, g, 2)[cell]
			b.Run(kernel+"/"+c.name, func(b *testing.B) {
				forceCombineAVX2(b, kernel == "avx2")
				c.phaseAThroughSync1(g)
				keepU := append([]float64(nil), g.U...)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if i%1024 == 1023 {
						b.StopTimer()
						copy(g.U, keepU)
						b.StartTimer()
					}
					c.mb.Combine(0)
					c.mb.Combine(1)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(c.plan.part.BoundaryEdges), "ns/boundary-edge")
			})
		}
	}
}

// BenchmarkShardedPacking times one 2000-iteration solve block of the
// benchmark's packing shape (n=64) on a 2-shard backend, over shared
// memory (local) and the framed loopback (sockets), from the same
// start every op (restored untimed), so a schedule change can be sized
// without the full benchmark. It reports each worker's share of the
// block spent waiting at the sync points (w0-wait, w1-wait).
func BenchmarkShardedPacking(b *testing.B) {
	const iters = 2000
	for _, transport := range []string{admm.TransportLocal, admm.TransportSockets} {
		b.Run(transport, func(b *testing.B) {
			g := packingGraph(b, 64)
			be, err := New(2)
			if err != nil {
				b.Fatal(err)
			}
			defer be.Close()
			be.Transport = transport
			be.RunBlock(g, admm.Block{Iters: 1}) // plan the graph, untimed
			x, u, n, z := slices.Clone(g.X), slices.Clone(g.U), slices.Clone(g.N), slices.Clone(g.Z)
			before := be.Stats().Workers
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(g.X, x)
				copy(g.U, u)
				copy(g.N, n)
				copy(g.Z, z)
				b.StartTimer()
				be.RunBlock(g, admm.Block{Iters: iters})
			}
			b.StopTimer()
			for w, ws := range be.Stats().Workers {
				total := ws.SyncWait - before[w].SyncWait
				for p, v := range ws.PhaseNanos {
					total += v - before[w].PhaseNanos[p]
				}
				b.ReportMetric(float64(ws.SyncWait-before[w].SyncWait)/float64(total), fmt.Sprintf("w%d-wait", w))
			}
		})
	}
}
