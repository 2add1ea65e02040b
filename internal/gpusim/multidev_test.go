package gpusim

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/mpc"
	"repro/internal/packing"
	"repro/internal/prox"
)

func TestNewMultiDeviceValidation(t *testing.T) {
	if _, err := NewMultiDevice(nil, 0); err == nil {
		t.Fatal("expected count error")
	}
	bad := TeslaK40()
	bad.SMs = 0
	if _, err := NewMultiDevice(bad, 2); err == nil {
		t.Fatal("expected profile error")
	}
	md, err := NewMultiDevice(nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if md.Device == nil || md.Count != 2 {
		t.Fatalf("bad multi-device %+v", md)
	}
}

func TestPartitionSingleDeviceHasNoBoundary(t *testing.T) {
	g := testGraph(t, 3, 30, 100, 2)
	p := PartitionByVariable(g, 1)
	if len(p.BoundaryVars) != 0 || p.BoundaryEdges != 0 {
		t.Fatalf("single-device partition has boundary: %+v", p)
	}
}

// chainGraph builds an MPC-like chain: consensus nodes linking variable
// t to t+1.
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

func TestChainGraphHasTinyBoundary(t *testing.T) {
	g := chainGraph(t, 10000)
	p := PartitionByVariable(g, 4)
	// The locality-aware split cuts the chain at 3 places only.
	if len(p.BoundaryVars) > 8 {
		t.Fatalf("chain boundary vars = %d, want a handful", len(p.BoundaryVars))
	}
}

func TestMultiDeviceSpeedupChainVsDense(t *testing.T) {
	// Chain-like graphs should multi-device-scale much better than the
	// dense packing graph, whose every variable is boundary.
	chain, err := mpc.Build(mpc.Config{K: 20000})
	if err != nil {
		t.Fatal(err)
	}
	dense, err := packing.Build(packing.Config{N: 300})
	if err != nil {
		t.Fatal(err)
	}
	chainPts, err := Scaling(chain.Graph, nil, []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	densePts, err := Scaling(dense.Graph, nil, []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if chainPts[1].Speedup <= densePts[1].Speedup {
		t.Fatalf("chain 4-device speedup %.2f not above dense %.2f",
			chainPts[1].Speedup, densePts[1].Speedup)
	}
	if chainPts[1].Speedup < 1.5 {
		t.Fatalf("chain 4-device speedup %.2f too low", chainPts[1].Speedup)
	}
	// Dense graph: nearly every variable is boundary.
	dp := PartitionByVariable(dense.Graph, 4)
	if frac := float64(len(dp.BoundaryVars)) / float64(dense.Graph.NumVariables()); frac < 0.5 {
		t.Fatalf("packing boundary fraction %.2f unexpectedly low", frac)
	}
}

func TestIterationTimeSingleDeviceMatchesBackend(t *testing.T) {
	g := testGraph(t, 5, 40, 120, 2)
	md, err := NewMultiDevice(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	total, compute, exch := md.IterationTime(g, PartitionByVariable(g, 1))
	if exch != 0 {
		t.Fatalf("single device exchange %g", exch)
	}
	want := NewBackend(nil).SimulatedIterationSec(g)
	if total != want || compute != want {
		t.Fatalf("single-device time %g, backend %g", total, want)
	}
}

func TestScalingMonotonicBookkeeping(t *testing.T) {
	g := chainGraph(t, 5000)
	pts, err := Scaling(g, nil, []int{1, 2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Speedup != 1 {
		t.Fatalf("1-device speedup %g", pts[0].Speedup)
	}
	for _, p := range pts {
		if p.ExchangeShare < 0 || p.ExchangeShare > 1 {
			t.Fatalf("exchange share %g out of range", p.ExchangeShare)
		}
		if p.BoundaryEdges < 0 || p.BoundaryVars < 0 {
			t.Fatalf("negative boundary counts: %+v", p)
		}
	}
}

// TestPartitionCutWordsModel: partitions built through the shared
// analysis carry the degree-weighted cut cost, and IterationTime
// charges the interconnect with it — a partition priced at more cut
// words predicts a strictly dearer exchange.
func TestPartitionCutWordsModel(t *testing.T) {
	// A chain built in scrambled order: the balanced split orders
	// functions by variable, so the construction order does not matter.
	rng := rand.New(rand.NewSource(3))
	g := graph.New(2)
	for _, i := range rng.Perm(2000) {
		g.AddNode(prox.Consensus{Dim: 2}, i, i+1)
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	g.SetUniformParams(1, 1)
	g.InitZero()

	p := PartitionByVariable(g, 4)
	if p.CutWords <= 0 || p.ExchangeWords(g) != p.CutWords {
		t.Fatalf("CutWords not populated or not used: %g (exchange words %g)", p.CutWords, p.ExchangeWords(g))
	}
	if len(p.BoundaryVars) > 3 {
		t.Fatalf("scrambled chain boundary vars = %d, want one per cut", len(p.BoundaryVars))
	}
	md, err := NewMultiDevice(nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	dearer := p
	dearer.CutWords *= 10
	_, _, exch := md.IterationTime(g, p)
	if _, _, dearerExch := md.IterationTime(g, dearer); dearerExch <= exch {
		t.Fatalf("10x the cut words priced at %g, not above %g", dearerExch, exch)
	}
	// A hand-built partition (no CutWords) still prices its boundary
	// via the raw-edge fallback.
	hand := Partition{FuncDevice: p.FuncDevice, BoundaryVars: p.BoundaryVars, BoundaryEdges: p.BoundaryEdges}
	if _, _, exch := md.IterationTime(g, hand); exch <= 0 {
		t.Fatalf("fallback exchange %g", exch)
	}
}
