package gpusim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/admm"
	"repro/internal/graph"
	"repro/internal/linalg"
	"repro/internal/prox"
)

// testGraph builds a synthetic factor-graph with nPair pairwise
// consensus nodes and one unary op per variable — shaped loosely like
// the paper's workloads.
func testGraph(t testing.TB, seed int64, nV, nPair, d int) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(d)
	for i := 0; i < nPair; i++ {
		a := rng.Intn(nV)
		b := rng.Intn(nV)
		for b == a {
			b = rng.Intn(nV)
		}
		g.AddNode(prox.Consensus{Dim: d}, a, b)
	}
	for v := 0; v < nV; v++ {
		g.AddNode(prox.SquaredNorm{C: 0.5, Dim: d}, v)
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	g.SetUniformParams(1, 1)
	g.InitRandom(-1, 1, rng)
	return g
}

func TestDeviceProfilesValidate(t *testing.T) {
	for _, d := range []*Device{TeslaK40(), TitanXLike()} {
		if err := d.Validate(); err != nil {
			t.Errorf("%s: %v", d.Name, err)
		}
	}
	bad := TeslaK40()
	bad.SMs = 0
	if bad.Validate() == nil {
		t.Error("expected validation error for 0 SMs")
	}
	bad2 := TeslaK40()
	bad2.ClockHz = 0
	if bad2.Validate() == nil {
		t.Error("expected validation error for 0 clock")
	}
}

func TestLaunchConfigBlocks(t *testing.T) {
	if got := (LaunchConfig{Ntb: 32}).Blocks(100); got != 4 {
		t.Fatalf("Blocks = %d, want 4", got)
	}
	if got := (LaunchConfig{Ntb: 32}).Blocks(32); got != 1 {
		t.Fatalf("Blocks = %d, want 1", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for ntb<=0")
		}
	}()
	(LaunchConfig{}).Blocks(1)
}

func uniformTasks(n int, t Task) []Task {
	out := make([]Task, n)
	for i := range out {
		out[i] = t
	}
	return out
}

func TestKernelTimeDeterministic(t *testing.T) {
	dev := TeslaK40()
	tasks := uniformTasks(10000, Task{Flops: 20, ContigWords: 12, ScatterAccesses: 1})
	a := dev.KernelTime(tasks, LaunchConfig{Ntb: 32})
	b := dev.KernelTime(tasks, LaunchConfig{Ntb: 32})
	if a != b {
		t.Fatalf("nondeterministic kernel time: %g vs %g", a, b)
	}
	if a <= dev.KernelLaunchSec {
		t.Fatalf("kernel time %g not above launch overhead", a)
	}
}

func TestKernelTimeMonotoneInTasks(t *testing.T) {
	dev := TeslaK40()
	small := uniformTasks(1000, Task{Flops: 30, ContigWords: 10})
	big := uniformTasks(100000, Task{Flops: 30, ContigWords: 10})
	if dev.KernelTime(small, LaunchConfig{Ntb: 32}) >= dev.KernelTime(big, LaunchConfig{Ntb: 32}) {
		t.Fatal("100x more tasks not slower")
	}
}

func TestKernelTimeEmptyAndPanic(t *testing.T) {
	dev := TeslaK40()
	if got := dev.KernelTime(nil, LaunchConfig{Ntb: 32}); got != dev.KernelLaunchSec {
		t.Fatalf("empty kernel = %g, want launch overhead", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for ntb=0")
		}
	}()
	dev.KernelTime(uniformTasks(1, Task{}), LaunchConfig{})
}

func TestBandwidthFloorBindsForStreamingKernels(t *testing.T) {
	dev := TeslaK40()
	// Huge, trivially-computable streaming tasks: the m-update shape.
	tasks := uniformTasks(5_000_000, Task{Flops: 2, ContigWords: 6})
	got := dev.KernelTime(tasks, LaunchConfig{Ntb: 32})
	minBytes := 5_000_000 * 6 * float64(bytesPerWord)
	floor := minBytes / dev.MemBandwidth
	if got < floor {
		t.Fatalf("kernel time %g below bandwidth floor %g", got, floor)
	}
	if got > 10*floor {
		t.Fatalf("streaming kernel %g far above bandwidth floor %g — should be bandwidth-bound", got, floor)
	}
}

func TestDivergencePenalizesHeterogeneousWarps(t *testing.T) {
	dev := TeslaK40()
	n := 32 * 1024
	// Compute-bound tasks so the bandwidth floor does not mask the warp
	// schedule: same mean flops, alternating heavy/light inside warps.
	uniform := uniformTasks(n, Task{Flops: 640, ContigWords: 2, Branchy: 1})
	hetero := make([]Task, n)
	for i := range hetero {
		if i%2 == 0 {
			hetero[i] = Task{Flops: 1200, ContigWords: 2, Branchy: 1}
		} else {
			hetero[i] = Task{Flops: 80, ContigWords: 2, Branchy: 1}
		}
	}
	tu := dev.KernelTime(uniform, LaunchConfig{Ntb: 32})
	th := dev.KernelTime(hetero, LaunchConfig{Ntb: 32})
	if th <= tu {
		t.Fatalf("heterogeneous warps not slower: uniform %g, hetero %g", tu, th)
	}
}

func TestScatterCostsMoreThanContig(t *testing.T) {
	dev := TeslaK40()
	n := 100000
	contig := uniformTasks(n, Task{Flops: 4, ContigWords: 16})
	scatter := uniformTasks(n, Task{Flops: 4, ScatterAccesses: 8}) // same 16 words if d=2... but scattered lines
	tc := dev.KernelTime(contig, LaunchConfig{Ntb: 32})
	ts := dev.KernelTime(scatter, LaunchConfig{Ntb: 32})
	if ts <= tc {
		t.Fatalf("scattered access not slower: contig %g, scatter %g", tc, ts)
	}
}

func TestNtb32NearOptimalForIrregularTasks(t *testing.T) {
	dev := TeslaK40()
	rng := rand.New(rand.NewSource(9))
	// Irregular, branchy, moderately heavy tasks: the paper's x-update.
	tasks := make([]Task, 200000)
	for i := range tasks {
		deg := 1 + rng.Intn(4)
		tasks[i] = Task{
			Flops:       float64(20 + deg*15),
			ContigWords: float64(4 * deg),
			Branchy:     0.5,
		}
	}
	t32 := dev.KernelTime(tasks, LaunchConfig{Ntb: 32})
	best, bestTime := TuneNtb(dev, tasks, nil)
	if t32 > 1.6*bestTime {
		t.Fatalf("ntb=32 time %g is %.2fx the best (%d: %g) — paper found 32 near-optimal",
			t32, t32/bestTime, best, bestTime)
	}
	// And the extremes should not beat 32 on irregular work.
	t1 := dev.KernelTime(tasks, LaunchConfig{Ntb: 1})
	t1024 := dev.KernelTime(tasks, LaunchConfig{Ntb: 1024})
	if t1 < t32 {
		t.Fatalf("ntb=1 (%g) beat ntb=32 (%g)", t1, t32)
	}
	if t1024 < t32 {
		t.Fatalf("ntb=1024 (%g) beat ntb=32 (%g)", t1024, t32)
	}
}

func TestTuneNtbReturnsArgmin(t *testing.T) {
	dev := TeslaK40()
	tasks := uniformTasks(50000, Task{Flops: 30, ContigWords: 10, Branchy: 0.3})
	ntb, best := TuneNtb(dev, tasks, nil)
	for _, c := range StandardNtbSweep {
		if got := dev.KernelTime(tasks, LaunchConfig{Ntb: c}); got < best-1e-15 {
			t.Fatalf("TuneNtb returned %d (%g) but %d gives %g", ntb, best, c, got)
		}
	}
	// Explicit candidate list respected.
	ntb2, _ := TuneNtb(dev, tasks, []int{64})
	if ntb2 != 64 {
		t.Fatalf("TuneNtb ignored candidates: %d", ntb2)
	}
}

func TestBuildPhaseTasksShapes(t *testing.T) {
	g := testGraph(t, 1, 50, 120, 2)
	tasks := IterationTasks(g)
	if len(tasks[admm.PhaseX]) != g.NumFunctions() {
		t.Fatalf("x tasks = %d, want %d", len(tasks[admm.PhaseX]), g.NumFunctions())
	}
	if len(tasks[admm.PhaseZ]) != g.NumVariables() {
		t.Fatalf("z tasks = %d, want %d", len(tasks[admm.PhaseZ]), g.NumVariables())
	}
	for _, p := range []admm.Phase{admm.PhaseM, admm.PhaseU, admm.PhaseN} {
		if len(tasks[p]) != g.NumEdges() {
			t.Fatalf("%v tasks = %d, want %d", p, len(tasks[p]), g.NumEdges())
		}
	}
	// z task scatter count equals variable degree.
	for b := 0; b < g.NumVariables(); b++ {
		if got, want := tasks[admm.PhaseZ][b].ScatterAccesses, float64(g.VarDegree(b)); got != want {
			t.Fatalf("z task %d scatter = %g, want %g", b, got, want)
		}
	}
}

func TestBackendMatchesSerialIterates(t *testing.T) {
	g1 := testGraph(t, 3, 40, 100, 2)
	g2 := testGraph(t, 3, 40, 100, 2)
	var n1, n2 [admm.NumPhases]int64
	admm.NewSerial().Iterate(g1, 30, &n1)
	NewBackend(nil).Iterate(g2, 30, &n2)
	for i := range g1.Z {
		if g1.Z[i] != g2.Z[i] {
			t.Fatalf("Z[%d]: serial %g, gpusim %g", i, g1.Z[i], g2.Z[i])
		}
	}
	// Simulated phase nanos are positive and deterministic.
	for p, v := range n2 {
		if v <= 0 {
			t.Fatalf("phase %d simulated nanos = %d", p, v)
		}
	}
}

func TestBackendSimulatedTimeScalesWithIters(t *testing.T) {
	g := testGraph(t, 5, 30, 60, 2)
	b := NewBackend(nil)
	var n1, n10 [admm.NumPhases]int64
	b.Iterate(g, 1, &n1)
	g2 := testGraph(t, 5, 30, 60, 2)
	b2 := NewBackend(nil)
	b2.Iterate(g2, 10, &n10)
	for p := 0; p < int(admm.NumPhases); p++ {
		ratio := float64(n10[p]) / float64(n1[p])
		if math.Abs(ratio-10) > 0.01 {
			t.Fatalf("phase %d: 10-iter/1-iter nanos ratio = %g", p, ratio)
		}
	}
}

func TestCPUBackendMatchesSerialIterates(t *testing.T) {
	g1 := testGraph(t, 4, 25, 50, 3)
	g2 := testGraph(t, 4, 25, 50, 3)
	var n1, n2 [admm.NumPhases]int64
	admm.NewSerial().Iterate(g1, 10, &n1)
	NewCPUBackend(nil).Iterate(g2, 10, &n2)
	for i := range g1.Z {
		if g1.Z[i] != g2.Z[i] {
			t.Fatal("cpusim iterates diverge from serial")
		}
	}
}

func TestCompareGPUSpeedupGrowsWithProblemSize(t *testing.T) {
	small := testGraph(t, 7, 40, 80, 2)
	big := testGraph(t, 7, 4000, 20000, 2)
	sSmall := CompareGPU(small, nil, nil)
	sBig := CompareGPU(big, nil, nil)
	if sBig.Combined <= sSmall.Combined {
		t.Fatalf("speedup did not grow with size: small %.2f, big %.2f",
			sSmall.Combined, sBig.Combined)
	}
	if sBig.Combined < 2 {
		t.Fatalf("large-graph GPU speedup %.2f implausibly low", sBig.Combined)
	}
	if sBig.Combined > 100 {
		t.Fatalf("large-graph GPU speedup %.2f implausibly high", sBig.Combined)
	}
}

func TestCompareGPUStringFormat(t *testing.T) {
	g := testGraph(t, 2, 30, 60, 2)
	s := CompareGPU(g, nil, nil)
	if s.String() == "" || math.IsNaN(s.Combined) {
		t.Fatalf("bad speedups: %+v", s)
	}
}

func TestCopyModelMonotone(t *testing.T) {
	dev := TeslaK40()
	small := dev.CopyToDeviceSec(100, 300, 100*300*8)
	big := dev.CopyToDeviceSec(100000, 3000000, 100000*300*8)
	if small >= big {
		t.Fatal("copy model not monotone")
	}
	if z := dev.CopyZBackSec(16); z <= 0 || z > 1e-3 {
		t.Fatalf("tiny z copy-back = %g s, expected sub-millisecond", z)
	}
}

func TestCopyDominatedByIterationBudget(t *testing.T) {
	// Paper: graph build+copy takes hundreds of seconds for packing
	// N=5000 but is negligible versus >1e5 iterations to convergence.
	dev := TeslaK40()
	funcs, edges := 12_507_500, 50_025_000 // N=5000, S=3 packing shape
	bytes := edges * 4 * 2 * 8
	copySec := dev.CopyToDeviceSec(funcs, edges, bytes)
	if copySec < 100 || copySec > 2000 {
		t.Fatalf("N=5000 packing copy = %.0f s, want order of the paper's 450 s", copySec)
	}
}

func TestQuadraticOpWorkFlowsIntoTasks(t *testing.T) {
	// A graph using an op with a large Work estimate must produce heavier
	// x tasks than one with trivial ops.
	gHeavy := graph.New(2)
	q, err := prox.NewQuadratic(linalg.Eye(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	gHeavy.AddNode(q, 0)
	if err := gHeavy.Finalize(); err != nil {
		t.Fatal(err)
	}
	gLight := graph.New(2)
	gLight.AddNode(prox.Identity{}, 0)
	if err := gLight.Finalize(); err != nil {
		t.Fatal(err)
	}
	th := BuildPhaseTasks(gHeavy, admm.PhaseX)[0]
	tl := BuildPhaseTasks(gLight, admm.PhaseX)[0]
	if th.Flops <= tl.Flops {
		t.Fatalf("heavy op task flops %g not above light %g", th.Flops, tl.Flops)
	}
}
