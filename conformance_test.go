// Cross-executor conformance suite: every executor family runs every
// workload and the result is checked against the oracle — Serial on the
// five-phase reference schedule, the one place that schedule lives:
// bit-identically for the deterministic executors (they share kernels
// and, by the sharded executor's boundary protocol, the exact
// floating-point summation order; the fused kernels every other
// executor runs preserve per-edge arithmetic order), within an
// objective tolerance for the asynchronous one (its randomized
// activation schedule visits a different but equally valid trajectory).
// Adding an executor family to the table buys it correctness coverage
// on all four workloads for free. The suite also pins the zero-allocation steady state: Iterate
// and the residual/objective evaluation path must not touch the heap
// after warm-up.
package repro_test

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/admm"
	"repro/internal/gpusim"
	"repro/internal/graph"
	"repro/internal/lasso"
	"repro/internal/mpc"
	"repro/internal/packing"
	"repro/internal/shard"
	"repro/internal/svm"
)

// confInstance is one freshly built, deterministically initialized
// workload instance plus its domain objective (used for the async
// comparison).
type confInstance struct {
	g         *graph.Graph
	objective func() float64
}

// confWorkloads builds each domain at conformance scale. Every call
// returns an identical instance (specs are seeded), which is what lets
// executors be compared run-to-run.
var confWorkloads = map[string]func(t *testing.T) confInstance{
	"lasso": func(t *testing.T) confInstance {
		p, err := lasso.FromSpec(lasso.Spec{M: 48, Lambda: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		p.Graph.InitZero()
		return confInstance{p.Graph, func() float64 { return p.Objective(p.Coefficients()) }}
	},
	"svm": func(t *testing.T) confInstance {
		p, err := svm.FromSpec(svm.Spec{N: 40})
		if err != nil {
			t.Fatal(err)
		}
		p.Graph.InitZero()
		return confInstance{p.Graph, p.HingeObjective}
	},
	"mpc": func(t *testing.T) confInstance {
		p, err := mpc.FromSpec(mpc.Spec{K: 12})
		if err != nil {
			t.Fatal(err)
		}
		p.Graph.InitZero()
		return confInstance{p.Graph, p.Cost}
	},
	"packing": func(t *testing.T) confInstance {
		p, err := packing.FromSpec(packing.Spec{N: 5})
		if err != nil {
			t.Fatal(err)
		}
		p.InitRandom(rand.New(rand.NewSource(1)))
		return confInstance{p.Graph, p.Coverage}
	},
}

const confIters = 600

// confExec names one deterministic executor configuration.
type confExec struct {
	name string
	make func(g *graph.Graph) (admm.Backend, error)
}

// confSpecs lists every spec-addressable deterministic executor; the
// matrix below is generated from it so each family gets all four
// workloads automatically.
var confSpecs = []struct {
	name string
	spec admm.ExecutorSpec
}{
	{"serial", admm.ExecutorSpec{Kind: admm.ExecSerial}},
	{"sharded-1", admm.ExecutorSpec{Kind: admm.ExecSharded, Shards: 1}},
	{"sharded-2", admm.ExecutorSpec{Kind: admm.ExecSharded, Shards: 2}},
	{"sharded-3", admm.ExecutorSpec{Kind: admm.ExecSharded, Shards: 3}},
	{"sharded-4", admm.ExecutorSpec{Kind: admm.ExecSharded, Shards: 4}},
	// More shards than lasso has functions (5), so three shards own
	// nothing, and every packing variable is a boundary variable.
	{"sharded-8", admm.ExecutorSpec{Kind: admm.ExecSharded, Shards: 8}},
	// The message transport over in-process loopback streams: every
	// boundary byte is framed, serialized, and decoded exactly as
	// between processes, so bit-identity here pins the wire protocol
	// itself (the cross-process form is covered by the integration
	// suite's coordinator + worker-process test). This transport always
	// runs the split order: frames depart before interior compute.
	{"sharded-4-sockets", admm.ExecutorSpec{Kind: admm.ExecSharded, Shards: 4, Transport: admm.TransportSockets}},
	// The benchmark's sock2 cell.
	{"sharded-2-sockets", admm.ExecutorSpec{Kind: admm.ExecSharded, Shards: 2, Transport: admm.TransportSockets}},
	{"sharded-3-sockets", admm.ExecutorSpec{Kind: admm.ExecSharded, Shards: 3, Transport: admm.TransportSockets}},
	{"sharded-8-sockets", admm.ExecutorSpec{Kind: admm.ExecSharded, Shards: 8, Transport: admm.TransportSockets}},
	{"auto", admm.ExecutorSpec{Kind: admm.ExecAuto}},
}

// confBuilt lists the deterministic backends built by their
// constructors rather than a spec: the fork-join loops (no spec names
// them since the kind was retired; the rows keep the names they were
// recorded under as spec rows), the shard package's own constructor and
// the simulated CPU.
var confBuilt = []confExec{
	{"parallel-for", func(g *graph.Graph) (admm.Backend, error) { return admm.NewParallelFor(3), nil }},
	{"parallel-for-dynamic", func(g *graph.Graph) (admm.Backend, error) {
		b := admm.NewParallelFor(3)
		b.Dynamic = true
		return b, nil
	}},
	{"parallel-for-balanced-z", func(g *graph.Graph) (admm.Backend, error) {
		b := admm.NewParallelFor(3)
		b.PrepareBalancedZ(g)
		return b, nil
	}},
	{"sharded-via-shard-pkg", func(g *graph.Graph) (admm.Backend, error) { return shard.New(3) }},
	{"cpusim", func(g *graph.Graph) (admm.Backend, error) { return gpusim.NewCPUBackend(nil), nil }},
}

// confDeterministic is every executor expected to reproduce the oracle
// exactly. Rows were recorded as fused on/off pairs while every executor
// had both bodies, and every recorded name but the barrier family's is
// still here: a spec's bare name is the spec with fused unset — except
// serial, the one kind with two schedules, whose bare row pins the
// five-phase one — and "-fused" is the spec with fused: true, the two
// spellings a client can send, which for every kind but serial resolve
// to the one schedule there is. (Pruning the now-equivalent rows,
// 37 -> ~19, waits for the recorded test list to be re-anchored.) A
// constructed backend has one schedule and runs it under both names.
func confDeterministic() []confExec {
	fused, unfused := true, false
	out := []confExec{}
	add := func(name string, spec admm.ExecutorSpec) {
		out = append(out, confExec{name, func(g *graph.Graph) (admm.Backend, error) { return spec.NewBackend(g) }})
	}
	for _, s := range confSpecs {
		bare, pinned := s.spec, s.spec
		if s.spec.Kind == admm.ExecSerial {
			bare.Fused = &unfused
		}
		pinned.Fused = &fused
		add(s.name, bare)
		add(s.name+"-fused", pinned)
	}
	for _, b := range confBuilt {
		out = append(out, b, confExec{b.name + "-fused", b.make})
	}
	out = append(out, confExec{"multicpu-sim-fused", func(g *graph.Graph) (admm.Backend, error) {
		return gpusim.NewMultiCoreBackend(nil, 8), nil
	}})
	return out
}

func confRun(t *testing.T, inst confInstance, backend admm.Backend, iters int) []float64 {
	t.Helper()
	defer backend.Close()
	if _, err := admm.Run(inst.g, admm.Options{MaxIter: iters, Backend: backend}); err != nil {
		t.Fatal(err)
	}
	out := make([]float64, len(inst.g.Z))
	copy(out, inst.g.Z)
	return out
}

// TestExecutorConformance is the deterministic half: identical iterates,
// every executor x every workload.
func TestExecutorConformance(t *testing.T) {
	for wname, build := range confWorkloads {
		t.Run(wname, func(t *testing.T) {
			ref := confRun(t, build(t), admm.NewSerial(), confIters)
			for _, exec := range confDeterministic() {
				t.Run(exec.name, func(t *testing.T) {
					inst := build(t)
					backend, err := exec.make(inst.g)
					if err != nil {
						t.Fatal(err)
					}
					got := confRun(t, inst, backend, confIters)
					for i := range ref {
						if ref[i] != got[i] {
							t.Fatalf("diverged from serial at Z[%d]: %g vs %g (first of possibly many)",
								i, got[i], ref[i])
						}
					}
				})
			}
		})
	}
}

// TestHubBoundaryConformance covers the shape the default partition
// makes of a consensus star: the functions split in creation order and
// the hub is the only boundary variable, combined by its owner from
// every shard's m-blocks. At 2, 3, 4 and 8 shards, over the local barrier
// and the sockets transport, under both spellings of the spec (fused
// unset and fused: true — see confDeterministic), the iterates must
// equal Serial's bit for bit, and the frames must move exactly what the
// cut-cost model prices.
func TestHubBoundaryConformance(t *testing.T) {
	build := func(t *testing.T) confInstance {
		p, err := lasso.FromSpec(lasso.Spec{M: 72, Blocks: 8, Lambda: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		p.Graph.InitZero()
		return confInstance{g: p.Graph}
	}
	ref := confRun(t, build(t), admm.NewSerial(), confIters)
	fused := true
	sockets := admm.ExecutorSpec{Kind: admm.ExecSharded, Transport: admm.TransportSockets}
	cells := []struct {
		name  string
		spec  admm.ExecutorSpec
		fused *bool
	}{
		{"local", admm.ExecutorSpec{Kind: admm.ExecSharded}, nil},
		{"local-fused", admm.ExecutorSpec{Kind: admm.ExecSharded}, &fused},
		{"sockets", sockets, nil},
		{"sockets-fused", sockets, &fused},
	}
	for _, shards := range []int{2, 3, 4, 8} {
		for _, c := range cells {
			spec := c.spec
			spec.Shards, spec.Fused = shards, c.fused
			t.Run(c.name+"-"+strconv.Itoa(shards), func(t *testing.T) {
				inst := build(t)
				backend, err := spec.NewBackend(inst.g)
				if err != nil {
					t.Fatal(err)
				}
				got := confRun(t, inst, backend, confIters)
				for i := range ref {
					if ref[i] != got[i] {
						t.Fatalf("diverged from serial at Z[%d]: %g vs %g", i, got[i], ref[i])
					}
				}
				st := backend.(shard.StatsReporter).Stats()
				if st.BoundaryVars != 1 || st.BoundaryEdges != inst.g.NumEdges() {
					t.Fatalf("boundary %d vars / %d edges, want the hub and all %d edges",
						st.BoundaryVars, st.BoundaryEdges, inst.g.NumEdges())
				}
				if len(st.Workers) != shards || st.SyncWaitNanos != st.Workers[0].SyncWait {
					t.Fatalf("sync wait %d, workers %+v", st.SyncWaitNanos, st.Workers)
				}
				if spec.Transport == admm.TransportSockets && st.BytesPerIter != 8*st.CutCost {
					t.Fatalf("frames moved %.1f payload bytes/iter, cut cost prices %.0f", st.BytesPerIter, 8*st.CutCost)
				}
			})
		}
	}
}

// TestBoundaryCombineConformance drives the one boundary-combine kernel
// (exchange.Mailbox.Combine) through every way a sharded solve reaches
// it — posted in place on the local transport, framed and decoded over
// loopback — at each width the kernel specializes on: the register path at d = 2 (packing), 3 (svm) and 5 (mpc), the generic
// path at d = 128 (lasso). Each cell must have a boundary to combine,
// account for every boundary variable in its per-shard counts, and
// reproduce Serial bit for bit.
func TestBoundaryCombineConformance(t *testing.T) {
	builds := map[int]func(t *testing.T) confInstance{
		2: confWorkloads["packing"],
		3: confWorkloads["svm"],
		5: confWorkloads["mpc"],
		128: func(t *testing.T) confInstance {
			p, err := lasso.FromSpec(lasso.Spec{M: 256, P: 128, Lambda: 0.3})
			if err != nil {
				t.Fatal(err)
			}
			p.Graph.InitZero()
			return confInstance{g: p.Graph}
		},
	}
	const iters = 200
	fused := true
	cells := []struct {
		name string
		spec admm.ExecutorSpec
	}{
		{"local", admm.ExecutorSpec{Kind: admm.ExecSharded}},
		{"loopback", admm.ExecutorSpec{Kind: admm.ExecSharded, Transport: admm.TransportSockets}},
	}
	for d, build := range builds {
		if got := build(t).g.D(); got != d {
			t.Fatalf("workload built for d=%d has d=%d", d, got)
		}
		ref := confRun(t, build(t), admm.NewSerial(), iters)
		for _, shards := range []int{2, 3} {
			for _, c := range cells {
				spec := c.spec
				spec.Shards, spec.Fused = shards, &fused
				t.Run("d"+strconv.Itoa(d)+"-"+c.name+"-"+strconv.Itoa(shards), func(t *testing.T) {
					inst := build(t)
					backend, err := spec.NewBackend(inst.g)
					if err != nil {
						t.Fatal(err)
					}
					got := confRun(t, inst, backend, iters)
					for i := range ref {
						if ref[i] != got[i] {
							t.Fatalf("diverged from serial at Z[%d]: %g vs %g", i, got[i], ref[i])
						}
					}
					st := backend.(shard.StatsReporter).Stats()
					combined := 0
					for _, w := range st.Workers {
						combined += w.BoundaryVars
					}
					if st.BoundaryVars == 0 || combined != st.BoundaryVars || len(st.Workers) != shards {
						t.Fatalf("%d boundary variables, combined per worker %+v", st.BoundaryVars, st.Workers)
					}
				})
			}
		}
	}
}

// flushTrajectory runs the 2400-iteration, CheckEvery-10 svm solve that
// carries 21 slack duals through underflow (docs/bulk.md) and folds the
// bits of x, u and z at every residual check, the residuals themselves
// and the final objective into one hash. flush=false is Run's block
// schedule driven by hand with no flush between blocks — the parent's
// behaviour.
func flushTrajectory(t *testing.T, backend admm.Backend, g *graph.Graph, objective func() float64, flush bool) uint64 {
	t.Helper()
	defer backend.Close()
	const iters, every = 2400, 10
	h := fnv.New64a()
	fold := func(vs ...[]float64) {
		var b [8]byte
		for _, v := range vs {
			for _, f := range v {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
				h.Write(b[:])
			}
		}
	}
	if flush {
		res, err := admm.Run(g, admm.Options{MaxIter: iters, Backend: backend, CheckEvery: every,
			OnIteration: func(_ int, primal, dual float64) bool {
				fold(g.X, g.U, g.Z, []float64{primal, dual})
				return true
			}})
		if err != nil || res.Iterations != iters {
			t.Fatalf("Run = %+v, %v", res, err)
		}
	} else {
		var ph [admm.NumPhases]int64
		zPrev := make([]float64, len(g.Z))
		for done := 0; done < iters; done += every {
			if err := backend.Iterate(g, every-1, &ph); err != nil {
				t.Fatal(err)
			}
			copy(zPrev, g.Z)
			if err := backend.Iterate(g, 1, &ph); err != nil {
				t.Fatal(err)
			}
			primal, dual := admm.Residuals(g, zPrev)
			fold(g.X, g.U, g.Z, []float64{primal, dual})
		}
	}
	fold([]float64{objective()})
	return h.Sum64()
}

// TestFlushConformance pins that Run's block-boundary flush of stuck
// subnormal duals sits above every executor: the solve above is
// bit-identical at every residual check across the serial oracle, the
// fused serial schedule, parallel-for, two shards over shared memory,
// two over loopback sockets, and two real worker processes — the leg
// that proves the flush Run reports reaches state held elsewhere, where
// each worker replays it on its own U. The trajectory must also differ
// from the unflushed one, or the comparison proves nothing.
func TestFlushConformance(t *testing.T) {
	build := func() (*graph.Graph, func() float64) {
		p, err := svm.FromSpec(svm.Spec{N: 24, Dim: 2})
		if err != nil {
			t.Fatal(err)
		}
		p.Graph.InitZero()
		return p.Graph, p.HingeObjective
	}
	g, obj := build()
	want := flushTrajectory(t, admm.NewSerial(), g, obj, true)
	g, obj = build()
	if flushTrajectory(t, admm.NewSerial(), g, obj, false) == want {
		t.Fatal("the unflushed trajectory hashes the same: this solve no longer exercises the flush")
	}

	dir := t.TempDir()
	addrs := []string{"unix:" + dir + "/w0.sock", "unix:" + dir + "/w1.sock"}
	spawnWorkers(t, addrs, 1)
	raw, err := json.Marshal(svm.Spec{N: 24, Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	sharded := admm.ExecutorSpec{Kind: admm.ExecSharded, Shards: 2}
	loopback, remote := sharded, sharded
	loopback.Transport = admm.TransportSockets
	remote.Transport, remote.Addrs = admm.TransportSockets, addrs
	remote.Problem = &admm.ProblemRef{Workload: "svm", Spec: raw}
	legs := []struct {
		name string
		make func(g *graph.Graph) (admm.Backend, error)
	}{
		{"serial-fused", admm.ExecutorSpec{Kind: admm.ExecSerial}.NewBackend},
		{"parallel-for", func(g *graph.Graph) (admm.Backend, error) { return admm.NewParallelFor(3), nil }},
		{"sharded-2", sharded.NewBackend},
		{"sharded-2-sockets", loopback.NewBackend},
		{"sharded-2-remote", remote.NewBackend},
	}
	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			g, obj := build()
			backend, err := leg.make(g)
			if err != nil {
				t.Fatal(err)
			}
			if got := flushTrajectory(t, backend, g, obj, true); got != want {
				t.Fatalf("trajectory hash %016x, the serial oracle's is %016x", got, want)
			}
		})
	}
}

// TestAsyncConformance is the stochastic half: the async executor must
// reach the same objective as serial within tolerance on the convex
// workloads, and a comparable packing coverage on the nonconvex one
// (different random activation orders legitimately reach different
// packings of similar quality).
func TestAsyncConformance(t *testing.T) {
	tol := map[string]float64{
		"lasso":   0.05,
		"svm":     0.05,
		"mpc":     0.05,
		"packing": 0.30,
	}
	// Iteration budgets large enough for both schedules to converge;
	// MPC's chain propagates consensus slowly and needs the most.
	iters := map[string]int{
		"lasso":   2400,
		"svm":     2400,
		"mpc":     12000,
		"packing": 2400,
	}
	for wname, build := range confWorkloads {
		t.Run(wname, func(t *testing.T) {
			refInst := build(t)
			confRun(t, refInst, admm.NewSerial(), iters[wname])
			want := refInst.objective()

			inst := build(t)
			confRun(t, inst, admm.NewAsync(1), iters[wname])
			got := inst.objective()

			if math.IsNaN(got) || math.IsInf(got, 0) {
				t.Fatalf("async objective = %g", got)
			}
			rel := math.Abs(got-want) / math.Max(1, math.Abs(want))
			if rel > tol[wname] {
				t.Fatalf("async objective %g vs serial %g (relative gap %.3f > %.3f)",
					got, want, rel, tol[wname])
			}
		})
	}
}

// gainAllocs bounds the objects one AffineEquality projection gain is
// made of (weights, projector, Gram matrix, factor, gain, record). The
// conformance chain has 12 dynamics nodes, so a gain per node would show
// as about ten times this.
const gainAllocs = 12

// TestSteadyStateAllocs pins the zero-allocation iteration loop: after
// warm-up (operator factorization caches, graph scratch), Iterate must
// perform no heap allocations for the serial executor on either
// schedule and for the sharded executor's persistent workers, built by
// the shard package's constructor and through a spec, and the residual/
// objective evaluation path must be allocation-free too. ParallelFor is
// exempt by design: its fork-join loops spawn goroutines each phase —
// that is the executor's identity (the paper's "#pragma omp parallel
// for"), not an accident. The same holds for the iteration after a rho
// change, once a first change has been absorbed (see below).
func TestSteadyStateAllocs(t *testing.T) {
	backends := []struct {
		name string
		make func(g *graph.Graph) (admm.Backend, error)
	}{
		{"serial", func(g *graph.Graph) (admm.Backend, error) { return admm.NewSerial(), nil }},
		{"serial-fused", func(g *graph.Graph) (admm.Backend, error) { return admm.NewSerialFused(), nil }},
		{"sharded-2", func(g *graph.Graph) (admm.Backend, error) { return shard.New(2) }},
		{"sharded-2-fused", func(g *graph.Graph) (admm.Backend, error) {
			fused := true
			return admm.ExecutorSpec{Kind: admm.ExecSharded, Shards: 2, Fused: &fused}.NewBackend(g)
		}},
	}
	for wname, build := range confWorkloads {
		t.Run(wname, func(t *testing.T) {
			for _, be := range backends {
				t.Run(be.name, func(t *testing.T) {
					inst := build(t)
					backend, err := be.make(inst.g)
					if err != nil {
						t.Fatal(err)
					}
					defer backend.Close()
					var nanos [admm.NumPhases]int64
					backend.Iterate(inst.g, 5, &nanos) // warm-up
					allocs := testing.AllocsPerRun(10, func() {
						backend.Iterate(inst.g, 1, &nanos)
					})
					if allocs != 0 {
						t.Errorf("Iterate allocates %.1f objects per iteration in steady state", allocs)
					}
					// The rho-change path: once a first change has been
					// absorbed, the iteration after a later one allocates
					// nothing where factorizations are rebuilt in place
					// (linalg.Ridge: lasso), and on mpc only the one gain
					// the dynamics nodes share per rho — a count that does
					// not grow with the horizon (at most one per shard,
					// when both publish at once).
					scaleRho := func(f float64) {
						for e := range inst.g.Rho {
							inst.g.Rho[e] *= f
						}
					}
					scaleRho(2)
					backend.Iterate(inst.g, 1, &nanos)
					allocs = testing.AllocsPerRun(5, func() {
						scaleRho(1.25)
						backend.Iterate(inst.g, 1, &nanos)
					})
					limit := 0.0
					if wname == "mpc" {
						limit = 2 * gainAllocs
					}
					if allocs > limit {
						t.Errorf("the iteration after a rho change allocates %.1f objects, want <= %.0f", allocs, limit)
					}
				})
			}
			// The route above the backend: a whole residual-checked
			// serial solve through shard.Solve — what serve and bulk run
			// per request — allocates nothing once the graph's scratch
			// exists, like the admm.Solve it replaced there.
			t.Run("shard.Solve", func(t *testing.T) {
				inst := build(t)
				opts := admm.SolveOptions{MaxIter: 3, AbsTol: 1e-9, RelTol: 1e-9, CheckEvery: 2}
				solve := func() {
					if _, err := shard.Solve(context.Background(), inst.g, opts); err != nil {
						t.Fatal(err)
					}
				}
				solve() // warm-up
				if allocs := testing.AllocsPerRun(10, solve); allocs != 0 {
					t.Errorf("a local solve allocates %.1f objects in steady state", allocs)
				}
			})
		})
	}
}

// TestResidualObjectivePathAllocs pins the evaluation side of the steady
// state: Residuals with the graph's reusable scratch, Objective, and a
// whole residual-checking Run on a warmed graph allocate nothing.
func TestResidualObjectivePathAllocs(t *testing.T) {
	inst := confWorkloads["lasso"](t)
	g := inst.g
	backend := admm.NewSerialFused()
	defer backend.Close()

	// Warm up: operator caches, graph scratch.
	if _, err := admm.Run(g, admm.Options{MaxIter: 20, Backend: backend, AbsTol: 1e-12, RelTol: 1e-12}); err != nil {
		t.Fatal(err)
	}
	admm.Objective(g)

	zPrev := g.ScratchZ()
	if allocs := testing.AllocsPerRun(10, func() {
		copy(zPrev, g.Z)
		admm.Residuals(g, zPrev)
	}); allocs != 0 {
		t.Errorf("Residuals allocates %.1f objects per call", allocs)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		admm.Objective(g)
	}); allocs != 0 {
		t.Errorf("Objective allocates %.1f objects per call", allocs)
	}
	if allocs := testing.AllocsPerRun(5, func() {
		if _, err := admm.Run(g, admm.Options{MaxIter: 15, Backend: backend, AbsTol: 1e-12, RelTol: 1e-12}); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("residual-checking Run allocates %.1f objects per call", allocs)
	}
}
