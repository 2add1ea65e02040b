package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	"repro/internal/admm"
	"repro/internal/graph"
	"repro/internal/shard"
	"repro/internal/workload"
)

// cellSpecs are the three executor cells every solver workload runs,
// as the flat JSON a caller would send. They are decoded, never built as
// Go literals, so a regrouping of ExecutorSpec's fields cannot break the
// benchmark. referenceSpec is the unfused five-phase oracle every cell's
// answer must equal bit for bit.
var cellSpecs = []struct{ name, spec string }{
	{"serial", `{"kind":"serial"}`},
	{"par2", `{"kind":"sharded","shards":2}`},
	{"sock2", `{"kind":"sharded","shards":2,"transport":"sockets","overlap":true,"delta_threshold":0}`},
}

const referenceSpec = `{"kind":"serial","fused":false}`

func decodeExecutor(spec string) (admm.ExecutorSpec, error) {
	var s admm.ExecutorSpec
	if err := json.Unmarshal([]byte(spec), &s); err != nil {
		return s, fmt.Errorf("executor %s: %w", spec, err)
	}
	return s, nil
}

// solverInput derives a solver workload's problem from the seed: the
// domain, its spec JSON and the fixed iteration count of one solve.
func solverInput(name string, seed int64, smoke bool) (domain, spec string, iters int) {
	rng := rand.New(rand.NewSource(seed))
	specSeed := 1 + rng.Int63n(1<<31)
	tilt := 0.05 + 0.1*rng.Float64()
	switch name {
	case "lasso-dense":
		if smoke {
			return "lasso", fmt.Sprintf(`{"m":64,"p":16,"blocks":4,"seed":%d}`, specSeed), 20
		}
		return "lasso", fmt.Sprintf(`{"m":2048,"p":128,"blocks":32,"seed":%d}`, specSeed), 300
	case "packing-wide":
		if smoke {
			return "packing", fmt.Sprintf(`{"n":6,"seed":%d}`, specSeed), 40
		}
		return "packing", fmt.Sprintf(`{"n":64,"seed":%d}`, specSeed), 2000
	default: // mpc-chain
		k, iters := 16000, 100
		if smoke {
			k, iters = 40, 20
		}
		return "mpc", fmt.Sprintf(`{"k":%d,"q0":[0,0,%v,0]}`, k, tilt), iters
	}
}

func buildProblem(domain, spec string) (workload.Problem, error) {
	adm, err := workload.Parse(domain, json.RawMessage(spec))
	if err != nil {
		return nil, err
	}
	return adm.Build()
}

// answer is what an op's result is compared by: the objective and a
// hash over the bits of the consensus vector.
type answer struct {
	objective uint64
	zHash     uint64
}

func answerOf(g *graph.Graph) answer {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range g.Z {
		bits := math.Float64bits(v)
		for i := range buf {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	return answer{objective: math.Float64bits(admm.Objective(g)), zHash: h.Sum64()}
}

// cell is one executor cell of a solver workload with its own problem
// instance and everything observed on its ops.
type cell struct {
	name string
	spec admm.ExecutorSpec
	prob workload.Problem

	wallMS    []float64 // one admm.Solve (backend construction, run, close) at reference speed
	traced    []bool    // whether the op of wallMS[i] recorded spans
	runSecs   []float64 // Result.Elapsed
	newMS     []float64
	closeMS   []float64
	phase     [admm.NumPhases]int64
	syncWait  int64 // shard.Stats, shard 0 only
	boundaryZ int64
	runNanos  int64
	stats     shard.Stats
}

func (c *cell) sharded() bool { return c.spec.Kind == admm.ExecSharded }

// solve runs one op on the cell: reset, one solve as a caller would pay
// for it, and the answer check. It reports the solve's wall time and
// whether the answer matched.
func (c *cell) solve(iters int, want answer, op *at) (time.Duration, bool, error) {
	g := c.prob.FactorGraph()
	sp := op.child("workload", "reset")
	c.prob.Reset()
	sp.end()

	layer := "admm"
	if c.sharded() {
		layer = "shard"
	}
	sv := op.child("admm", "solve")
	t0 := time.Now()
	sp = sv.child(layer, "backend_new")
	backend, err := c.spec.NewBackend(g)
	sp.end()
	if err != nil {
		return 0, false, err
	}
	t1 := time.Now()
	sp = sv.child("admm", "run")
	res, err := admm.Run(g, admm.Options{MaxIter: iters, Backend: backend})
	sp.end()
	t2 := time.Now()
	if sr, ok := backend.(shard.StatsReporter); ok {
		c.stats = sr.Stats()
		sp.attr("sync_wait_ns", float64(c.stats.SyncWaitNanos))
		sp.attr("boundary_z_ns", float64(c.stats.BoundaryZNanos))
	}
	t3 := time.Now()
	cl := sv.child(layer, "close")
	backend.Close()
	cl.end()
	t4 := time.Now()
	sv.end()
	if err != nil {
		return 0, false, err
	}
	sp.attr("phase_x_ns", float64(res.PhaseNanos[admm.PhaseX]))
	sp.attr("phase_z_ns", float64(res.PhaseNanos[admm.PhaseM]+res.PhaseNanos[admm.PhaseZ]))
	sp.attr("phase_u_ns", float64(res.PhaseNanos[admm.PhaseU]+res.PhaseNanos[admm.PhaseN]))

	c.traced = append(c.traced, op != nil)
	c.runSecs = append(c.runSecs, res.Elapsed.Seconds())
	c.newMS = append(c.newMS, ms(t1.Sub(t0)))
	c.closeMS = append(c.closeMS, ms(t4.Sub(t3)))
	for p, v := range res.PhaseNanos {
		c.phase[p] += v
	}
	c.runNanos += res.Elapsed.Nanoseconds()
	c.syncWait += c.stats.SyncWaitNanos
	c.boundaryZ += c.stats.BoundaryZNanos

	sp = op.child("admm", "objective")
	got := answerOf(g)
	sp.end()
	// Reading the shard statistics is the harness's cost, not the solve's.
	return t4.Sub(t0) - t3.Sub(t2), got == want, nil
}

// solverState is what a solver workload's set-up builds.
type solverState struct {
	domain, spec string
	iters        int
	cells        []*cell
	want         answer
}

func newSolverState(b *bench) (*solverState, error) {
	s := &solverState{}
	s.domain, s.spec, s.iters = solverInput(b.o.workload, b.o.seed, b.o.smoke)
	for _, cs := range cellSpecs {
		spec, err := decodeExecutor(cs.spec)
		if err != nil {
			return nil, err
		}
		prob, err := buildProblem(s.domain, s.spec)
		if err != nil {
			return nil, err
		}
		s.cells = append(s.cells, &cell{name: cs.name, spec: spec, prob: prob})
	}
	ref, err := decodeExecutor(referenceSpec)
	if err != nil {
		return nil, err
	}
	p := s.cells[0].prob
	p.Reset()
	if _, err := admm.Solve(p.FactorGraph(), admm.SolveOptions{Executor: ref, MaxIter: s.iters}); err != nil {
		return nil, err
	}
	s.want = answerOf(p.FactorGraph())
	return s, nil
}

// round runs one op per cell, starting with a different cell each
// round so no cell always runs on the cache state another left.
func (s *solverState) round(b *bench, r int, record bool) error {
	speed := startSpeedMeter()
	for i := range s.cells {
		c := s.cells[(r+i)%len(s.cells)]
		op := b.tr.startOp("harness", c.name, record && r%2 == 0)
		wall, ok, err := c.solve(s.iters, s.want, op)
		op.end()
		if err != nil {
			return fmt.Errorf("cell %s: %w", c.name, err)
		}
		c.wallMS = append(c.wallMS, ms(wall)*speed.factor())
		if record {
			b.count(ok)
		}
	}
	return nil
}

// solverWorkload is the body of lasso-dense, packing-wide and
// mpc-chain: the same problem solved by the three cells in interleaved
// rounds, so drift in the machine's speed reaches every cell alike.
func solverWorkload(b *bench) error {
	var s *solverState
	err := b.setUp(func() { s = nil }, func() (err error) {
		if s, err = newSolverState(b); err != nil {
			return err
		}
		if err := s.round(b, 0, false); err != nil {
			return err
		}
		for _, c := range s.cells {
			*c = cell{name: c.name, spec: c.spec, prob: c.prob} // drop the warm-up round's observations
		}
		return nil
	})
	if err != nil {
		return err
	}

	w := b.window(3)
	rounds := 0
	for ; w.more(rounds); rounds++ {
		if err := s.round(b, rounds, true); err != nil {
			return err
		}
	}

	// The work rate is that of one round at its cells' median times, so
	// a slow 2-core cell lowers it however steady the serial cell is.
	serial, par2, sock2 := s.cells[0], s.cells[1], s.cells[2]
	roundMS := median(serial.wallMS) + median(par2.wallMS) + median(sock2.wallMS)
	b.set("op_ms_p50", median(serial.wallMS))
	b.set("work_per_s", float64(len(s.cells)*s.iters)/(roundMS/1e3))
	if !b.o.trace {
		return nil
	}

	for _, c := range s.cells {
		b.set(c.name+"_ms_p50", median(c.wallMS))
		b.set(c.name+"_ms_p25", quantile(c.wallMS, 0.25))
		b.set(c.name+"_ms_p75", quantile(c.wallMS, 0.75))
		b.set("admm.iters_per_s."+c.name, ratio(float64(s.iters), median(c.runSecs)))
		if c.sharded() {
			b.set("admm.backend_new_ms."+c.name, median(c.newMS))
			b.set("admm.backend_close_ms."+c.name, median(c.closeMS))
			b.set("shard.sync_wait_share."+c.name, ratio(float64(c.syncWait), float64(c.runNanos)))
		}
	}
	var phases float64
	for _, v := range serial.phase {
		phases += float64(v)
	}
	b.set("admm.phase_share.x", ratio(float64(serial.phase[admm.PhaseX]), phases))
	b.set("admm.phase_share.z", ratio(float64(serial.phase[admm.PhaseM]+serial.phase[admm.PhaseZ]), phases))
	b.set("admm.phase_share.u", ratio(float64(serial.phase[admm.PhaseU]+serial.phase[admm.PhaseN]), phases))
	b.set("admm.speedup2", ratio(median(serial.wallMS), median(par2.wallMS)))
	b.set("admm.speedup2_sock", ratio(median(serial.wallMS), median(sock2.wallMS)))
	b.set("shard.boundary_z_share", ratio(float64(par2.boundaryZ), float64(par2.runNanos)))
	st := sock2.stats
	b.set("exchange.payload_b_per_iter", st.BytesPerIter)
	b.set("exchange.wire_b_per_iter", st.WireBytesPerIter)
	b.set("exchange.frames_per_iter", ratio(float64(st.ExchangeFrames), float64(st.Iterations)))
	b.set("exchange.delta_frame_share", ratio(float64(st.DeltaFrames), float64(st.ExchangeFrames)))
	b.set("trace.overhead_share", traceOverhead(serial.wallMS, serial.traced))

	p := serial.prob
	p.Reset()
	return probeGraph(b, s.domain, s.spec, p.FactorGraph())
}

// traceOverhead compares the traced ops of a traced run with the
// untraced ops interleaved among them.
func traceOverhead(wallMS []float64, traced []bool) float64 {
	var on, off []float64
	for i, v := range wallMS {
		if traced[i] {
			on = append(on, v)
		} else {
			off = append(off, v)
		}
	}
	if len(on) == 0 || len(off) == 0 {
		return 0
	}
	return median(on)/median(off) - 1
}
