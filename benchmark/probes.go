package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/admm"
	"repro/internal/exchange"
	"repro/internal/gpusim"
	"repro/internal/graph"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/workload"
)

// probe times reps calls of f under one span and returns the median
// call in nanoseconds. Probes report plain wall time, not time at
// reference speed: they run once, after the timed window.
func probe(b *bench, layer, name string, reps int, f func()) float64 {
	sp := b.tr.startOp(layer, name, true)
	defer sp.end()
	sp.attr("reps", float64(reps))
	times := make([]float64, reps)
	for i := range times {
		t0 := time.Now()
		f()
		times[i] = float64(time.Since(t0).Nanoseconds())
	}
	return median(times)
}

// pair runs f(0) and f(1) on two goroutines and waits for both, the
// shape of every two-party synchronisation probe.
func pair(f func(worker int)) {
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(w)
		}()
	}
	wg.Wait()
}

// probeGraph runs the stand-alone layer probes of a traced run on g, a
// freshly reset graph of the workload (built from domain and spec). Each
// probe calls one exported function the way the engine does, alone, so
// a layer's cost can be read without the layers around it.
func probeGraph(b *bench, domain, spec string, g *graph.Graph) error {
	// workload: admission and construction.
	var adm workload.Admission
	var err error
	b.set("workload.parse_us", probe(b, "workload", "parse", 100, func() {
		adm, err = workload.Parse(domain, json.RawMessage(spec))
	})/1e3)
	if err != nil {
		return err
	}
	b.set("workload.build_ms", probe(b, "workload", "build", 3, func() { _, err = adm.Build() })/1e6)
	if err != nil {
		return err
	}

	// graph: shape, and the default 2-way partition par2 and sock2 use.
	st := g.Stats()
	d := float64(st.D)
	b.set("graph.edges", float64(st.Edges))
	b.set("graph.d", d)
	words := len(g.X) + len(g.M) + len(g.U) + len(g.N) + len(g.Z) + len(g.Rho) + len(g.Alpha)
	b.set("graph.state_mb", float64(8*words)/(1<<20))
	var part graph.Partition
	b.set("graph.partition_ms", probe(b, "graph", "partition", 5, func() {
		part, err = graph.NewPartition(g, 2, graph.StrategyBalanced)
	})/1e6)
	if err != nil {
		return err
	}
	b.set("graph.cut_words", graph.CutCost(g, &part))
	b.set("graph.boundary_vars", float64(len(part.BoundaryVars)))
	b.set("graph.load_imbalance", part.LoadImbalance(g))
	// Refine works in place, so it gets a partition of its own.
	refined, err := graph.NewPartition(g, 2, graph.StrategyBalanced)
	if err != nil {
		return err
	}
	b.set("graph.refine_ms", probe(b, "graph", "refine", 1, func() { refined.Refine(g) })/1e6)

	// admm: each phase over its full range on one thread, after two
	// whole iterations so the state is no longer the reset one. A phase
	// is repeated on its own: its cost does not depend on the values.
	nf, nv, ne := g.NumFunctions(), g.NumVariables(), g.NumEdges()
	phases := []struct {
		name, per string
		count     int
		run       func()
	}{
		{"x", "func", nf, func() { admm.UpdateXRange(g, 0, nf) }},
		{"m", "edge", ne, func() { admm.UpdateMRange(g, 0, ne) }},
		{"z", "var", nv, func() { admm.UpdateZRange(g, 0, nv) }},
		{"u", "edge", ne, func() { admm.UpdateURange(g, 0, ne) }},
		{"n", "edge", ne, func() { admm.UpdateNRange(g, 0, ne) }},
	}
	for i := 0; i < 2; i++ {
		for _, p := range phases {
			p.run()
		}
	}
	phaseNS := make([]float64, len(phases))
	for i, p := range phases {
		phaseNS[i] = probe(b, "admm", "update_"+p.name, 30, p.run)
		b.set(fmt.Sprintf("admm.%s_ns_per_%s", p.name, p.per), phaseNS[i]/float64(p.count))
	}

	// prox + linalg: computed operation and word counts of one
	// iteration (they ignore cache misses) over the measured phase times.
	var flops, moved [admm.NumPhases]float64
	for p, tasks := range gpusim.IterationTasks(g) {
		for _, t := range tasks {
			flops[p] += t.Flops
			moved[p] += t.ContigWords + t.ScatterAccesses*d
		}
	}
	x, m, z, u, n := admm.PhaseX, admm.PhaseM, admm.PhaseZ, admm.PhaseU, admm.PhaseN
	b.set("kernel.flops_per_iter.x", flops[x])
	b.set("kernel.flops_per_iter.z", flops[m]+flops[z])
	b.set("kernel.flops_per_iter.u", flops[u]+flops[n])
	b.set("kernel.words_per_iter.x", moved[x])
	b.set("kernel.words_per_iter.z", moved[m]+moved[z])
	b.set("kernel.words_per_iter.u", moved[u]+moved[n])
	b.set("kernel.gflops_x", ratio(flops[x], phaseNS[x]))
	b.set("kernel.gbs_sweep", ratio(8*(moved[m]+moved[z]+moved[u]+moved[n]), phaseNS[m]+phaseNS[z]+phaseNS[u]+phaseNS[n]))

	zPrev := append([]float64(nil), g.Z...)
	b.set("admm.residual_check_us", probe(b, "admm", "residual_check", 30, func() {
		admm.Residuals(g, zPrev)
		admm.Objective(g)
	})/1e3)
	var warm admm.WarmState
	b.set("admm.warm_capture_us", probe(b, "admm", "warm_capture", 30, func() { warm.Capture(g) })/1e3)
	b.set("admm.warm_apply_us", probe(b, "admm", "warm_apply", 30, func() { err = warm.Apply(g) })/1e3)
	if err != nil {
		return err
	}
	if err := probeAllocs(b, g); err != nil {
		return err
	}

	// sched and exchange: the two-party synchronisation a sharded
	// iteration crosses twice, with no compute between crossings.
	const rounds = 2000
	b.set("sched.parallelfor_us", probe(b, "sched", "parallelfor", rounds, func() {
		sched.ParallelFor(2, 2, func(lo, hi int) {})
	})/1e3)
	bar := sched.NewBarrier(2)
	b.set("sched.barrier_ns", probe(b, "sched", "barrier", 1, func() {
		pair(func(int) {
			for i := 0; i < rounds; i++ {
				bar.Await()
			}
		})
	})/rounds)
	exchangeRound := func(name string, ex exchange.Exchanger) float64 {
		defer ex.Close()
		return probe(b, "exchange", name, 1, func() {
			pair(func(w int) {
				for i := 0; i < rounds; i++ {
					ex.GatherM(w)
					ex.ScatterZ(w)
				}
			})
		}) / rounds
	}
	b.set("exchange.local_round_ns", exchangeRound("exchange_round_local", exchange.NewLocal(2)))
	man := exchange.NewManifest(g, &part, part.Parts)
	b.set("exchange.loopback_round_us", exchangeRound("exchange_round_loopback", exchange.NewLoopback(g, man, true))/1e3)

	return probeStore(b, &warm)
}

// probeAllocs reads what one serial run allocates per iteration.
func probeAllocs(b *bench, g *graph.Graph) error {
	spec, err := decodeExecutor(cellSpecs[0].spec)
	if err != nil {
		return err
	}
	backend, err := spec.NewBackend(g)
	if err != nil {
		return err
	}
	defer backend.Close()
	const iters = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := admm.Run(g, admm.Options{MaxIter: iters, Backend: backend}); err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	b.set("admm.alloc_b_per_iter", float64(after.TotalAlloc-before.TotalAlloc)/iters)
	return nil
}

// probeStore writes, reads back and reopens a store of the workload's
// own warm-start snapshot.
func probeStore(b *bench, warm *admm.WarmState) error {
	dir, err := b.tmpDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		return err
	}
	const keys = 20
	snap := store.Snapshot{Warm: *warm, Iterations: 10}
	i := 0
	b.set("store.put_us", probe(b, "store", "store_put", keys, func() {
		if e := st.Put(fmt.Sprintf("probe/%d", i), snap); e != nil {
			err = e
		}
		i++
	})/1e3)
	if err != nil {
		st.Close()
		return err
	}
	i = 0
	found := true
	b.set("store.get_us", probe(b, "store", "store_get", keys, func() {
		_, ok := st.Get(fmt.Sprintf("probe/%d", i))
		found = found && ok
		i++
	})/1e3)
	b.set("store.b_per_snapshot", float64(st.Stats().Bytes)/keys)
	if err := st.Close(); err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("store probe: a snapshot just written was not found")
	}
	b.set("store.open_ms", probe(b, "store", "store_open", 1, func() {
		if st, err = store.Open(store.Options{Dir: dir}); err == nil {
			err = st.Close()
		}
	})/1e6)
	return err
}
