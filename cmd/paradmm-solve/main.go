// Command paradmm-solve builds one of the four application domains and
// solves it with a chosen backend, printing domain-specific quality
// metrics — a quick way to exercise the full stack end to end.
//
// Usage:
//
//	paradmm-solve -problem packing -size 20 -iters 4000 -backend gpu
//	paradmm-solve -problem mpc -size 50 -iters 20000 -backend serial
//	paradmm-solve -problem svm -size 200 -iters 5000 -backend parallel -workers 4
//	paradmm-solve -problem mpc -size 2000 -iters 1000 -backend sharded -shards 4
//	paradmm-solve -problem lasso -size 100 -iters 5000
//
// Cross-process sharding (one paradmm-shardworker process per shard;
// see docs/transport.md):
//
//	paradmm-shardworker -listen unix:/tmp/w0.sock &
//	paradmm-shardworker -listen unix:/tmp/w1.sock &
//	paradmm-solve -problem mpc -size 2000 -iters 1000 -backend sharded \
//	    -transport sockets -addrs unix:/tmp/w0.sock,unix:/tmp/w1.sock
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/admm"
	"repro/internal/fleet"
	"repro/internal/gpusim"
	"repro/internal/graph"
	"repro/internal/lasso"
	"repro/internal/mpc"
	"repro/internal/packing"
	"repro/internal/shard"
	"repro/internal/svm"
)

func main() {
	problem := flag.String("problem", "packing", "packing | mpc | svm | lasso")
	size := flag.Int("size", 10, "circles / horizon / data points / observations")
	iters := flag.Int("iters", 2000, "ADMM iterations")
	backendName := flag.String("backend", "serial", "serial | parallel | async | sharded | auto | gpu | cpusim | multicpu | twa")
	workers := flag.Int("workers", 4, "workers for parallel/multicpu")
	shards := flag.Int("shards", 4, "shard count for -backend sharded")
	fused := flag.Bool("fused", true, "false = the five-phase reference schedule (-backend serial only; every other executor runs the fused two-pass schedule)")
	transport := flag.String("transport", "", "sharded boundary exchange: local (default) | sockets (in-process loopback, or remote workers with -addrs)")
	addrs := flag.String("addrs", "", "comma-separated paradmm-shardworker endpoints (unix:/path | tcp:host:port), one per shard, for -transport sockets")
	dialTimeout := flag.Duration("dial-timeout", 0, "sockets transport: bound on each worker connection establishment (0 = 10s default)")
	handshakeTimeout := flag.Duration("handshake-timeout", 0, "sockets transport: bound on each handshake frame exchange (0 = 30s default)")
	frameTimeout := flag.Duration("frame-timeout", 0, "sockets transport: bound on every mid-solve frame read/write; must exceed a block's compute time (0 = unbounded)")
	dialAttempts := flag.Int("dial-attempts", 0, "sockets transport: dial+handshake retry budget with capped exponential backoff (0 = 3 attempts)")
	failover := flag.String("failover", "", "sockets transport recovery on worker loss: none (default, fail the solve) | survivors (re-partition onto live workers, re-run cold) | local (survivors, then in-process fused fallback)")
	warmCache := flag.Bool("warm-cache", false, "sockets transport: probe the workers' warm caches before shipping the workload; a worker that already holds this problem skips the Cfg/State down-sync (see docs/fleet.md)")
	repeat := flag.Int("repeat", 1, "solve the same problem N times from the same initial state (with -warm-cache, repeats after the first hit the workers' caches)")
	useFleet := flag.Bool("fleet", false, "manage -addrs through a persistent fleet registry reused across -repeat solves: health-probe once, lease workers per solve, dial from a prewarmed pool")
	seed := flag.Int64("seed", 1, "workload seed (0 selects the workload spec's default seed)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: paradmm-solve [-problem P] [-size N] [-iters N] [-backend B] [flags]\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	workerAddrs := splitAddrs(*addrs)
	shardsSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "shards" {
			shardsSet = true
		}
	})
	// The sharded executor partitions the factor graph up front, so the
	// backend is built after the problem: solve* functions carry this
	// config to run(), which dresses it into an executor spec (plus, for
	// the cross-process transport, the rebuildable problem reference the
	// worker processes reconstruct the graph from) and hands it to
	// shard.Solve.
	cfg := backendConfig{
		name:             *backendName,
		workers:          *workers,
		shards:           *shards,
		shardsSet:        shardsSet,
		fused:            *fused,
		transport:        *transport,
		addrs:            workerAddrs,
		dialTimeout:      *dialTimeout,
		handshakeTimeout: *handshakeTimeout,
		frameTimeout:     *frameTimeout,
		dialAttempts:     *dialAttempts,
		failover:         *failover,
		warmCache:        *warmCache,
		repeat:           *repeat,
		fleet:            *useFleet,
	}
	if cfg.repeat < 1 {
		fatal(fmt.Errorf("-repeat %d out of range (>= 1)", cfg.repeat))
	}
	if cfg.fleet && len(workerAddrs) == 0 {
		fatal(fmt.Errorf("-fleet needs -addrs naming the shardworker fleet"))
	}

	var err error
	switch *problem {
	case "packing":
		err = solvePacking(*size, *iters, cfg, *seed)
	case "mpc":
		err = solveMPC(*size, *iters, cfg)
	case "svm":
		err = solveSVM(*size, *iters, cfg, *seed)
	case "lasso":
		err = solveLasso(*size, *iters, cfg, *seed)
	default:
		err = fmt.Errorf("unknown problem %q", *problem)
	}
	if err != nil {
		fatal(err)
	}
}

func splitAddrs(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

type backendConfig struct {
	name      string
	workers   int
	shards    int
	shardsSet bool // -shards passed explicitly (vs its default)
	fused     bool
	transport string
	addrs     []string
	// Reliability knobs for the sockets transport (-dial-timeout etc.);
	// zero values keep the shard package defaults.
	dialTimeout      time.Duration
	handshakeTimeout time.Duration
	frameTimeout     time.Duration
	dialAttempts     int
	failover         string
	// warmCache enables the cache-probe handshake; fleet manages the
	// addrs through a fleet.Registry reused across repeat solves.
	warmCache bool
	repeat    int
	fleet     bool
}

// specFor resolves the config into a declarative executor spec — the
// same selection path the serving layer uses per request — or nil when
// the name is one of the simulated-device backends that sit outside the
// spec registry (gpu, cpusim, multicpu, twa). ref is the rebuildable
// problem description the sockets transport ships to remote workers.
func specFor(c backendConfig, ref *admm.ProblemRef) *admm.ExecutorSpec {
	spec, err := admm.ParseExecutor(c.name, c.workers)
	if err != nil {
		return nil
	}
	if spec.Kind == admm.ExecSharded {
		spec.Workers = 0
		spec.Shards = c.shards
		if len(c.addrs) > 0 {
			// One worker process per shard. An un-passed -shards
			// follows the addr count; an explicit one must agree
			// (Validate reports the mismatch).
			if !c.shardsSet {
				spec.Shards = len(c.addrs)
			}
			spec.Problem = ref
		}
	}
	if spec.Kind == admm.ExecAuto {
		spec.Workers = 0
	}
	// Set unconditionally: Validate rejects transport/addrs (and the
	// reliability knobs) on any non-sharded kind, so a -transport or
	// -failover request against the wrong backend errors instead of
	// silently solving locally.
	spec.Transport = c.transport
	spec.Addrs = c.addrs
	spec.Fused = &c.fused
	spec.DialTimeoutMS = int(c.dialTimeout / time.Millisecond)
	spec.HandshakeTimeoutMS = int(c.handshakeTimeout / time.Millisecond)
	spec.FrameTimeoutMS = int(c.frameTimeout / time.Millisecond)
	spec.DialAttempts = c.dialAttempts
	spec.Failover = c.failover
	// -fleet implies the warm-cache handshake: a persistent fleet's
	// whole point is that repeated solves skip the workload down-sync.
	spec.WarmCache = c.warmCache || c.fleet
	return &spec
}

// simulatedBackend builds one of the simulated-device backends, which
// have no executor spec and so no transport or failover policy.
func simulatedBackend(c backendConfig) (admm.Backend, error) {
	if c.transport != "" || len(c.addrs) > 0 || c.failover != "" {
		return nil, fmt.Errorf("-transport/-addrs/-failover apply to -backend sharded, not %q", c.name)
	}
	switch c.name {
	case "gpu":
		return gpusim.NewBackend(nil), nil
	case "cpusim":
		return gpusim.NewCPUBackend(nil), nil
	case "multicpu":
		return gpusim.NewMultiCoreBackend(nil, c.workers), nil
	case "twa":
		return admm.NewTWA(), nil
	}
	return nil, fmt.Errorf("unknown backend %q", c.name)
}

// problemRef marshals a workload spec into the reference remote shard
// workers rebuild from.
func problemRef(workload string, spec any) (*admm.ProblemRef, error) {
	raw, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	return &admm.ProblemRef{Workload: workload, Spec: raw}, nil
}

// run solves g -repeat times from the same initial state. With -fleet
// the worker addresses are managed by one fleet.Registry reused across
// every repeat: probed up front, leased per solve, dialed from a
// prewarmed pool — so repeats after the first hit the workers' warm
// caches through the registry-held fleet.
func run(g *graph.Graph, iters int, c backendConfig, ref *admm.ProblemRef) (admm.Result, error) {
	var reg *fleet.Registry
	if c.fleet {
		var err error
		reg, err = fleet.New(fleet.Config{Addrs: c.addrs, Prewarm: 1})
		if err != nil {
			return admm.Result{}, err
		}
		defer reg.Close()
		for _, w := range reg.ProbeOnce(context.Background()) {
			if w.State != fleet.StateHealthy {
				return admm.Result{}, fmt.Errorf("fleet worker %s is %s: %s", w.Addr, w.State, w.LastErr)
			}
		}
		fmt.Printf("fleet: %d workers healthy\n", len(c.addrs))
	}
	var snap graph.State
	if c.repeat > 1 {
		snap = g.SaveState()
	}
	var res admm.Result
	for rep := 1; rep <= c.repeat; rep++ {
		if rep > 1 {
			g.RestoreState(snap)
			fmt.Printf("--- repeat %d/%d ---\n", rep, c.repeat)
		}
		var err error
		if res, err = runOnce(g, iters, c, ref, reg); err != nil {
			return res, err
		}
	}
	if reg != nil {
		st := reg.Stats()
		fmt.Printf("fleet: %d worker-solves leased across %d repeats\n", st.Solves, c.repeat)
	}
	return res, nil
}

func runOnce(g *graph.Graph, iters int, c backendConfig, ref *admm.ProblemRef, reg *fleet.Registry) (admm.Result, error) {
	var lease *fleet.Lease
	if reg != nil {
		if lease = reg.Acquire(len(c.addrs)); lease == nil || len(lease.Addrs) < len(c.addrs) {
			lease.Release()
			return admm.Result{}, fmt.Errorf("fleet has no free session slots")
		}
		defer lease.Release()
	}
	spec := specFor(c, ref)
	if spec == nil {
		backend, err := simulatedBackend(c)
		if err != nil {
			return admm.Result{}, err
		}
		defer backend.Close()
		res, err := admm.Run(g, admm.Options{MaxIter: iters, Backend: backend})
		if err != nil {
			return res, err
		}
		report(res, g, backend.Name(), nil)
		return res, nil
	}
	if reg != nil {
		spec.WorkerDialer = reg.Dial
	}
	out, err := shard.Solve(context.Background(), g, admm.SolveOptions{Executor: *spec, MaxIter: iters})
	if err != nil {
		return admm.Result{}, err
	}
	var st *shard.Stats
	if out.HasShardStats {
		st = &out.ShardStats
	}
	report(out.Result, g, out.Backend, st)
	if out.Attempts > 1 || out.Failovers > 0 || out.LocalFallback {
		fmt.Printf("failover: %d attempts, %d failovers, local fallback %v; failures: %s\n",
			out.Attempts, out.Failovers, out.LocalFallback, strings.Join(out.Failures, "; "))
	}
	return out.Result, nil
}

func report(res admm.Result, g *graph.Graph, name string, st *shard.Stats) {
	s := g.Stats()
	fmt.Printf("graph: %d functions, %d variables, %d edges (d=%d)\n",
		s.Functions, s.Variables, s.Edges, s.D)
	fmt.Printf("backend %s: %d iterations in %v\n", name, res.Iterations, res.Elapsed)
	fr := res.PhaseFractions()
	fmt.Printf("phase time: x %.0f%%, m %.0f%%, z %.0f%%, u %.0f%%, n %.0f%%\n",
		100*fr[0], 100*fr[1], 100*fr[2], 100*fr[3], 100*fr[4])
	if st != nil {
		lo, med, hi := waitShares(st.SyncWaitByShard, res.Elapsed)
		fmt.Printf("shards: %d (%s transport), %d boundary vars / %d boundary edges, cut cost %.0f words, sync wait %v (shard 0; share of the solve per shard min/median/max %.1f%%/%.1f%%/%.1f%%), boundary z %v (shard 0; boundary vars combined per shard %v)\n",
			st.Shards, st.Transport, st.BoundaryVars, st.BoundaryEdges, st.CutCost,
			nanos(st.SyncWaitNanos), 100*lo, 100*med, 100*hi, nanos(st.BoundaryZNanos), st.BoundaryVarsByShard)
		if st.BytesPerIter > 0 {
			fmt.Printf("exchange: %.0f payload bytes/iter moved vs %.0f predicted (cut cost x 8), %.0f on the wire with framing\n",
				st.BytesPerIter, 8*st.CutCost, st.WireBytesPerIter)
		}
		if st.CacheHits+st.CacheGraphHits+st.CacheMisses > 0 {
			fmt.Printf("warm cache: %d state hits, %d graph hits, %d misses (%d cfg sends, %d state pushes, %d handshake frames)\n",
				st.CacheHits, st.CacheGraphHits, st.CacheMisses, st.CfgSends, st.StatePushes, st.HandshakeFrames)
		}
	}
}

// waitShares returns the smallest, median and largest share of the
// solve's wall time that a shard spent blocked at its sync points. The
// shard with the smallest share is the one the others waited for.
func waitShares(waitNanos []int64, elapsed time.Duration) (lo, med, hi float64) {
	if len(waitNanos) == 0 || elapsed <= 0 {
		return 0, 0, 0
	}
	w := slices.Sorted(slices.Values(waitNanos))
	share := func(n int64) float64 { return float64(n) / float64(elapsed.Nanoseconds()) }
	n := len(w)
	return share(w[0]), (share(w[(n-1)/2]) + share(w[n/2])) / 2, share(w[n-1])
}

func nanos(n int64) string { return fmt.Sprintf("%.2fms", float64(n)/1e6) }

func solvePacking(n, iters int, cfg backendConfig, seed int64) error {
	if seed == 0 {
		// packing.Spec's documented default; applying it here keeps the
		// local InitRandom consistent with what the shipped spec (and a
		// serve request for the same spec) would initialize from.
		seed = 1
	}
	spec := packing.Spec{N: n, Seed: seed}
	ref, err := problemRef("packing", spec)
	if err != nil {
		return err
	}
	p, err := packing.FromSpec(spec)
	if err != nil {
		return err
	}
	p.InitRandom(rand.New(rand.NewSource(seed)))
	if _, err := run(p.Graph, iters, cfg, ref); err != nil {
		return err
	}
	v := p.CheckValidity()
	fmt.Printf("packing: coverage %.1f%%, max overlap %.2e, max wall violation %.2e, min radius %.4f\n",
		100*p.Coverage(), v.MaxOverlap, v.MaxWall, v.MinRadius)
	return nil
}

func solveMPC(k, iters int, cfg backendConfig) error {
	spec := mpc.Spec{K: k}
	ref, err := problemRef("mpc", spec)
	if err != nil {
		return err
	}
	p, err := mpc.FromSpec(spec)
	if err != nil {
		return err
	}
	p.Graph.InitZero()
	if _, err := run(p.Graph, iters, cfg, ref); err != nil {
		return err
	}
	fmt.Printf("mpc: cost %.6f, dynamics residual %.2e, u(0) = %.4f\n",
		p.Cost(), p.DynamicsResidual(), p.Input(0))
	return nil
}

func solveSVM(n, iters int, cfg backendConfig, seed int64) error {
	spec := svm.Spec{N: n, Lambda: 0.5, Seed: seed}
	ref, err := problemRef("svm", spec)
	if err != nil {
		return err
	}
	p, err := svm.FromSpec(spec)
	if err != nil {
		return err
	}
	p.Graph.InitZero()
	if _, err := run(p.Graph, iters, cfg, ref); err != nil {
		return err
	}
	w, b := p.Plane()
	fmt.Printf("svm: training accuracy %.1f%%, |w| = %.4f, b = %.4f, objective %.4f\n",
		100*p.Accuracy(p.Cfg.Data), norm(w), b, p.HingeObjective())
	return nil
}

func solveLasso(m, iters int, cfg backendConfig, seed int64) error {
	spec := lasso.Spec{M: m, Lambda: 0.3, Seed: seed}
	ref, err := problemRef("lasso", spec)
	if err != nil {
		return err
	}
	p, err := lasso.FromSpec(spec)
	if err != nil {
		return err
	}
	p.Graph.InitZero()
	if _, err := run(p.Graph, iters, cfg, ref); err != nil {
		return err
	}
	x := p.Coefficients()
	fmt.Printf("lasso: objective %.6f, optimality gap %.2e\n", p.Objective(x), p.OptimalityGap(x))
	return nil
}

func norm(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "paradmm-solve:", err)
	os.Exit(1)
}
