// Command paradmm-solve builds one of the four application domains and
// solves it with a chosen executor (serial, sharded or auto), printing
// domain-specific quality metrics — a quick way to exercise the full
// stack end to end. Every solve goes through shard.Solve, the route the
// serving layer and the bulk pipeline take. The paper's fork-join and
// simulated-device backends run in paradmm-bench and examples/quickstart.
//
// Usage:
//
//	paradmm-solve -problem mpc -size 50 -iters 20000 -backend serial
//	paradmm-solve -problem svm -size 200 -iters 5000 -backend auto
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
	"errors"
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
	"repro/internal/graph"
	"repro/internal/lasso"
	"repro/internal/mpc"
	"repro/internal/packing"
	"repro/internal/shard"
	"repro/internal/svm"
)

// config is what the command line sets: the problem to build and how
// to solve it.
type config struct {
	problem string
	size    int
	iters   int
	seed    int64
	run     runConfig
}

// solvers maps each -problem to the function that builds and solves it.
var solvers = map[string]func(size, iters int, cfg runConfig, seed int64) error{
	"packing": solvePacking,
	"mpc":     solveMPC,
	"svm":     solveSVM,
	"lasso":   solveLasso,
}

// parseConfig parses the command line. A malformed value, a stray
// argument, a negative count or duration, an unknown problem or an
// invalid executor is an error, reported with the usage the way the
// flag package reports its own; -h prints the usage and returns
// flag.ErrHelp.
func parseConfig(args []string) (config, error) {
	var c config
	var backend, transport, addrs, failover string
	var shards, dialAttempts int
	var fused bool
	var dialTimeout, handshakeTimeout, frameTimeout time.Duration
	fs := flag.NewFlagSet("paradmm-solve", flag.ContinueOnError)
	fs.StringVar(&c.problem, "problem", "packing", "packing | mpc | svm | lasso")
	fs.IntVar(&c.size, "size", 10, "circles / horizon / data points / observations")
	fs.IntVar(&c.iters, "iters", 2000, "ADMM iterations")
	fs.StringVar(&backend, "backend", "serial", "serial | sharded | auto")
	fs.IntVar(&shards, "shards", 4, "shard count for -backend sharded")
	fs.BoolVar(&fused, "fused", true, "false = the five-phase reference schedule (-backend serial only; every other executor runs the fused two-pass schedule)")
	fs.StringVar(&transport, "transport", "", "sharded boundary exchange: local (default) | sockets (in-process loopback, or remote workers with -addrs)")
	fs.StringVar(&addrs, "addrs", "", "comma-separated paradmm-shardworker endpoints (unix:/path | tcp:host:port), one per shard, for -transport sockets")
	fs.DurationVar(&dialTimeout, "dial-timeout", 0, "sockets transport: bound on each worker connection establishment (0 = 10s default)")
	fs.DurationVar(&handshakeTimeout, "handshake-timeout", 0, "sockets transport: bound on each handshake frame exchange (0 = 30s default)")
	fs.DurationVar(&frameTimeout, "frame-timeout", 0, "sockets transport: bound on every mid-solve frame read/write; must exceed a block's compute time (0 = unbounded)")
	fs.IntVar(&dialAttempts, "dial-attempts", 0, "sockets transport: dial+handshake retry budget with capped exponential backoff (0 = 3 attempts)")
	fs.StringVar(&failover, "failover", "", "sockets transport recovery on worker loss: none (default, fail the solve) | survivors (re-partition onto live workers, re-run cold) | local (survivors, then in-process fused fallback)")
	fs.IntVar(&c.run.repeat, "repeat", 1, "solve the same problem N times from the same initial state (over -addrs, repeats after the first hit the workers' caches and skip the state down-sync)")
	fs.BoolVar(&c.run.fleet, "fleet", false, "manage -addrs through a persistent fleet registry reused across -repeat solves: health-probe once, lease workers per solve")
	fs.Int64Var(&c.seed, "seed", 1, "workload seed (0 selects the workload spec's default seed)")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: paradmm-solve [-problem P] [-size N] [-iters N] [-backend B] [flags]\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	var bad error
	switch {
	case fs.NArg() > 0:
		bad = fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case solvers[c.problem] == nil:
		bad = fmt.Errorf("unknown problem %q", c.problem)
	}
	// Every count and duration must not be negative; -seed may be.
	passed := map[string]bool{}
	fs.Visit(func(f *flag.Flag) {
		passed[f.Name] = true
		var neg bool
		switch v := f.Value.(flag.Getter).Get().(type) {
		case int:
			neg = v < 0
		case time.Duration:
			neg = v < 0
		}
		if neg && bad == nil {
			bad = fmt.Errorf("-%s = %s: must not be negative", f.Name, f.Value)
		}
	})
	if bad == nil {
		c.run.spec, bad = admm.ParseExecutor(backend)
	}
	if bad == nil {
		spec := &c.run.spec
		// The sharded knobs are set whatever the kind: Validate rejects
		// them on any other, so a -transport or -failover request against
		// the wrong backend errors instead of silently solving locally.
		spec.Transport = transport
		spec.Addrs = splitAddrs(addrs)
		spec.Fused = &fused
		spec.DialTimeoutMS = int(dialTimeout / time.Millisecond)
		spec.HandshakeTimeoutMS = int(handshakeTimeout / time.Millisecond)
		spec.FrameTimeoutMS = int(frameTimeout / time.Millisecond)
		spec.DialAttempts = dialAttempts
		spec.Failover = failover
		if spec.Kind == admm.ExecSharded {
			// One worker process per shard. An un-passed -shards follows
			// the addr count; an explicit one must agree (Validate reports
			// the mismatch).
			spec.Shards = shards
			if len(spec.Addrs) > 0 && !passed["shards"] {
				spec.Shards = len(spec.Addrs)
			}
		}
		bad = spec.Validate()
	}
	switch {
	case bad != nil:
	case c.run.repeat < 1:
		bad = fmt.Errorf("-repeat %d out of range (>= 1)", c.run.repeat)
	case c.run.fleet && len(c.run.spec.Addrs) == 0:
		bad = fmt.Errorf("-fleet needs -addrs naming the shardworker fleet")
	}
	if bad != nil {
		fmt.Fprintln(fs.Output(), bad)
		fs.Usage()
		return c, bad
	}
	return c, nil
}

func main() {
	c, err := parseConfig(os.Args[1:])
	switch {
	case errors.Is(err, flag.ErrHelp):
		return
	case err != nil:
		os.Exit(2) // parseConfig printed the error and the usage
	}
	// The sharded executor partitions the factor graph up front, so the
	// backend is built after the problem: solve* functions carry the
	// run config to run(), which adds the rebuildable problem reference
	// that worker processes reconstruct the graph from and hands the
	// spec to shard.Solve.
	if err := solvers[c.problem](c.size, c.iters, c.run, c.seed); err != nil {
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

// runConfig is what every solve* function hands to run: the executor
// spec from the flags, and how many times to solve.
type runConfig struct {
	spec   admm.ExecutorSpec
	repeat int
	// fleet manages spec.Addrs through a fleet.Registry reused across
	// repeat solves.
	fleet bool
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
// every repeat: probed up front and leased per solve. Over worker
// processes, with or without -fleet, the repeats after the first hit
// the workers' caches.
func run(g *graph.Graph, iters int, c runConfig, ref *admm.ProblemRef) (admm.Result, error) {
	var reg *fleet.Registry
	if c.fleet {
		var err error
		reg, err = fleet.New(fleet.Config{Addrs: c.spec.Addrs})
		if err != nil {
			return admm.Result{}, err
		}
		for _, w := range reg.ProbeOnce(context.Background()) {
			if w.State != fleet.StateHealthy {
				return admm.Result{}, fmt.Errorf("fleet worker %s is %s: %s", w.Addr, w.State, w.LastErr)
			}
		}
		fmt.Printf("fleet: %d workers healthy\n", len(c.spec.Addrs))
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

func runOnce(g *graph.Graph, iters int, c runConfig, ref *admm.ProblemRef, reg *fleet.Registry) (admm.Result, error) {
	spec := c.spec
	if len(spec.Addrs) > 0 {
		spec.Problem = ref
	}
	if reg != nil {
		lease := reg.Acquire(len(spec.Addrs))
		if lease == nil || len(lease.Addrs) < len(spec.Addrs) {
			lease.Release()
			return admm.Result{}, fmt.Errorf("fleet has no free session slots")
		}
		defer lease.Release()
	}
	out, err := shard.Solve(context.Background(), g, admm.SolveOptions{Executor: spec, MaxIter: iters})
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
			fmt.Printf("worker cache: %d state hits, %d graph hits, %d misses (%d state pushes, %d handshake frames)\n",
				st.CacheHits, st.CacheGraphHits, st.CacheMisses, st.StatePushes, st.HandshakeFrames)
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

func solvePacking(n, iters int, cfg runConfig, seed int64) error {
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

func solveMPC(k, iters int, cfg runConfig, _ int64) error {
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

func solveSVM(n, iters int, cfg runConfig, seed int64) error {
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

func solveLasso(m, iters int, cfg runConfig, seed int64) error {
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
