// Command paradmm-solve builds one of the four application domains and
// solves it with a chosen executor (serial, sharded or auto), printing
// domain-specific quality metrics — a quick way to exercise the full
// stack end to end. The flags map to the workload spec a serve request
// would carry, and every solve goes through workload.Solve, the route
// the serving layer and the bulk pipeline take. The paper's fork-join and
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
	"os"
	"strconv"
	"strings"

	"repro/internal/admm"
	"repro/internal/graph"
	"repro/internal/lasso"
	"repro/internal/mpc"
	"repro/internal/packing"
	"repro/internal/shard"
	"repro/internal/svm"
	"repro/internal/workload"
)

// config is what the command line sets: the problem to build and how
// to solve it, and the job admitted from them.
type config struct {
	problem string
	size    int
	iters   int
	seed    int64
	run     runConfig
	job     workload.Job
}

// specs maps each -problem, with -size and -seed, to its workload spec.
var specs = map[string]func(size int, seed int64) any{
	"packing": func(n int, seed int64) any { return packing.Spec{N: n, Seed: seed} },
	"mpc":     func(k int, _ int64) any { return mpc.Spec{K: k} },
	"svm":     func(n int, seed int64) any { return svm.Spec{N: n, Lambda: 0.5, Seed: seed} },
	"lasso":   func(m int, seed int64) any { return lasso.Spec{M: m, Lambda: 0.3, Seed: seed} },
}

// parseConfig parses the command line and admits the problem the flags
// describe, the way a serve request or a shardworker admits its spec. A
// malformed value, a stray argument, a negative count, an unknown
// problem, a size admission refuses or an invalid executor is an error,
// reported with the usage the way the flag package reports its own; -h
// prints the usage and returns flag.ErrHelp.
func parseConfig(args []string) (config, error) {
	var c config
	var backend, transport, addrs, failover string
	var shards int
	var fused bool
	fs := flag.NewFlagSet("paradmm-solve", flag.ContinueOnError)
	fs.StringVar(&c.problem, "problem", "packing", "packing | mpc | svm | lasso")
	fs.IntVar(&c.size, "size", 10, "circles / horizon / data points / observations")
	fs.IntVar(&c.iters, "iters", 2000, fmt.Sprintf("ADMM iterations (0 selects the serving default, %d)", workload.DefaultMaxIter))
	fs.StringVar(&backend, "backend", "serial", "serial | sharded | auto")
	fs.IntVar(&shards, "shards", 4, "shard count for -backend sharded")
	fs.BoolVar(&fused, "fused", true, "false = the five-phase reference schedule (-backend serial only; every other executor runs the fused two-pass schedule)")
	fs.StringVar(&transport, "transport", "", "sharded boundary exchange: local (default) | sockets (in-process loopback, or remote workers with -addrs)")
	fs.StringVar(&addrs, "addrs", "", "comma-separated paradmm-shardworker endpoints (unix:/path | tcp:host:port), one per shard, for -transport sockets")
	fs.StringVar(&failover, "failover", "", "sockets transport recovery on worker loss: none (default, fail the solve) | survivors (re-partition onto live workers, re-run cold) | local (survivors, then in-process fused fallback)")
	fs.IntVar(&c.run.repeat, "repeat", 1, "solve the same problem N times from the same initial state (over -addrs, repeats after the first hit the workers' caches and skip the state down-sync)")
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
	case specs[c.problem] == nil:
		bad = fmt.Errorf("unknown problem %q", c.problem)
	}
	// Every count must not be negative; -seed may be.
	passed := map[string]bool{}
	fs.Visit(func(f *flag.Flag) {
		passed[f.Name] = true
		v, ok := f.Value.(flag.Getter).Get().(int)
		if neg := ok && v < 0; neg && bad == nil {
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
		spec.Addrs = admm.ParseAddrs(addrs)
		spec.Fused = &fused
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
	default:
		c.job.Spec, bad = json.Marshal(specs[c.problem](c.size, c.seed))
	}
	if bad == nil {
		c.job.Admission, bad = workload.Parse(c.problem, c.job.Spec)
		c.job.Executor, c.job.MaxIter = c.run.spec, c.iters
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
	if err := run(c); err != nil {
		fatal(err)
	}
}

// runConfig is how to solve: the executor spec from the flags, and how
// many times.
type runConfig struct {
	spec   admm.ExecutorSpec
	repeat int
}

// run solves the problem -repeat times, each from its initial state,
// and prints the last solve's quality metrics. The first solve builds
// the problem and the repeats reuse it; over worker processes they hit
// the workers' caches too.
func run(c config) error {
	job := c.job
	var out workload.Outcome
	var err error
	for rep := 1; rep <= c.run.repeat; rep++ {
		if rep > 1 {
			fmt.Printf("--- repeat %d/%d ---\n", rep, c.run.repeat)
			out.Problem.Reset() // a held problem continues its state
		}
		if out, err = solveOnce(job, out.Problem); err != nil {
			return err
		}
	}
	pairs := make([]string, len(out.Metrics))
	for i, m := range out.Metrics {
		pairs[i] = m.Name + "=" + strconv.FormatFloat(m.Value, 'g', -1, 64)
	}
	fmt.Printf("%s: %s\n", job.Workload, strings.Join(pairs, " "))
	return nil
}

// solveOnce solves job on held (nil builds it) and reports the solve.
func solveOnce(job workload.Job, held workload.Problem) (workload.Outcome, error) {
	out, err := workload.Solve(context.Background(), job, held, workload.Env{})
	if err != nil {
		return out, err
	}
	report(out.Result, out.Problem.FactorGraph(), out.Backend, out.ShardStats)
	if out.Attempts > 1 || out.Failovers > 0 || out.LocalFallback {
		fmt.Printf("failover: %d attempts, %d failovers, local fallback %v; failures: %s\n",
			out.Attempts, out.Failovers, out.LocalFallback, strings.Join(out.Failures, "; "))
	}
	return out, nil
}

// report prints the solve; a sharded one adds the partition, one line
// per worker and the exchange and handshake traffic.
func report(res admm.Result, g *graph.Graph, name string, st shard.Stats) {
	s := g.Stats()
	fmt.Printf("graph: %d functions, %d variables, %d edges (d=%d)\n",
		s.Functions, s.Variables, s.Edges, s.D)
	fmt.Printf("backend %s: %d iterations in %v\n", name, res.Iterations, res.Elapsed)
	fr := res.PhaseFractions()
	fmt.Printf("phase time: x %.0f%%, m %.0f%%, z %.0f%%, u %.0f%%, n %.0f%%\n",
		100*fr[0], 100*fr[1], 100*fr[2], 100*fr[3], 100*fr[4])
	if len(st.Workers) == 0 {
		return
	}
	fmt.Printf("shards: %d (%s transport), %d boundary vars / %d boundary edges, cut cost %.0f words; phase time above is each block's straggler's\n",
		len(st.Workers), st.Transport, st.BoundaryVars, st.BoundaryEdges, st.CutCost)
	share := func(n int64) float64 { return 100 * float64(n) / float64(max(res.Elapsed.Nanoseconds(), 1)) }
	for i, w := range st.Workers {
		ph := &w.PhaseNanos
		fmt.Printf("worker %d: %d edges, %d boundary vars; x %.1f%%, z %.1f%%, u %.1f%%, sync wait %.1f%% of the solve; boundary z %v; straggler in %d blocks",
			i, w.Edges, w.BoundaryVars, share(ph[admm.PhaseX]), share(ph[admm.PhaseM]+ph[admm.PhaseZ]), share(ph[admm.PhaseU]+ph[admm.PhaseN]),
			share(w.SyncWait), nanos(w.BoundaryZ), w.Straggles)
		if w.Cache != "" {
			fmt.Printf("; cache %s", w.Cache)
		}
		fmt.Println()
	}
	if st.BytesPerIter > 0 {
		fmt.Printf("exchange: %.0f payload bytes/iter moved vs %.0f predicted (cut cost x 8), %.0f on the wire with framing\n",
			st.BytesPerIter, 8*st.CutCost, st.WireBytesPerIter)
	}
	if st.HandshakeFrames > 0 {
		fmt.Printf("handshake: %d state pushes, %d frames\n", st.StatePushes, st.HandshakeFrames)
	}
}

func nanos(n int64) string { return fmt.Sprintf("%.2fms", float64(n)/1e6) }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "paradmm-solve:", err)
	os.Exit(1)
}
