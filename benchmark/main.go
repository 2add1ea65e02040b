// Command benchmark is the repository's one benchmark: five workloads,
// each stressing a different layer, measured end to end with tracing off
// and layer by layer in a separate traced run. See README.md beside this
// file for why each workload exists and how the protocol was chosen.
//
//	benchmark --workload W --seed N --seconds S --trace 0|1   one workload, this process
//	benchmark run [-seed N] [-seconds S] [-workload W] [-repeat R] [-trace]
//	benchmark report [-out DIR]
//	benchmark compare A.json B.json
//
// The first form is what BENCHMARK.json's command runs; its last line
// of standard output is one JSON object with the run's metrics.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
)

// procs is the GOMAXPROCS every measuring process pins: the reference
// box has 2 vCPUs, and the par2/sock2 cells and the 2-client,
// 2-worker workloads are sized to it.
const procs = 2

func main() {
	args := os.Args[1:]
	var err error
	switch {
	case len(args) > 0 && args[0] == "run":
		err = runAll(args[1:])
	case len(args) > 0 && args[0] == "report":
		err = report(args[1:])
	case len(args) > 0 && args[0] == "compare":
		err = compare(args[1:])
	default:
		err = runOne(args)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// options are the flags of one measuring process.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool   // tiny sizes and minimum op counts, for the smoke test
	spec     string // path of BENCHMARK.json
	out      string // directory for trace files and scratch
}

func parseOptions(args []string) (options, error) {
	var o options
	var trace int
	var scale string
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload name from BENCHMARK.json")
	fs.Int64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the timed window")
	fs.IntVar(&trace, "trace", 0, "1 records spans and reports the per-layer metrics")
	fs.StringVar(&scale, "scale", "full", "full | smoke")
	fs.StringVar(&o.spec, "spec", "BENCHMARK.json", "benchmark description")
	fs.StringVar(&o.out, "out", "benchmark/out", "output directory")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("-trace = %d, want 0 or 1", trace)
	}
	if scale != "full" && scale != "smoke" {
		return o, fmt.Errorf("-scale = %q, want full or smoke", scale)
	}
	o.trace = trace == 1
	o.smoke = scale == "smoke"
	return o, nil
}

// runOne measures one workload in this process and prints its result
// line. It fails without printing one when the run could not be made;
// a run that completed with wrong answers prints "correct": false.
func runOne(args []string) error {
	o, err := parseOptions(args)
	if err != nil {
		return err
	}
	runtime.GOMAXPROCS(procs)
	res, err := measure(o)
	if err != nil {
		return err
	}
	return res.print(os.Stdout)
}
