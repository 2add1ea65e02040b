// Command paradmm-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	paradmm-bench list                 # show every experiment id
//	paradmm-bench fig7 fig8            # run specific experiments
//	paradmm-bench all                  # run everything
//	paradmm-bench -full fig7           # paper-scale workloads (slow, RAM-hungry)
//	paradmm-bench -csv fig7            # CSV instead of aligned tables
//
// Each experiment id names the paper artifact it regenerates (`list`
// prints the index). Performance numbers that gate a change come from
// the repository benchmark (benchmark/README.md, BENCHMARK.json), not
// from here.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
)

func main() {
	full := flag.Bool("full", false, "paper-scale workload sizes (slower; packing needs several GB)")
	seed := flag.Int64("seed", 1, "seed for randomized workloads")
	csvOut := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: paradmm-bench [-full] [-seed N] [-csv] <experiment-id>... | all | list\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}

	if args[0] == "list" {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-22s %s\n", e.ID, e.Paper)
		}
		return
	}

	ids := args
	if args[0] == "all" {
		ids = nil
		for _, e := range bench.Experiments() {
			ids = append(ids, e.ID)
		}
	}
	scale := bench.Scale{Full: *full, Seed: *seed}
	for _, id := range ids {
		if *csvOut {
			e, err := bench.Lookup(id)
			if err != nil {
				fatal(err)
			}
			tables, err := e.Run(scale)
			if err != nil {
				fatal(err)
			}
			for _, t := range tables {
				if err := t.WriteCSV(os.Stdout); err != nil {
					fatal(err)
				}
			}
			continue
		}
		if err := bench.RunAndWrite(id, scale, os.Stdout); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "paradmm-bench:", err)
	os.Exit(1)
}
