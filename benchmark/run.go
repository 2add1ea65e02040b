package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// runRecord is one measuring process's result as result.json keeps it.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	result
}

// resultFile is what `benchmark run` writes and `benchmark compare`
// reads: every run made, with the facts needed to interpret them.
type resultFile struct {
	Seconds    float64     `json:"seconds"`
	Scale      string      `json:"scale"`
	Go         string      `json:"go"`
	NProc      int         `json:"nproc"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Runs       []runRecord `json:"runs"`
}

// runAll measures the workloads one at a time, each run in a fresh
// child process of this binary so neither the resident-set high-water
// mark nor the collector's state leaks from one run into the next.
func runAll(args []string) error {
	fs := flag.NewFlagSet("benchmark run", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "seed of the first repeat; repeat r uses seed+r")
	seconds := fs.Float64("seconds", -1, "timed window per run (default: run_seconds of BENCHMARK.json)")
	only := fs.String("workload", "", "run this workload only")
	repeat := fs.Int("repeat", 1, "untraced runs per workload, each with its own seed")
	trace := fs.Bool("trace", false, "add one traced run per workload for the per-layer metrics")
	scale := fs.String("scale", "full", "full | smoke")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark description")
	out := fs.String("out", "benchmark/out", "output directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		return err
	}
	if *seconds < 0 {
		*seconds = float64(spec.RunSeconds)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	// An interrupt stops the child being measured along with this process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	file := resultFile{Seconds: *seconds, Scale: *scale, Go: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: procs}
	child := func(workload string, seed int64, trace bool) error {
		traceArg := "0"
		if trace {
			traceArg = "1"
		}
		cmd := exec.CommandContext(ctx, self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat(*seconds, 'g', -1, 64), "--trace", traceArg,
			"--scale", *scale, "--spec", *specPath, "--out", *out)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("%s seed %d: %w", workload, seed, err)
		}
		lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
		rec := runRecord{Workload: workload, Seed: seed, Trace: trace}
		if err := json.Unmarshal(lines[len(lines)-1], &rec.result); err != nil {
			return fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
		}
		file.Runs = append(file.Runs, rec)
		return nil
	}
	for _, w := range spec.workloadNames() {
		if *only != "" && w != *only {
			continue
		}
		for r := 0; r < *repeat; r++ {
			if err := child(w, *seed+int64(r), false); err != nil {
				return err
			}
		}
		if *trace {
			if err := child(w, *seed, true); err != nil {
				return err
			}
		}
		printWorkload(spec, w, file.Runs)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(*out, "result.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	for _, r := range file.Runs {
		if !r.Correct {
			return fmt.Errorf("%s seed %d: %d of %d answers wrong", r.Workload, r.Seed, r.Failed, r.Attempted)
		}
	}
	return nil
}

// printWorkload prints every metric of one workload by name with its
// unit: the median over the repeats and, with several, their spread.
func printWorkload(spec *benchSpec, workload string, runs []runRecord) {
	attempted, failed := 0, 0
	for _, r := range runs {
		if r.Workload == workload {
			attempted, failed = attempted+r.Attempted, failed+r.Failed
		}
	}
	fmt.Printf("\n%s: %d ops, %d failed\n", workload, attempted, failed)
	for _, list := range []struct {
		title string
		decls []metricDecl
		trace bool
	}{{"end to end", spec.EndToEnd, false}, {"per layer (traced run)", spec.PerLayer, true}} {
		header := false
		for _, m := range list.decls {
			vals := metricValues(runs, workload, m.Name, list.trace)
			if len(vals) == 0 {
				continue
			}
			if !header {
				fmt.Printf("  %s\n", list.title)
				header = true
			}
			line := fmt.Sprintf("    %-30s %14.6g %-8s", m.Name, median(vals), m.Unit)
			if len(vals) > 1 {
				line += fmt.Sprintf(" spread %.3f over %d runs", spread(vals), len(vals))
			}
			fmt.Println(strings.TrimRight(line, " "))
		}
	}
}

// metricValues collects one metric's value from every run of a workload
// of the given kind.
func metricValues(runs []runRecord, workload, metric string, trace bool) []float64 {
	var vals []float64
	for _, r := range runs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Trace == trace {
			vals = append(vals, v.Value)
		}
	}
	return vals
}
