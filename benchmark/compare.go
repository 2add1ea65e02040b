package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(vals, n=4) does, so spreads printed here equal
// the ones the acceptance procedure computes. It needs two values.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the distance between the quartiles as a share of the
// median; 0 for a single value.
func spread(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	q1, q3 := quartiles(vals)
	return ratio(q3-q1, median(vals))
}

func loadResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compare judges result file B against A with each end-to-end metric's
// direction and bound from BENCHMARK.json, one row per workload and
// metric. A pair whose own run-to-run spread exceeds the bound is
// unresolved, not unchanged. It fails when any row is worse.
func compare(args []string) error {
	fs := flag.NewFlagSet("benchmark compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark description")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: benchmark compare [-spec BENCHMARK.json] A.json B.json")
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		return err
	}
	a, err := loadResults(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := loadResults(fs.Arg(1))
	if err != nil {
		return err
	}
	worse := 0
	fmt.Printf("%-13s %-12s %14s %14s %8s %8s %6s  %s\n", "workload", "metric", "A", "B", "change", "spread", "bound", "verdict")
	for _, w := range spec.workloadNames() {
		for _, m := range spec.EndToEnd {
			va, vb := metricValues(a.Runs, w, m.Name, false), metricValues(b.Runs, w, m.Name, false)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			// change > 0 means B is worse, whatever the metric's direction.
			change := ratio(mb-ma, ma)
			if m.Better == "higher" {
				change = -change
			}
			noise := max(spread(va), spread(vb))
			verdict := "same"
			switch {
			case noise > m.Bound:
				verdict = "unresolved"
			case change > m.Bound:
				verdict = "worse"
				worse++
			case change < -m.Bound:
				verdict = "better"
			}
			fmt.Printf("%-13s %-12s %14.6g %14.6g %+8.3f %8.3f %6.2f  %s\n", w, m.Name, ma, mb, change, noise, m.Bound, verdict)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d metric(s) worse than their bound", worse)
	}
	return nil
}
