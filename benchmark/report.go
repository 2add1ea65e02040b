package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// report prints, for every trace file a traced run left, where an op's
// time went: one row per span kind with its self time (the span minus
// what its children cover), rows and the stated remainder adding up to
// the op's median. The remainder is what medians of parts do not
// recover of the median of the whole.
func report(args []string) error {
	fs := flag.NewFlagSet("benchmark report", flag.ContinueOnError)
	out := fs.String("out", "benchmark/out", "directory holding trace-<workload>.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	paths, err := filepath.Glob(filepath.Join(*out, "trace-*.json"))
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("no trace files in %s; make them with `benchmark run -trace`", *out)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var tf traceFile
		if err := json.Unmarshal(data, &tf); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if err := checkSpans(tf.Spans); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		printBudget(tf)
	}
	return nil
}

// checkSpans verifies the span tree is well formed: ids are positions,
// every parent exists, shares its child's op and encloses it in time.
func checkSpans(spans []span) error {
	for i, s := range spans {
		if s.ID != i+1 {
			return fmt.Errorf("span %d has id %d", i+1, s.ID)
		}
		if s.EndNS < s.StartNS {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		if s.Parent < 1 || s.Parent >= s.ID {
			return fmt.Errorf("span %d (%s) has parent %d", s.ID, s.Name, s.Parent)
		}
		p := spans[s.Parent-1]
		if p.Op != s.Op || s.StartNS < p.StartNS || s.EndNS > p.EndNS {
			return fmt.Errorf("span %d (%s) does not nest inside its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
		}
	}
	return nil
}

// budgetRow is one kind of span within one kind of op.
type budgetRow struct {
	layer, name string
	depth       int
	selfNS      []float64
	attrs       map[string][]float64
}

func printBudget(tf traceFile) {
	self := make([]float64, len(tf.Spans))
	depth := make([]int, len(tf.Spans))
	for i, s := range tf.Spans {
		self[i] += float64(s.EndNS - s.StartNS)
		if s.Parent != 0 {
			self[s.Parent-1] -= float64(s.EndNS - s.StartNS)
			depth[i] = depth[s.Parent-1] + 1
		}
	}
	// Ops are the spans the harness opened around a timed op; every
	// other root span is a stand-alone layer probe.
	type opKind struct {
		totals []float64
		rows   map[string]*budgetRow
		order  []string
	}
	kinds := map[string]*opKind{}
	var kindOrder []string
	rootKind := map[int]string{}
	fmt.Printf("\n%s\n", tf.Workload)
	var probes []span
	for i, s := range tf.Spans {
		if s.Parent == 0 {
			if s.Layer != "harness" {
				probes = append(probes, s)
				continue
			}
			rootKind[s.Op] = s.Name
			if kinds[s.Name] == nil {
				kinds[s.Name] = &opKind{rows: map[string]*budgetRow{}}
				kindOrder = append(kindOrder, s.Name)
			}
			kinds[s.Name].totals = append(kinds[s.Name].totals, float64(s.EndNS-s.StartNS))
		}
		k := kinds[rootKind[s.Op]]
		if k == nil {
			continue // a probe's span
		}
		key := s.Layer + "/" + s.Name
		row := k.rows[key]
		if row == nil {
			row = &budgetRow{layer: s.Layer, name: s.Name, depth: depth[i], attrs: map[string][]float64{}}
			k.rows[key] = row
			k.order = append(k.order, key)
		}
		row.selfNS = append(row.selfNS, self[i])
		for a, v := range s.Attrs {
			row.attrs[a] = append(row.attrs[a], v)
		}
	}
	for _, name := range kindOrder {
		k := kinds[name]
		p50 := median(k.totals)
		fmt.Printf("  op %q: p50 %.3f ms over %d traced ops\n", name, p50/1e6, len(k.totals))
		fmt.Printf("    %-10s %-28s %12s %7s\n", "layer", "span (self time)", "ms", "share")
		sum := 0.0
		for _, key := range k.order {
			row := k.rows[key]
			v := median(row.selfNS)
			sum += v
			fmt.Printf("    %-10s %-28s %12.4f %6.1f%%\n", row.layer, indent(row.depth)+row.name, v/1e6, 100*ratio(v, p50))
			attrs := make([]string, 0, len(row.attrs))
			for a := range row.attrs {
				attrs = append(attrs, a)
			}
			sort.Strings(attrs)
			for _, a := range attrs {
				fmt.Printf("    %-10s %-28s %12.4f %6.1f%%  (program-reported)\n", "", indent(row.depth+1)+a, median(row.attrs[a])/1e6, 100*ratio(median(row.attrs[a]), p50))
			}
		}
		fmt.Printf("    %-10s %-28s %12.4f %6.1f%%\n", "", "unexplained remainder", (p50-sum)/1e6, 100*ratio(p50-sum, p50))
	}
	if len(probes) > 0 {
		fmt.Printf("  stand-alone probes\n")
		for _, s := range probes {
			fmt.Printf("    %-10s %-28s %12.4f ms for %g call(s)\n", s.Layer, s.Name, float64(s.EndNS-s.StartNS)/1e6, s.Attrs["reps"])
		}
	}
}

func indent(depth int) string {
	const pad = "          "
	return pad[:min(2*depth, len(pad))]
}
