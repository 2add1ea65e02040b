package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDecl is one metric as BENCHMARK.json declares it. Per-layer
// metrics carry no bound.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is BENCHMARK.json. It is the only list of workloads and
// metrics: the program looks names and units up here, so the file and
// the code cannot drift apart.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func (s *benchSpec) workloadNames() []string {
	names := make([]string, len(s.Workloads))
	for i, w := range s.Workloads {
		names[i] = w.Name
	}
	return names
}

// workloads maps each workload name of BENCHMARK.json to its body.
var workloads = map[string]func(*bench) error{
	"lasso-dense":  solverWorkload,
	"packing-wide": solverWorkload,
	"mpc-chain":    solverWorkload,
	"serve-mixed":  serveWorkload,
	"bulk-warm":    bulkWorkload,
}

// setUps is how often a full-scale run sets its workload up before the
// timed window. setup_s is the median of the set-up times, which makes
// it steady enough to gate; the last set-up's state is the one measured.
const setUps = 3

// bench is the state of one measuring process: what a workload reads
// its inputs from and reports into.
type bench struct {
	o  options
	tr *tracer // nil unless -trace 1

	values    map[string]float64
	attempted int
	failed    int
	setupSecs []float64
}

// set reports one metric by its BENCHMARK.json name.
func (b *bench) set(name string, v float64) { b.values[name] = v }

// count records the outcome of one op's answer check.
func (b *bench) count(ok bool) {
	b.attempted++
	if !ok {
		b.failed++
	}
}

// setUp runs a workload's set-up, repeatedly at full scale, and times
// each at reference speed. release drops what the previous build made;
// collecting it first keeps the peak resident set from depending on
// when the collector happened to run.
func (b *bench) setUp(release func(), build func() error) error {
	n := setUps
	if b.o.smoke {
		n = 1
	}
	for i := 0; i < n; i++ {
		release()
		runtime.GC()
		speed := startSpeedMeter()
		t0 := time.Now()
		if err := build(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		secs := time.Since(t0).Seconds()
		b.setupSecs = append(b.setupSecs, secs*speed.factor())
	}
	return nil
}

// window is the timed part of a run: ops are issued while more reports
// true, that is for the run's -seconds but never fewer than min ops.
type window struct {
	start time.Time
	limit time.Duration
	min   int
}

func (b *bench) window(minOps int) *window {
	return &window{start: time.Now(), limit: time.Duration(b.o.seconds * float64(time.Second)), min: minOps}
}

func (w *window) more(done int) bool { return done < w.min || time.Since(w.start) < w.limit }

// tmpDir returns a fresh scratch directory under the output directory,
// so the benchmark writes nowhere outside its checkout.
func (b *bench) tmpDir() (string, error) {
	root := filepath.Join(b.o.out, "tmp")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, b.o.workload+"-")
}

// measure runs one workload and gathers its result.
func measure(o options) (*result, error) {
	spec, err := loadSpec(o.spec)
	if err != nil {
		return nil, err
	}
	body, ok := workloads[o.workload]
	declared := false
	for _, n := range spec.workloadNames() {
		declared = declared || n == o.workload
	}
	if !ok || !declared {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(spec.workloadNames(), " | "))
	}
	b := &bench{o: o, values: map[string]float64{}}
	if o.trace {
		b.tr = newTracer()
	}
	if err := body(b); err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	b.set("setup_s", median(b.setupSecs))
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	b.set("peak_rss_mb", rss)
	b.set("failed_share", float64(b.failed)/float64(b.attempted))
	if b.tr != nil {
		if err := b.tr.write(filepath.Join(o.out, "trace-"+o.workload+".json"), o.workload); err != nil {
			return nil, err
		}
	}
	return b.result(spec)
}

// result is the line a measuring process prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result selects the declared metrics of this run's kind: the
// end-to-end ones untraced, the per-layer ones traced. A per-layer
// metric the workload has nothing to say about reads 0 there; an
// end-to-end metric must be measured on every workload.
func (b *bench) result(spec *benchSpec) (*result, error) {
	known := map[string]bool{}
	for _, list := range [][]metricDecl{spec.EndToEnd, spec.PerLayer} {
		for _, m := range list {
			known[m.Name] = true
		}
	}
	for name, v := range b.values {
		if !known[name] {
			return nil, fmt.Errorf("metric %q is not declared in %s", name, b.o.spec)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %q = %v", name, v)
		}
	}
	res := &result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metricValue{},
	}
	decls := spec.EndToEnd
	if b.o.trace {
		decls = spec.PerLayer
	}
	for _, m := range decls {
		v, ok := b.values[m.Name]
		if !ok && !b.o.trace {
			return nil, fmt.Errorf("end-to-end metric %q was not measured", m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return res, nil
}

func (r *result) print(w io.Writer) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// peakRSSMiB reads this process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// quantile returns the q-quantile of vals by linear interpolation
// between order statistics; 0 for an empty sample.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// ratio is a/b, and 0 where the base is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
