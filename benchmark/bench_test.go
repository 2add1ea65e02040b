package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/bulk"
)

const specPath = "../BENCHMARK.json"

// TestSmoke runs all five workloads at the smoke scale, untraced and
// traced: every declared metric comes out finite, every end-to-end one
// non-zero, all answers check, and the span tree is well formed.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.workloadNames() {
		for _, trace := range []bool{false, true} {
			out := t.TempDir()
			res, err := measure(options{workload: w, seed: 7, seconds: 0, trace: trace, smoke: true, spec: specPath, out: out})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := res.Metrics[m.Name]
				if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v)", w, trace, m.Name, v, ok)
				}
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w, m.Name, v.Value)
				}
			}
			if !trace {
				continue
			}
			data, err := os.ReadFile(filepath.Join(out, "trace-"+w+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(data, &tf); err != nil {
				t.Fatal(err)
			}
			if len(tf.Spans) == 0 {
				t.Errorf("%s: traced run recorded no spans", w)
			}
			if err := checkSpans(tf.Spans); err != nil {
				t.Errorf("%s: %v", w, err)
			}
		}
	}
}

// TestSpecNames holds BENCHMARK.json to the limits its reader enforces
// and to the set of workloads the program implements.
func TestSpecNames(t *testing.T) {
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d implemented", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		check(w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is declared but not implemented", w.Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") || w.Why == "" {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for _, m := range spec.EndToEnd {
		check(m.Name)
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(spec.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128", len(spec.PerLayer))
	}
	for _, m := range append(append([]metricDecl(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
	}
	for _, m := range spec.PerLayer {
		check(m.Name)
	}
}

// TestSeedDiscipline proves the seed alone fixes every input: one seed
// gives byte-identical request streams and problems, another changes them.
func TestSeedDiscipline(t *testing.T) {
	requests := func(seed int64) []byte {
		var all bytes.Buffer
		for client := 0; client < serveClients; client++ {
			s := newSchedule(seed, client, false)
			for i := 0; i < 500; i++ {
				body, _ := s.next()
				all.Write(body)
				all.WriteByte('\n')
			}
		}
		return all.Bytes()
	}
	records := func(seed int64) []byte {
		var b bytes.Buffer
		if err := bulk.Generate(&b, 500, seed); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	problems := func(seed int64) []byte {
		var b bytes.Buffer
		for _, w := range []string{"lasso-dense", "packing-wide", "mpc-chain"} {
			domain, spec, _ := solverInput(w, seed, false)
			b.WriteString(domain + spec)
		}
		return b.Bytes()
	}
	for name, gen := range map[string]func(int64) []byte{"serve requests": requests, "bulk records": records, "solver specs": problems} {
		if !bytes.Equal(gen(11), gen(11)) {
			t.Errorf("%s: two runs with one seed differ", name)
		}
		if bytes.Equal(gen(11), gen(12)) {
			t.Errorf("%s: a different seed did not change them", name)
		}
	}
}

// TestQuartiles pins the quartile method to Python's
// statistics.quantiles(values, n=4), which the acceptance procedure uses.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		vals   []float64
		q1, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 4}, 1, 4},
	} {
		if q1, q3 := quartiles(c.vals); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.vals, q1, q3, c.q1, c.q3)
		}
	}
}

// TestCompareVerdicts checks direction, bound and the unresolved rule.
func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, opMS, work []float64) string {
		var f resultFile
		for i := range opMS {
			f.Runs = append(f.Runs, runRecord{Workload: "lasso-dense", result: result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{
				"op_ms_p50":  {Value: opMS[i], Unit: "ms"},
				"work_per_s": {Value: work[i], Unit: "1/s"},
			}}})
		}
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", []float64{100, 101, 99}, []float64{50, 50, 51})
	same := write("same.json", []float64{103, 104, 102}, []float64{52, 51, 52})
	slow := write("slow.json", []float64{130, 131, 129}, []float64{50, 50, 51})
	lessWork := write("less.json", []float64{100, 101, 99}, []float64{30, 30, 31})
	noisy := write("noisy.json", []float64{100, 160, 60}, []float64{50, 50, 51})
	for _, c := range []struct {
		name, path string
		fails      bool
	}{{"same", same, false}, {"slower op", slow, true}, {"less work", lessWork, true}, {"noisy", noisy, false}} {
		err := compare([]string{"-spec", specPath, base, c.path})
		if (err != nil) != c.fails {
			t.Errorf("%s: compare error = %v, want failure %v", c.name, err, c.fails)
		}
	}
}

// TestClientsShareNoShape guards the split of the known shapes between
// the serve-mixed clients: two requests in flight for one instance hit
// the server's cache-before-metrics race and get wrong answers.
func TestClientsShareNoShape(t *testing.T) {
	owner := map[string]int{}
	for client := 0; client < serveClients; client++ {
		known := newSchedule(1, client, false).known()
		if len(known) < 2 {
			t.Errorf("client %d has %d known shapes", client, len(known))
		}
		for _, sh := range known {
			key := sh.domain + sh.spec
			if prev, dup := owner[key]; dup {
				t.Errorf("clients %d and %d both repeat %s", prev, client, key)
			}
			owner[key] = client
		}
	}
}
