package workload

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/admm"
	"repro/internal/exchange"
	"repro/internal/graph"
)

// specs is one small, valid spec per registered workload.
var specs = map[string]string{
	"lasso":   `{"m":64,"blocks":4,"lambda":0.3}`,
	"svm":     `{"n":40}`,
	"mpc":     `{"k":30}`,
	"packing": `{"n":6}`,
}

// TestMetricsFinite pins the Problem.Metrics contract the serving and
// bulk encoders rely on: a non-nil map of finite values, after a healthy
// solve and after one that diverged to an Inf/NaN iterate.
func TestMetricsFinite(t *testing.T) {
	cases := map[string][2]string{"mpc diverged": {"mpc", `{"k":4,"q0":[1e308,1e308,1e308,1e308]}`}}
	for name, spec := range specs {
		cases[name] = [2]string{name, spec}
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			adm, err := Parse(c[0], []byte(c[1]))
			if err != nil {
				t.Fatal(err)
			}
			p, err := adm.Build()
			if err != nil {
				t.Fatal(err)
			}
			p.Reset()
			if _, err := admm.Solve(p.FactorGraph(), admm.SolveOptions{MaxIter: 50}); err != nil {
				t.Fatal(err)
			}
			m := p.Metrics()
			if m == nil {
				t.Fatal("Metrics returned a nil map")
			}
			for k, v := range m {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("metric %s = %g, want finite values only", k, v)
				}
			}
		})
	}
}

// TestBuildIsDeterministic pins the cross-process rebuild contract: a
// shard worker that builds the same ProblemRef as its coordinator gets
// the same graph shape, derives the same boundary manifest under the
// default partition (the digest the handshake compares), and — because
// the operators come from the same seeded draw — iterates bit for bit
// alike.
func TestBuildIsDeterministic(t *testing.T) {
	names := Names()
	if len(names) != len(specs) {
		t.Fatalf("Names() = %v: the spec table above covers %d workloads", names, len(specs))
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			spec, ok := specs[name]
			if !ok {
				t.Fatalf("no test spec for workload %q", name)
			}
			a, err := Build(name, []byte(spec))
			if err != nil {
				t.Fatal(err)
			}
			b, err := Build(name, []byte(spec))
			if err != nil {
				t.Fatal(err)
			}
			if sa, sb := a.Stats(), b.Stats(); sa != sb {
				t.Fatalf("two builds of one spec differ in shape:\n%+v\n%+v", sa, sb)
			}
			for _, shards := range []int{2, 3} {
				digests := [2]uint64{}
				for i, g := range []*graph.Graph{a, b} {
					part, err := graph.NewPartition(g, shards, graph.StrategyBalanced)
					if err != nil {
						t.Fatal(err)
					}
					digests[i] = exchange.NewManifest(g, &part, shards).Digest()
				}
				if digests[0] != digests[1] {
					t.Fatalf("%d shards: manifest digests %016x != %016x", shards, digests[0], digests[1])
				}
			}
			var nanos [admm.NumPhases]int64
			for _, g := range []*graph.Graph{a, b} {
				g.InitZero()
				admm.NewSerial().Iterate(g, 5, &nanos)
			}
			if !reflect.DeepEqual(a.Z, b.Z) {
				t.Fatal("two builds of one spec iterate to different z")
			}
		})
	}
}

func TestBuildRejects(t *testing.T) {
	if _, err := Build("nope", []byte(`{}`)); err == nil {
		t.Error("unknown workload built")
	}
	for name := range specs {
		if _, err := Build(name, nil); err == nil {
			t.Errorf("%s: missing spec built", name)
		}
		if _, err := Build(name, []byte(`{"bogus":1}`)); err == nil {
			t.Errorf("%s: unknown spec field built", name)
		}
	}
	// A worker builds through this function from a peer's Cfg: what
	// admission refuses for size, it must refuse too.
	for name, spec := range map[string]string{
		"lasso":   `{"m":8193}`,
		"svm":     `{"n":8193}`,
		"mpc":     `{"k":100001}`,
		"packing": `{"n":513}`,
	} {
		if _, err := Builders()[name]([]byte(spec)); err == nil {
			t.Errorf("%s: over-cap spec %s built", name, spec)
		}
	}
	// A negative rho or alpha (0 selects the default) is refused at
	// admission with the field named; admitted, it panicked in
	// graph.SetUniformParams.
	for _, c := range []struct{ name, spec, field string }{
		{"lasso", `{"m":8,"rho":-1}`, "rho"},
		{"lasso", `{"m":8,"alpha":-1}`, "alpha"},
		{"svm", `{"n":8,"rho":-1}`, "rho"},
		{"svm", `{"n":8,"alpha":-1}`, "alpha"},
		{"mpc", `{"k":4,"rho":-1}`, "rho"},
		{"mpc", `{"k":4,"alpha":-1}`, "alpha"},
		{"packing", `{"n":4,"rho":-0.1,"delta":-0.5}`, "rho"},
		{"packing", `{"n":4,"alpha":-1}`, "alpha"},
		// A negative lambda is an unbounded problem that ran its whole
		// budget; a negative or over-m block count failed in the build.
		{"svm", `{"n":24,"dim":2,"lambda":-1}`, "lambda"},
		{"lasso", `{"m":32,"lambda":-0.3}`, "lambda"},
		{"lasso", `{"m":32,"blocks":-2}`, "blocks"},
		{"lasso", `{"m":32,"blocks":33}`, "blocks"},
	} {
		_, err := Build(c.name, []byte(c.spec))
		if err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s %s: err %v, want a refusal naming %q", c.name, c.spec, err, c.field)
		}
	}
}

// TestParseRejects: every malformed admission is an error (never a
// panic), and a spec error still names the workload it was for, so
// callers count the rejection against the right workload.
func TestParseRejects(t *testing.T) {
	adm, err := Parse("nope", json.RawMessage(`{}`))
	if err == nil || adm.Workload != "" || adm.Build != nil {
		t.Fatalf("unknown workload: admission %+v, err %v", adm, err)
	}
	for _, name := range Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-workload error %q does not list %q", err, name)
		}
	}
	cases := []struct{ name, workload, spec string }{
		{"missing spec", "lasso", ``},
		{"not json", "svm", `{`},
		{"wrong type", "mpc", `{"k":"ten"}`},
		{"lasso unknown field", "lasso", `{"m":64,"lamda":0.3}`},
		{"svm unknown field", "svm", `{"n":40,"dims":3}`},
		{"mpc unknown field", "mpc", `{"k":30,"horizon":30}`},
		{"packing unknown field", "packing", `{"n":6,"radius":1}`},
		{"lasso m low", "lasso", `{"m":1}`},
		{"lasso m cap", "lasso", `{"m":8193}`},
		{"lasso p cap", "lasso", `{"m":64,"p":513}`},
		{"lasso p negative", "lasso", `{"m":64,"p":-1}`},
		{"lasso lambda negative", "lasso", `{"m":32,"lambda":-0.3}`},
		{"lasso blocks negative", "lasso", `{"m":32,"blocks":-2}`},
		{"lasso blocks over m", "lasso", `{"m":32,"blocks":33}`},
		{"svm lambda negative", "svm", `{"n":24,"dim":2,"lambda":-1}`},
		{"svm n low", "svm", `{"n":1}`},
		{"svm n cap", "svm", `{"n":8193}`},
		{"svm dim cap", "svm", `{"n":40,"dim":257}`},
		{"svm dim negative", "svm", `{"n":40,"dim":-1}`},
		{"mpc k low", "mpc", `{"k":0}`},
		{"mpc k negative", "mpc", `{"k":-5}`},
		{"mpc k cap", "mpc", `{"k":100001}`},
		{"mpc q0 length", "mpc", `{"k":30,"q0":[0,0,0.1]}`},
		{"packing n low", "packing", `{"n":0}`},
		{"packing n cap", "packing", `{"n":513}`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// Names are normalized before lookup; the stamp is canonical.
			adm, err := Parse(" "+strings.ToUpper(c.workload)+" ", json.RawMessage(c.spec))
			if err == nil {
				t.Fatalf("spec %s admitted", c.spec)
			}
			if adm.Workload != c.workload {
				t.Fatalf("rejection stamped workload %q, want %q", adm.Workload, c.workload)
			}
			if adm.Build != nil {
				t.Fatal("rejected admission carries a builder")
			}
		})
	}
}

// TestResetRestoresFreshSolve: a cached problem that was solved and
// Reset answers the next request exactly as a newly built one would.
func TestResetRestoresFreshSolve(t *testing.T) {
	solve := func(t *testing.T, p Problem) ([]float64, map[string]float64) {
		t.Helper()
		p.Reset()
		g := p.FactorGraph()
		if _, err := admm.Run(g, admm.Options{MaxIter: 60}); err != nil {
			t.Fatal(err)
		}
		return append([]float64(nil), g.Z...), p.Metrics()
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			build := func() Problem {
				adm, err := Parse(name, json.RawMessage(spec))
				if err != nil {
					t.Fatal(err)
				}
				if adm.Workload != name || adm.Key == "" {
					t.Fatalf("admission %+v", adm)
				}
				p, err := adm.Build()
				if err != nil {
					t.Fatal(err)
				}
				return p
			}
			wantZ, wantMetrics := solve(t, build())
			reused := build()
			solve(t, reused)
			gotZ, gotMetrics := solve(t, reused)
			if !reflect.DeepEqual(gotZ, wantZ) {
				t.Fatal("re-solve after Reset differs from a fresh problem's z")
			}
			if !reflect.DeepEqual(gotMetrics, wantMetrics) {
				t.Fatalf("re-solve metrics %v, fresh %v", gotMetrics, wantMetrics)
			}
		})
	}
}
