package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/graph"
	"repro/internal/lasso"
	"repro/internal/mpc"
	"repro/internal/packing"
	"repro/internal/svm"
)

// Problem is the uniform serving-side view of a built workload: the
// graph owner a graph.Cache pools, plus reset and quality-metric hooks.
// Both the per-request solve service (internal/serve) and the streaming
// bulk pipeline (internal/bulk) admit requests through it.
type Problem interface {
	// FactorGraph returns the finalized graph the solve runs on.
	FactorGraph() *graph.Graph
	// Bytes prices the built problem for the graph cache's budget: the
	// graph's arrays plus the data its operators own, from slice
	// capacities. Graph arrays alone undercount lasso's heap many times
	// over (its per-block design rows and ridge factors dominate).
	Bytes() int64
	// Reset reinitializes ADMM state so a (possibly cache-reused) graph
	// starts a fresh solve.
	Reset()
	// Metrics reports domain-specific quality numbers after a solve:
	// finite values only, always in a non-nil map. A degenerate solve
	// can make a metric NaN or ±Inf (packing's min_radius), and JSON
	// cannot carry those, so they are left out.
	Metrics() map[string]float64
}

// Admission is a validated solve admission: the canonical shape key for
// the graph cache plus a deferred builder run on a worker on cache miss
// (instance construction is the expensive part and stays off the
// admission path).
type Admission struct {
	// Workload is the canonical (lower-cased) workload name.
	Workload string
	// Key is the shape key graph caches and warm-start state are
	// grouped under.
	Key string
	// Build constructs the problem instance the spec describes.
	Build func() (Problem, error)
}

// Per-workload size caps. Worker counts and iteration limits bound how
// many problems run and for how long — these bound how *large* each is,
// so a single request cannot demand an arbitrarily large factor graph
// (packing's node count is quadratic in N; lasso's design matrix is
// M x P) and OOM the process at build time.
const (
	maxLassoM     = 8192
	maxLassoP     = 512
	maxSVMN       = 8192
	maxSVMDim     = 256
	maxMPCHorizon = 100000 // the paper's own sweep ceiling
	maxPackingN   = 512
)

// decodeStrict decodes raw strictly (unknown fields are errors, so typos
// in specs fail at admission instead of silently using defaults).
func decodeStrict(raw json.RawMessage, into any) error {
	if len(raw) == 0 {
		return fmt.Errorf("missing spec")
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	return dec.Decode(into)
}

// checkADMMParams refuses a negative ADMM penalty or relaxation. Every
// spec reads 0 as "use the default 1", and graph.SetUniformParams
// panics on anything else <= 0, so an admitted negative value would
// fail in the build instead of at admission.
func checkADMMParams(workload string, rho, alpha float64) error {
	if rho < 0 {
		return fmt.Errorf("%s: rho = %g, need > 0 (0 selects the default)", workload, rho)
	}
	if alpha < 0 {
		return fmt.Errorf("%s: alpha = %g, need > 0 (0 selects the default)", workload, alpha)
	}
	return nil
}

// checkLambda refuses a negative penalty weight (lasso's L1 weight,
// svm's slack weight). 0 selects the default; a negative weight makes
// the problem unbounded below, so an admitted one ran its whole
// iteration budget and replied with garbage.
func checkLambda(workload string, lambda float64) error {
	if lambda < 0 {
		return fmt.Errorf("%s: lambda = %g, need > 0 (0 selects the default)", workload, lambda)
	}
	return nil
}

// parsers maps workload names to spec parsers. Each parser validates
// the raw spec's required fields, size caps and ADMM parameters at
// admission time.
var parsers = map[string]func(json.RawMessage) (Admission, error){
	"lasso": func(raw json.RawMessage) (Admission, error) {
		var s lasso.Spec
		if err := decodeStrict(raw, &s); err != nil {
			return Admission{}, err
		}
		if s.M < 2 || s.M > maxLassoM {
			return Admission{}, fmt.Errorf("lasso: m = %d, need 2..%d", s.M, maxLassoM)
		}
		if s.P < 0 || s.P > maxLassoP {
			return Admission{}, fmt.Errorf("lasso: p = %d, need 0..%d (0 selects the default)", s.P, maxLassoP)
		}
		// The build splits the m rows into blocks, so a negative count or
		// more blocks than rows fails there.
		if s.Blocks < 0 || s.Blocks > s.M {
			return Admission{}, fmt.Errorf("lasso: blocks = %d, need 0..m = %d (0 selects the default)", s.Blocks, s.M)
		}
		if err := checkLambda("lasso", s.Lambda); err != nil {
			return Admission{}, err
		}
		if err := checkADMMParams("lasso", s.Rho, s.Alpha); err != nil {
			return Admission{}, err
		}
		return Admission{Key: s.Key(), Build: func() (Problem, error) {
			p, err := lasso.FromSpec(s)
			if err != nil {
				return nil, err
			}
			return lassoProblem{p}, nil
		}}, nil
	},
	"svm": func(raw json.RawMessage) (Admission, error) {
		var s svm.Spec
		if err := decodeStrict(raw, &s); err != nil {
			return Admission{}, err
		}
		if s.N < 2 || s.N > maxSVMN {
			return Admission{}, fmt.Errorf("svm: n = %d, need 2..%d", s.N, maxSVMN)
		}
		if s.Dim < 0 || s.Dim > maxSVMDim {
			return Admission{}, fmt.Errorf("svm: dim = %d, need 0..%d (0 selects the default)", s.Dim, maxSVMDim)
		}
		if err := checkLambda("svm", s.Lambda); err != nil {
			return Admission{}, err
		}
		if err := checkADMMParams("svm", s.Rho, s.Alpha); err != nil {
			return Admission{}, err
		}
		return Admission{Key: s.Key(), Build: func() (Problem, error) {
			p, err := svm.FromSpec(s)
			if err != nil {
				return nil, err
			}
			return svmProblem{p}, nil
		}}, nil
	},
	"mpc": func(raw json.RawMessage) (Admission, error) {
		var s mpc.Spec
		if err := decodeStrict(raw, &s); err != nil {
			return Admission{}, err
		}
		if s.K < 1 || s.K > maxMPCHorizon {
			return Admission{}, fmt.Errorf("mpc: k = %d, need 1..%d", s.K, maxMPCHorizon)
		}
		if s.Q0 != nil && len(s.Q0) != mpc.StateDim {
			return Admission{}, fmt.Errorf("mpc: q0 must have length %d", mpc.StateDim)
		}
		if err := checkADMMParams("mpc", s.Rho, s.Alpha); err != nil {
			return Admission{}, err
		}
		return Admission{Key: s.Key(), Build: func() (Problem, error) {
			p, err := mpc.FromSpec(s)
			if err != nil {
				return nil, err
			}
			return mpcProblem{p}, nil
		}}, nil
	},
	"packing": func(raw json.RawMessage) (Admission, error) {
		var s packing.Spec
		if err := decodeStrict(raw, &s); err != nil {
			return Admission{}, err
		}
		if s.N < 1 || s.N > maxPackingN {
			return Admission{}, fmt.Errorf("packing: n = %d, need 1..%d", s.N, maxPackingN)
		}
		if err := checkADMMParams("packing", s.Rho, s.Alpha); err != nil {
			return Admission{}, err
		}
		return Admission{Key: s.Key(), Build: func() (Problem, error) {
			p, err := packing.FromSpec(s)
			if err != nil {
				return nil, err
			}
			return packingProblem{p, s}, nil
		}}, nil
	},
}

// Parse validates one workload request (name + raw spec) into an
// admission. The name is case/space-normalized; the spec is decoded
// strictly and size-capped. Construction itself is deferred to
// Admission.Build.
func Parse(name string, raw json.RawMessage) (Admission, error) {
	w := strings.ToLower(strings.TrimSpace(name))
	parser, ok := parsers[w]
	if !ok {
		return Admission{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(Names(), " | "))
	}
	adm, err := parser(raw)
	// Stamp the canonical name even on spec errors so callers can
	// attribute the rejection to the right workload in their metrics.
	adm.Workload = w
	return adm, err
}

// CheckControls validates a request's solve controls, the same for the
// per-request and the bulk envelope: an iteration budget in
// 0..maxIterLimit (0 selects the caller's default) and finite,
// non-negative stopping tolerances.
func CheckControls(maxIter, maxIterLimit int, absTol, relTol float64) error {
	if maxIter < 0 || maxIter > maxIterLimit {
		return fmt.Errorf("max_iter = %d, need 0..%d", maxIter, maxIterLimit)
	}
	// !(x >= 0) refuses NaN along with the negatives.
	if !(absTol >= 0) || !(relTol >= 0) || math.IsInf(absTol, 1) || math.IsInf(relTol, 1) {
		return fmt.Errorf("abs_tol/rel_tol must be finite and >= 0")
	}
	return nil
}

// finite drops m's NaN and ±Inf values in place and returns it.
func finite(m map[string]float64) map[string]float64 {
	for k, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			delete(m, k)
		}
	}
	return m
}

type lassoProblem struct{ *lasso.Problem }

func (p lassoProblem) Reset() { p.Graph.InitZero() }
func (p lassoProblem) Metrics() map[string]float64 {
	x := p.Coefficients()
	return finite(map[string]float64{
		"objective":      p.Objective(x),
		"optimality_gap": p.OptimalityGap(x),
	})
}

type svmProblem struct{ *svm.Problem }

func (p svmProblem) Reset() { p.Graph.InitZero() }
func (p svmProblem) Metrics() map[string]float64 {
	return finite(map[string]float64{
		"accuracy":        p.Accuracy(p.Cfg.Data),
		"hinge_objective": p.HingeObjective(),
		"plane_spread":    p.PlaneSpread(),
	})
}

type mpcProblem struct{ *mpc.Problem }

func (p mpcProblem) Reset() { p.Graph.InitZero() }
func (p mpcProblem) Metrics() map[string]float64 {
	return finite(map[string]float64{
		"cost":              p.Cost(),
		"dynamics_residual": p.DynamicsResidual(),
		"u0":                p.Input(0),
	})
}

type packingProblem struct {
	*packing.Problem
	spec packing.Spec
}

// Reset re-randomizes from the spec's seed: packing is nonconvex, and a
// deterministic init keeps identical requests byte-reproducible.
func (p packingProblem) Reset() {
	seed := p.spec.Seed
	if seed == 0 {
		seed = 1
	}
	p.InitRandom(rand.New(rand.NewSource(seed)))
}

func (p packingProblem) Metrics() map[string]float64 {
	v := p.CheckValidity()
	return finite(map[string]float64{
		"coverage":    p.Coverage(),
		"max_overlap": v.MaxOverlap,
		"max_wall":    v.MaxWall,
		"min_radius":  v.MinRadius,
	})
}
