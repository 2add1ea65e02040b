package admm

import "repro/internal/graph"

// ReferenceBackend is a deliberately naive engine in the style of the
// general-purpose message-passing tool the paper compares against in
// Section V-A ("on a single core and for 500 circles, the time per
// iteration of our tool is more than 4x faster than the tool used by
// [9], [24]"). It computes exactly the same iterates as the serial
// backend but through pointer-chasing per-edge map lookups and per-call
// allocations instead of flat preallocated arrays — the implementation
// style the flat SoA layout is being credited against.
type ReferenceBackend struct {
	// state maps edge -> name -> vector; rebuilt lazily from the graph.
	edges map[int]map[string][]float64
	zs    map[int][]float64
	owner *graph.Graph
}

// NewReference returns the naive baseline engine.
func NewReference() *ReferenceBackend { return &ReferenceBackend{} }

// Name implements Backend.
func (r *ReferenceBackend) Name() string { return "reference-naive" }

// Close implements Backend.
func (r *ReferenceBackend) Close() {}

func (r *ReferenceBackend) load(g *graph.Graph) {
	d := g.D()
	g.EnsureM()
	r.owner = g
	r.edges = make(map[int]map[string][]float64, g.NumEdges())
	for e := 0; e < g.NumEdges(); e++ {
		m := map[string][]float64{}
		for _, name := range []string{"x", "m", "u", "n"} {
			v := make([]float64, d)
			var src []float64
			switch name {
			case "x":
				src = g.EdgeBlock(g.X, e)
			case "m":
				src = g.EdgeBlock(g.M, e)
			case "u":
				src = g.EdgeBlock(g.U, e)
			case "n":
				src = g.EdgeBlock(g.N, e)
			}
			copy(v, src)
			m[name] = v
		}
		r.edges[e] = m
	}
	r.zs = make(map[int][]float64, g.NumVariables())
	for b := 0; b < g.NumVariables(); b++ {
		v := make([]float64, d)
		copy(v, g.VarBlock(g.Z, b))
		r.zs[b] = v
	}
}

func (r *ReferenceBackend) store(g *graph.Graph) {
	for e := 0; e < g.NumEdges(); e++ {
		copy(g.EdgeBlock(g.X, e), r.edges[e]["x"])
		copy(g.EdgeBlock(g.M, e), r.edges[e]["m"])
		copy(g.EdgeBlock(g.U, e), r.edges[e]["u"])
		copy(g.EdgeBlock(g.N, e), r.edges[e]["n"])
	}
	for b := 0; b < g.NumVariables(); b++ {
		copy(g.VarBlock(g.Z, b), r.zs[b])
	}
}

// Iterate implements Backend. The iterates match the serial backend
// exactly (same update order, same arithmetic); only the data-structure
// traversal differs.
func (r *ReferenceBackend) Iterate(g *graph.Graph, iters int, phaseNanos *[NumPhases]int64) error {
	d := g.D()
	r.load(g)
	sw := StartStopwatch()
	for it := 0; it < iters; it++ {
		// x-update: gather n per function node into freshly allocated
		// buffers, scatter x back.
		for a := 0; a < g.NumFunctions(); a++ {
			lo, hi := g.FuncEdges(a)
			deg := hi - lo
			n := make([]float64, deg*d)
			x := make([]float64, deg*d)
			rho := make([]float64, deg)
			for k := 0; k < deg; k++ {
				copy(n[k*d:(k+1)*d], r.edges[lo+k]["n"])
				rho[k] = g.Rho[lo+k]
			}
			g.Op(a).Eval(x, n, rho, d)
			for k := 0; k < deg; k++ {
				copy(r.edges[lo+k]["x"], x[k*d:(k+1)*d])
			}
		}
		sw.Lap(&phaseNanos[PhaseX])

		for e := 0; e < g.NumEdges(); e++ {
			ed := r.edges[e]
			x, u, m := ed["x"], ed["u"], ed["m"]
			for i := 0; i < d; i++ {
				m[i] = x[i] + u[i]
			}
		}
		sw.Lap(&phaseNanos[PhaseM])

		for b := 0; b < g.NumVariables(); b++ {
			z := r.zs[b]
			acc := make([]float64, d)
			var rhoSum float64
			for _, e := range g.VarEdges(b) {
				m := r.edges[e]["m"]
				rho := g.Rho[e]
				rhoSum += rho
				for i := 0; i < d; i++ {
					acc[i] += rho * m[i]
				}
			}
			for i := 0; i < d; i++ {
				z[i] = acc[i] / rhoSum
			}
		}
		sw.Lap(&phaseNanos[PhaseZ])

		for e := 0; e < g.NumEdges(); e++ {
			ed := r.edges[e]
			z := r.zs[g.EdgeVar(e)]
			x, u := ed["x"], ed["u"]
			al := g.Alpha[e]
			for i := 0; i < d; i++ {
				u[i] += al * (x[i] - z[i])
			}
		}
		sw.Lap(&phaseNanos[PhaseU])

		for e := 0; e < g.NumEdges(); e++ {
			ed := r.edges[e]
			z := r.zs[g.EdgeVar(e)]
			u, n := ed["u"], ed["n"]
			for i := 0; i < d; i++ {
				n[i] = z[i] - u[i]
			}
		}
		sw.Lap(&phaseNanos[PhaseN])
	}
	r.store(g)
	return nil
}

var _ Backend = (*ReferenceBackend)(nil)
