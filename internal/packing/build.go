package packing

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/graph"
)

// Config parameterizes a packing instance.
type Config struct {
	N         int       // number of circles
	Container Container // convex container (default UnitTriangle)
	Delta     float64   // radius-reward weight (default 0.5)
	Rho       float64   // ADMM penalty (default 1)
	Alpha     float64   // ADMM relaxation (default 1)
}

func (c *Config) defaults() {
	if c.Container.Walls == nil {
		c.Container = UnitTriangle()
	}
	if c.Delta == 0 {
		c.Delta = 0.5
	}
	if c.Rho == 0 {
		c.Rho = 1
	}
	if c.Alpha == 0 {
		c.Alpha = 1
	}
}

// Problem couples a packing factor-graph with index bookkeeping.
type Problem struct {
	Cfg   Config
	Graph *graph.Graph
}

// Dims is the per-edge block width for packing graphs (centers are 2-D;
// radius blocks pad their second component).
const Dims = 2

// centerVar and radiusVar map circle index to variable-node index.
func centerVar(i int) int { return 2 * i }
func radiusVar(i int) int { return 2*i + 1 }

// ExpectedShape returns the element counts the paper states for N
// circles and S walls: functions = N(N-1)/2 + N*S + N, variables = 2N,
// edges = 2N^2 - N + 2NS.
func ExpectedShape(n, s int) (funcs, vars, edges int) {
	return n*(n-1)/2 + n*s + n, 2 * n, 2*n*n - n + 2*n*s
}

// Build constructs the packing factor-graph of Figure 6.
func Build(cfg Config) (*Problem, error) { return build(cfg, CollisionOp{}) }

// build is Build with the pairwise operator as a parameter, so a test
// can solve the same graph with a reference operator.
func build(cfg Config, collision graph.Op) (*Problem, error) {
	cfg.defaults()
	if cfg.N < 1 {
		return nil, fmt.Errorf("packing: N = %d, need >= 1", cfg.N)
	}
	if cfg.Rho <= cfg.Delta {
		return nil, fmt.Errorf("packing: rho (%g) must exceed delta (%g) for the radius reward to stay bounded", cfg.Rho, cfg.Delta)
	}
	g := graph.New(Dims)
	// Pairwise collisions.
	for i := 0; i < cfg.N; i++ {
		for j := i + 1; j < cfg.N; j++ {
			g.AddNode(collision, centerVar(i), radiusVar(i), centerVar(j), radiusVar(j))
		}
	}
	// Walls.
	for i := 0; i < cfg.N; i++ {
		for _, w := range cfg.Container.Walls {
			g.AddNode(WallOp{Wall: w}, centerVar(i), radiusVar(i))
		}
	}
	// Radius rewards.
	for i := 0; i < cfg.N; i++ {
		g.AddNode(RadiusOp{Delta: cfg.Delta}, radiusVar(i))
	}
	if err := g.Finalize(); err != nil {
		return nil, err
	}
	g.SetUniformParams(cfg.Rho, cfg.Alpha)
	return &Problem{Cfg: cfg, Graph: g}, nil
}

// InitRandom seeds the ADMM state with centers sampled inside the
// container and small positive radii: the paper initializes uniformly at
// random between bounds; sampling feasibly just accelerates the
// non-convex heuristic. A nil rng uses a fixed seed.
func (p *Problem) InitRandom(rng *rand.Rand) {
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	g := p.Graph
	c := p.Cfg.Container
	scale := c.InRadius()
	r0 := scale / (2 * math.Sqrt(float64(p.Cfg.N)))
	ctr := c.Centroid()
	// Sample one point per circle by rejection inside the container.
	bboxLo, bboxHi := bbox(c)
	sample := func() Point {
		for k := 0; k < 1000; k++ {
			pt := Point{
				bboxLo.X + rng.Float64()*(bboxHi.X-bboxLo.X),
				bboxLo.Y + rng.Float64()*(bboxHi.Y-bboxLo.Y),
			}
			if c.Contains(pt, -r0/2) { // strictly interior margin
				return pt
			}
		}
		return ctr
	}
	centers := make([]Point, p.Cfg.N)
	for i := range centers {
		centers[i] = sample()
	}
	// Write z, and make every message consistent with it (x = m = n = z
	// restricted to each edge, m only where M exists; u = 0).
	for i := 0; i < p.Cfg.N; i++ {
		zc := g.VarBlock(g.Z, centerVar(i))
		zc[0], zc[1] = centers[i].X, centers[i].Y
		zr := g.VarBlock(g.Z, radiusVar(i))
		zr[0] = r0 * (0.5 + rng.Float64())
		zr[1] = 0
	}
	for e := 0; e < g.NumEdges(); e++ {
		z := g.VarBlock(g.Z, g.EdgeVar(e))
		copy(g.EdgeBlock(g.X, e), z)
		if g.M != nil {
			copy(g.EdgeBlock(g.M, e), z)
		}
		copy(g.EdgeBlock(g.N, e), z)
		u := g.EdgeBlock(g.U, e)
		u[0], u[1] = 0, 0
	}
}

func bbox(c Container) (lo, hi Point) {
	lo = Point{math.Inf(1), math.Inf(1)}
	hi = Point{math.Inf(-1), math.Inf(-1)}
	for _, v := range c.Vertices {
		lo.X = math.Min(lo.X, v.X)
		lo.Y = math.Min(lo.Y, v.Y)
		hi.X = math.Max(hi.X, v.X)
		hi.Y = math.Max(hi.Y, v.Y)
	}
	return lo, hi
}

// Center returns circle i's center read from the consensus variables.
func (p *Problem) Center(i int) Point {
	z := p.Graph.VarBlock(p.Graph.Z, centerVar(i))
	return Point{z[0], z[1]}
}

// Radius returns circle i's radius read from the consensus variables.
func (p *Problem) Radius(i int) float64 {
	return p.Graph.VarBlock(p.Graph.Z, radiusVar(i))[0]
}

// Coverage returns the fraction of the container area covered by the
// disks (assuming validity; overlaps are not subtracted).
func (p *Problem) Coverage() float64 {
	var area float64
	for i := 0; i < p.Cfg.N; i++ {
		r := p.Radius(i)
		if r > 0 {
			area += math.Pi * r * r
		}
	}
	return area / p.Cfg.Container.Area()
}

// Violation summarizes constraint violations of the current solution.
type Violation struct {
	MaxOverlap float64 // worst pairwise overlap r_i + r_j - dist
	MaxWall    float64 // worst wall violation r - signed distance
	MinRadius  float64 // smallest radius (negative = degenerate)
}

// CheckValidity measures constraint violations at the consensus point.
func (p *Problem) CheckValidity() Violation {
	v := Violation{MinRadius: math.Inf(1)}
	n := p.Cfg.N
	for i := 0; i < n; i++ {
		ri := p.Radius(i)
		if ri < v.MinRadius {
			v.MinRadius = ri
		}
		ci := p.Center(i)
		for _, w := range p.Cfg.Container.Walls {
			if viol := ri - w.SignedDist(ci); viol > v.MaxWall {
				v.MaxWall = viol
			}
		}
		for j := i + 1; j < n; j++ {
			d := ci.Sub(p.Center(j)).Norm()
			if ov := ri + p.Radius(j) - d; ov > v.MaxOverlap {
				v.MaxOverlap = ov
			}
		}
	}
	return v
}

// Valid reports whether all constraints hold within tol and radii are
// positive.
func (v Violation) Valid(tol float64) bool {
	return v.MaxOverlap <= tol && v.MaxWall <= tol && v.MinRadius > 0
}
