package admm

import "repro/internal/graph"

// This file implements the three-weight-algorithm (TWA) extension the
// paper points to in Section II: "two parameters rho(a,b), alpha(a,b)
// ... for which there are also improved update schemes (e.g. [9] which
// parADMM can also implement)". Reference [9] (Derbinsky, Bento, Elser,
// Yedidia) lets every outgoing message carry one of three weight
// classes:
//
//	zero     — "no opinion": the operator's output on this edge is not
//	           informative (e.g. an inactive constraint) and must not
//	           drag the consensus;
//	standard — the usual finite rho;
//	infinite — "certain": the consensus must equal this message.
//
// The z-update becomes a class-aware average (infinite beats standard
// beats zero; an all-zero neighborhood leaves z unchanged), and the dual
// variable u accumulates only on standard-weight edges — zero/infinite
// messages carry no persistent disagreement. On packing problems the
// original TWA paper reports dramatically faster convergence, which the
// WeightedPacking test below reproduces in miniature.

// TWABackend runs the message-passing ADMM with three-weight semantics
// (weight classes and the WeightSetter interface live in package graph,
// next to Op). Operators that do not implement graph.WeightSetter behave
// exactly as under the standard engine.
type TWABackend struct {
	weights []graph.WeightClass
}

// NewTWA returns a three-weight backend.
func NewTWA() *TWABackend { return &TWABackend{} }

// Name implements Backend.
func (b *TWABackend) Name() string { return "twa-serial" }

// Close implements Backend.
func (b *TWABackend) Close() {}

// RunBlock implements Backend.
func (b *TWABackend) RunBlock(g *graph.Graph, blk Block) (BlockReport, error) {
	return SplitBlock(b.Iterate, g, blk)
}

// Iterate advances g by iters iterations, adding each phase's time.
func (b *TWABackend) Iterate(g *graph.Graph, iters int, phaseNanos *[NumPhases]int64) error {
	nE := g.NumEdges()
	if len(b.weights) != nE {
		b.weights = make([]graph.WeightClass, nE)
	}
	d := g.D()
	sw := StartStopwatch()
	for it := 0; it < iters; it++ {
		// x-update + weight classification.
		for a := 0; a < g.NumFunctions(); a++ {
			lo, hi := g.FuncEdges(a)
			x := g.X[lo*d : hi*d]
			n := g.N[lo*d : hi*d]
			rho := g.Rho[lo:hi]
			op := g.Op(a)
			op.Eval(x, n, rho, d)
			w := b.weights[lo:hi]
			for k := range w {
				w[k] = graph.WeightStandard
			}
			if ws, ok := op.(graph.WeightSetter); ok {
				ws.Weights(x, n, rho, d, w)
			}
		}
		sw.Lap(&phaseNanos[PhaseX])

		UpdateMRange(g, 0, nE)
		sw.Lap(&phaseNanos[PhaseM])

		// Class-aware z-update.
		b.updateZ(g)
		sw.Lap(&phaseNanos[PhaseZ])

		// u accumulates only where both sides talk with standard weight.
		for e := 0; e < nE; e++ {
			u := g.EdgeBlock(g.U, e)
			if b.weights[e] != graph.WeightStandard {
				for i := range u {
					u[i] = 0
				}
				continue
			}
			UpdateURange(g, e, e+1)
		}
		sw.Lap(&phaseNanos[PhaseU])

		UpdateNRange(g, 0, nE)
		sw.Lap(&phaseNanos[PhaseN])
	}
	return nil
}

func (b *TWABackend) updateZ(g *graph.Graph) {
	for v := 0; v < g.NumVariables(); v++ {
		edges := g.VarEdges(v)
		// Precedence pass: any infinite-weight message pins z.
		hasInf := false
		hasStd := false
		for _, e := range edges {
			switch b.weights[e] {
			case graph.WeightInf:
				hasInf = true
			case graph.WeightStandard:
				hasStd = true
			}
		}
		z := g.VarBlock(g.Z, v)
		switch {
		case hasInf:
			for i := range z {
				z[i] = 0
			}
			var count float64
			for _, e := range edges {
				if b.weights[e] != graph.WeightInf {
					continue
				}
				m := g.EdgeBlock(g.M, e)
				for i := range z {
					z[i] += m[i]
				}
				count++
			}
			inv := 1 / count
			for i := range z {
				z[i] *= inv
			}
		case hasStd:
			for i := range z {
				z[i] = 0
			}
			var rhoSum float64
			for _, e := range edges {
				if b.weights[e] != graph.WeightStandard {
					continue
				}
				r := g.Rho[e]
				rhoSum += r
				m := g.EdgeBlock(g.M, e)
				for i := range z {
					z[i] += r * m[i]
				}
			}
			inv := 1 / rhoSum
			for i := range z {
				z[i] *= inv
			}
		default:
			// All neighbors abstain: z keeps its previous value.
		}
	}
}

var _ Backend = (*TWABackend)(nil)
