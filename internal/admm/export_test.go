package admm

import (
	"math"
	"time"

	"repro/internal/graph"
)

// ExactCheck is Run's block-boundary check as it stood before the one
// certified pass: flushSubnormals, Residuals, then converged's three
// Norm2 calls. It is the reference CertifiedCheck is compared with.
func ExactCheck(g *graph.Graph, zPrev []float64, absTol, relTol float64) (primal, dual float64, conv bool) {
	flushSubnormals(g.U)
	primal, dual = Residuals(g, zPrev)
	return primal, dual, converged(g, primal, dual, absTol, relTol)
}

// CertifiedCheck is Run's block-boundary check: checkPass, then the
// decision from its sums.
func CertifiedCheck(g *graph.Graph, zPrev []float64, absTol, relTol float64) (primal, dual float64, conv bool) {
	s := checkPass(g, zPrev)
	return s.primal, s.dual, s.converged(g, absTol, relTol)
}

// RunExact is Run as it stood before the one certified pass — the
// reference whole solves are compared with. Only the check differs.
func RunExact(g *graph.Graph, opts Options) (Result, error) {
	var res Result
	backend := opts.Backend
	if backend == nil {
		backend = NewSerial()
		defer backend.Close()
	}
	check := opts.AbsTol > 0 || opts.RelTol > 0 || opts.OnIteration != nil
	needResiduals := check || opts.Adapt != nil
	every := opts.CheckEvery
	if every <= 0 {
		every = 10
	}
	var zPrev []float64
	if needResiduals {
		zPrev = g.ScratchZ()
	}
	res.Primal, res.Dual = math.NaN(), math.NaN()
	start := time.Now()
	done, adjusted := 0, 0
	var err error
	for done < opts.MaxIter {
		step := opts.MaxIter - done
		if needResiduals && step > every {
			step = every
		}
		if err = iterateBlock(backend, g, step, zPrev, &res.PhaseNanos); err != nil {
			break
		}
		flushSubnormals(g.U)
		if needResiduals {
			res.Primal, res.Dual = Residuals(g, zPrev)
		}
		done += step
		if opts.Adapt != nil && adaptRho(g, opts.Adapt, adjusted, res.Primal, res.Dual) != (Rescale{}) {
			adjusted++
		}
		if check {
			if opts.OnIteration != nil && !opts.OnIteration(done, res.Primal, res.Dual) {
				break
			}
			if converged(g, res.Primal, res.Dual, opts.AbsTol, opts.RelTol) {
				res.Converged = true
				break
			}
		}
	}
	res.Iterations = done
	res.Elapsed = time.Since(start)
	return res, err
}
