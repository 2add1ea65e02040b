package admm

import (
	"math"
	"testing"
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
		step := blockLen(done, opts.MaxIter, every, needResiduals, check)
		var rep BlockReport
		if rep, err = backend.RunBlock(g, Block{Iters: step, ZPrev: zPrev}); err != nil {
			break
		}
		for p, v := range rep.PhaseNanos {
			res.PhaseNanos[p] += v
		}
		flushSubnormals(g.U)
		if needResiduals {
			res.Primal, res.Dual = Residuals(g, zPrev)
		}
		done += step
		if opts.Adapt != nil && adaptsAt(done, opts.MaxIter, every) && adaptRho(g, opts.Adapt, adjusted, res.Primal, res.Dual) != (Rescale{}) {
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

// ForceGoSweep makes UpdateZUNRange run the Go loops in place of the
// AVX2 sweep until the test ends.
func ForceGoSweep(t testing.TB) {
	saved := sweepAVX2
	sweepAVX2 = false
	t.Cleanup(func() { sweepAVX2 = saved })
}

// SweepAVX2 reports whether UpdateZUNRange runs the AVX2 sweep.
func SweepAVX2() bool { return sweepAVX2 }

// BenchGraph is benchGraph for the external benchmarks.
var BenchGraph = benchGraph
