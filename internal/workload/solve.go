package workload

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/admm"
	"repro/internal/fleet"
	"repro/internal/graph"
	"repro/internal/shard"
)

// The serving defaults every product reads: the iteration budget of a
// request that names none, and the largest budget a request may name.
const (
	DefaultMaxIter = 1000
	MaxIterLimit   = 200000
)

// Job is an admitted solve: what the spec builds, how to run it, and
// where to start from.
type Job struct {
	Admission
	// Spec is the raw spec the admission was parsed from; worker
	// processes rebuild the graph from it.
	Spec     json.RawMessage
	Executor admm.ExecutorSpec
	// MaxIter is the iteration budget; 0 selects DefaultMaxIter.
	MaxIter int
	// AbsTol/RelTol enable the residual stopping test; zero runs the
	// whole budget as one fixed-count block.
	AbsTol, RelTol float64
	// Warm, when captured and of the problem's shape, is the state the
	// solve starts from. Otherwise a held problem starts from the state
	// its graph holds, and one Solve binds is Reset.
	Warm *admm.WarmState
	// Metrics is the storage Outcome.Metrics is appended to, from length
	// 0; a caller that solves in a loop passes the last outcome's back.
	Metrics []Metric
}

// Env is what a caller shares across solves. The zero Env builds every
// problem and runs no fleet.
type Env struct {
	Cache *graph.Cache[Problem]
	Fleet *fleet.Registry
}

// Outcome is what Solve did.
type Outcome struct {
	shard.Outcome
	// Problem is the bound instance, set on failures too once bound.
	Problem Problem
	// CacheHit reports that Problem came from Env.Cache; BuildNanos is
	// the build's time when Solve built it.
	CacheHit   bool
	BuildNanos int64
	// Warm reports that the solve started from Job.Warm.
	Warm bool
	// Route is the fleet planner's verdict, "" when no fleet ran.
	Route fleet.Route
	// Metrics is Problem's quality report, sorted by name, read before
	// Solve returned: the caller may hand Problem on without touching it
	// again.
	Metrics []Metric
}

// Solve takes an admitted job to its outcome on the one path every
// product shares: bind the problem (held, else from the cache, else
// built), plan it onto the fleet, set the start state, attach the
// problem reference worker processes rebuild from, and run shard.Solve.
// A panic on the way — in the build, an operator or a backend — is
// returned as an error.
//
// A held problem is the caller's chain: unless job.Warm applies, the
// solve continues from the state its graph holds, and a caller that
// wants a cold start Resets it first.
//
// A job with a tolerance stops at its next residual check once ctx is
// done; a tolerance-free job runs its budget as one fixed-count block,
// whatever ctx, so it ends on the same bits on every route. ctx also
// cancels shard.Solve between attempts over worker processes.
func Solve(ctx context.Context, job Job, held Problem, env Env) (out Outcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("solve panic: %v", r)
		}
	}()

	p := held
	if p == nil && env.Cache != nil {
		p, out.CacheHit = env.Cache.Get(job.Key)
	}
	if p == nil {
		t := time.Now()
		if p, err = job.Build(); err != nil {
			return out, err
		}
		out.BuildNanos = time.Since(t).Nanoseconds()
	}
	out.Problem = p
	g := p.FactorGraph()

	spec := job.Executor
	if env.Fleet != nil && fleetEligible(spec) {
		d := env.Fleet.Plan(g)
		// The lease (if any) outlives the whole solve, including the
		// failover loop's re-partitioned retries.
		defer d.Release()
		out.Route = d.Route
		switch d.Route {
		case fleet.RouteShed:
			return out, fmt.Errorf("fleet saturated: %s", d.Reason)
		case fleet.RouteRemote:
			spec = d.Spec(spec)
		}
	}

	// Apply checks the shape before it writes: a snapshot that does not
	// fit leaves g untouched, and the solve starts from the held state
	// or cold.
	out.Warm = job.Warm != nil && job.Warm.Apply(g) == nil
	if !out.Warm && held == nil {
		p.Reset()
	}
	if len(spec.Addrs) > 0 {
		spec.Problem = &admm.ProblemRef{Workload: job.Workload, Spec: job.Spec}
	}

	opts := admm.SolveOptions{Executor: spec, MaxIter: job.MaxIter, AbsTol: job.AbsTol, RelTol: job.RelTol}
	if opts.MaxIter == 0 {
		opts.MaxIter = DefaultMaxIter
	}
	// Any hook turns on residual checks (admm.Run), so only a job that
	// checks anyway gets one.
	if (job.AbsTol > 0 || job.RelTol > 0) && ctx.Done() != nil {
		opts.OnIteration = func(int, float64, float64) bool { return ctx.Err() == nil }
	}
	if out.Outcome, err = shard.Solve(ctx, g, opts); err != nil {
		return out, err
	}
	out.Metrics = p.AppendMetrics(job.Metrics[:0])
	return out, nil
}

// fleetEligible reports whether an executor spec delegates the
// local-vs-remote choice to the fleet planner: an unset or auto kind,
// or a sharded sockets spec that names no workers of its own. Specs
// that pin explicit addrs (or any other concrete executor) keep their
// requested behavior.
func fleetEligible(spec admm.ExecutorSpec) bool {
	switch spec.Kind {
	case "", admm.ExecAuto:
		return spec.Transport == "" && len(spec.Addrs) == 0
	case admm.ExecSharded:
		return spec.Transport == admm.TransportSockets && len(spec.Addrs) == 0
	}
	return false
}
