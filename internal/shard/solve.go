package shard

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/admm"
	"repro/internal/graph"
)

// Recovery is the trail a Solve left on its way to a result: which
// backend produced it and, for a solve over worker processes, how many
// attempts were burned and which workers were dropped. The serving
// layer returns it verbatim as a job's result.failover object, so the
// JSON names are API.
type Recovery struct {
	// Attempts counts full solve attempts over worker processes,
	// including the successful one (and the local fallback, when it
	// fired). 0 means the spec named no workers: the solve ran
	// in-process and the trail holds nothing but Backend.
	Attempts int `json:"attempts"`
	// HandshakeRetries counts the attempts Solve ran again on an
	// unchanged worker set: busy-refusal waits and the one same-set
	// retry after a failure every worker survived. A failed solve
	// counts its retries too.
	HandshakeRetries int `json:"dial_retries,omitempty"`
	// Failovers counts worker-set shrinks: each one re-partitioned the
	// problem onto fewer workers and re-ran the solve cold.
	Failovers int `json:"failovers,omitempty"`
	// LocalFallback reports that the result came from the in-process
	// fused executor after the remote worker pool was exhausted.
	LocalFallback bool `json:"local_fallback,omitempty"`
	// Backend names the backend that produced the result.
	Backend string `json:"backend,omitempty"`
	// FinalAddrs is the worker set that produced the result (nil for an
	// in-process solve and under LocalFallback).
	FinalAddrs []string `json:"workers,omitempty"`
	// Failures is the error trail of the failed attempts, in order.
	Failures []string `json:"failures,omitempty"`
}

// Outcome is what Solve did: the engine result, the sharded backend's
// statistics when one ran, and the recovery trail. The serving layer
// turns this into response metadata and metrics.
type Outcome struct {
	// Result is the engine result of the attempt that succeeded.
	Result admm.Result
	// ShardStats is the successful sharded backend's partition and
	// synchronization statistics; its Workers is empty when another
	// executor (or the local fallback) produced the result.
	ShardStats Stats
	Recovery
	// Health is the last worker-health probe taken while failing over
	// (nil when the first attempt succeeded).
	Health []WorkerHealth
}

// Solve is the one route from an executor spec to a finished solve: it
// builds the backend the spec describes, runs ADMM on g from the state
// the caller left it in (opts.Warm is not consulted: a warm start is
// applied to g before the call), releases the backend, and reports
// what happened. Failure has
// one channel — the returned error; a worker process lost mid-solve is
// a typed *WorkerError like one lost at the handshake.
//
// A spec that names worker processes (Addrs) runs the one attempt
// loop; each attempt is one NewRemote — one dial and handshake — and
// one Run. After a failed attempt the loop decides:
//
//   - a config *WorkerError, an error that is no *WorkerError, or a
//     done ctx ends the solve at once: no worker set can change it;
//   - a busy refusal retries the same set after busyPoll, until the
//     waits add up to the liveness bound;
//   - under FailoverNone, a failure after the handshake (PhaseIterate,
//     PhaseCollect) ends the solve, so none never re-runs a solve that
//     started;
//   - any other failure probes the workers. If every one answers, the
//     same set runs once more. Otherwise, or on a second failure,
//     FailoverSurvivors and FailoverLocal re-partition onto the live
//     workers (dropping the one the error named when all answer) and
//     re-run cold, and FailoverNone returns the error. FailoverLocal
//     finishes on the in-process fused executor once no worker is left.
//
// Every attempt starts from the same snapshot of g's pre-solve state,
// so the final result is bit-identical to a clean solve with the final
// worker set (or with the serial executor, under FailoverLocal) —
// recovery never changes the answer, only who computes it. ctx cancels
// between attempts and during dials and probes.
func Solve(ctx context.Context, g *graph.Graph, opts admm.SolveOptions) (Outcome, error) {
	var out Outcome
	spec := opts.Executor
	if len(spec.Addrs) == 0 {
		backend, err := spec.NewBackend(g)
		if err != nil {
			return out, err
		}
		defer backend.Close()
		return out, out.run(g, opts, backend)
	}
	if err := spec.Validate(); err != nil {
		return out, err
	}
	shrink := spec.Failover == admm.FailoverSurvivors || spec.Failover == admm.FailoverLocal
	snap := g.SaveState()
	bound := time.Duration(liveBound.Load())
	cur := spec
	cur.Addrs = append([]string(nil), spec.Addrs...)
	// Worst case sheds one worker per failover down to a single
	// survivor, plus one same-set retry for a transient failure.
	maxAttempts := len(cur.Addrs) + 2
	sameSetRetried := false
	// Busy-refusal patience: total time spent out-waiting "worker
	// busy" rejections, bounded by the liveness bound.
	const busyPoll = 250 * time.Millisecond
	var busyWaited time.Duration
	abandoned := func(last error) error {
		return fmt.Errorf("shard: solve abandoned: %w (last failure: %v)", ctx.Err(), last)
	}
	for out.Attempts < maxAttempts && len(cur.Addrs) > 0 {
		if out.Attempts > 0 {
			g.RestoreState(snap)
		}
		out.Attempts++
		err := out.attempt(ctx, g, opts, cur)
		if err == nil {
			out.FinalAddrs = cur.Addrs
			return out, nil
		}
		out.Failures = append(out.Failures, err.Error())
		if ctx.Err() != nil {
			return out, abandoned(err)
		}
		var we *WorkerError
		if !errors.As(err, &we) || we.Config {
			// An engine or configuration error that another worker set
			// cannot change.
			return out, err
		}
		// A busy refusal is the worker's explicit word that it is
		// alive but occupied — typically a previous attempt's session
		// still draining its mesh wait after a peer died, or a queued
		// opener from an abandoned attempt. Out-wait the teardown
		// instead of dropping a live worker.
		var re *remoteError
		if errors.As(err, &re) && re.transient() && busyWaited < bound {
			busyWaited += busyPoll
			maxAttempts++ // patience, not a failover attempt
			out.HandshakeRetries++
			if sleepCtx(ctx, busyPoll) != nil {
				return out, abandoned(err)
			}
			continue
		}
		if !shrink && (we.Phase == PhaseIterate || we.Phase == PhaseCollect) {
			return out, err
		}
		out.Health = ProbeWorkers(ctx, cur.Addrs, bound)
		survivors := make([]string, 0, len(cur.Addrs))
		for _, h := range out.Health {
			if h.Alive {
				survivors = append(survivors, h.Addr)
			}
		}
		switch {
		case len(survivors) == len(cur.Addrs) && !sameSetRetried:
			// Every worker answered the probe — the failure may have
			// been transient (a flaky link, a worker busy tearing
			// down). Retry the same set once.
			sameSetRetried = true
			out.HandshakeRetries++
		case !shrink:
			return out, err
		default:
			// Shrink onto the live workers; a second failure with every
			// worker alive drops the one the error named, even though
			// it still answers probes.
			if len(survivors) == len(cur.Addrs) {
				survivors = slices.DeleteFunc(survivors, func(a string) bool { return a == we.Addr })
			}
			sameSetRetried = false
			out.Failovers++
			cur.Addrs = survivors // NewRemote runs one shard per addr
		}
		if len(cur.Addrs) == 0 {
			break
		}
		if sleepCtx(ctx, attemptBackoff(out.Attempts)) != nil {
			return out, abandoned(err)
		}
	}
	if spec.Failover != admm.FailoverLocal {
		return out, fmt.Errorf("shard: no workers left after %d attempts (%d failovers); last failure: %s",
			out.Attempts, out.Failovers, out.Failures[len(out.Failures)-1])
	}
	// Local fallback: finish on the in-process fused executor (the
	// serial default), bit-identical to every other executor.
	g.RestoreState(snap)
	opts.Executor = admm.ExecutorSpec{Kind: admm.ExecSerial}
	res, err := admm.Solve(g, opts)
	if err != nil {
		return out, err
	}
	out.Attempts++
	out.Result = res
	out.Backend = "serial(fused,local-fallback)"
	out.LocalFallback = true
	return out, nil
}

// run drives one backend through opts' iteration controls and records
// the result, the backend's name and — for a sharded backend — its
// statistics.
func (out *Outcome) run(g *graph.Graph, opts admm.SolveOptions, backend admm.Backend) error {
	res, err := admm.Run(g, admm.Options{
		MaxIter:     opts.MaxIter,
		Backend:     backend,
		AbsTol:      opts.AbsTol,
		RelTol:      opts.RelTol,
		CheckEvery:  opts.CheckEvery,
		Adapt:       opts.Adapt,
		OnIteration: opts.OnIteration,
	})
	if err != nil {
		return err
	}
	out.Result = res
	out.Backend = backend.Name()
	if sr, ok := backend.(StatsReporter); ok {
		out.ShardStats = sr.Stats()
	}
	return nil
}

// attempt is one cold solve over the worker processes in spec.Addrs.
// Each attempt's Run counts its own rho adaptations, so a re-run from a
// restored snapshot starts from none.
func (out *Outcome) attempt(ctx context.Context, g *graph.Graph, opts admm.SolveOptions, spec admm.ExecutorSpec) error {
	r, err := NewRemote(ctx, spec, g)
	if err != nil {
		return err
	}
	defer r.Close()
	return out.run(g, opts, r)
}

func attemptBackoff(attempt int) time.Duration {
	return min(time.Duration(attempt)*100*time.Millisecond, time.Second)
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
