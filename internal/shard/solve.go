package shard

import (
	"context"
	"errors"
	"fmt"
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
	// HandshakeRetries is the successful attempt's dial+handshake
	// retries (Stats.HandshakeRetries).
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
	// synchronization statistics; HasShardStats is false when another
	// executor (or the local fallback) produced the result.
	ShardStats    Stats
	HasShardStats bool
	Recovery
	// Health is the last worker-health probe taken while failing over
	// (nil when the first attempt succeeded).
	Health []WorkerHealth
}

// Solve is the one route from an executor spec to a finished solve: it
// applies opts.Warm, builds the backend the spec describes, runs ADMM
// on g, releases the backend, and reports what happened. Failure has
// one channel — the returned error; a worker process lost mid-solve is
// a typed *WorkerError like one lost at the handshake.
//
// A spec that names worker processes (Addrs) runs under its failover
// policy (spec.Failover): FailoverNone fails on the first worker loss,
// FailoverSurvivors probes the workers, re-partitions the problem onto
// the live ones and re-runs cold until none remain, FailoverLocal
// additionally finishes on the in-process fused executor. Every
// attempt starts from the same snapshot of g's pre-solve state, so the
// final result is bit-identical to a clean solve with the final worker
// set (or with the serial executor, under FailoverLocal) — recovery
// never changes the answer, only who computes it. Non-transport errors
// (engine errors, config mismatches) are never retried. ctx cancels
// between attempts and during handshakes and probes.
func Solve(ctx context.Context, g *graph.Graph, opts admm.SolveOptions) (Outcome, error) {
	var out Outcome
	// Warm state applies once: a failed-over re-run must restart from
	// the same warm iterate the first attempt saw, not re-apply it onto
	// mutated state.
	if opts.Warm != nil && opts.Warm.Captured() {
		if err := opts.Warm.Apply(g); err != nil {
			return out, err
		}
		opts.Warm = nil
	}
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
	failover := spec.Failover == admm.FailoverSurvivors || spec.Failover == admm.FailoverLocal
	var snap graph.State
	if failover {
		snap = g.SaveState()
	}
	tmo := specTimeouts(spec)
	cur := spec
	cur.Addrs = append([]string(nil), spec.Addrs...)
	// Worst case sheds one worker per failover down to a single
	// survivor, plus one same-set retry for a transient failure.
	maxAttempts := len(cur.Addrs) + 2
	sameSetRetried := false
	// Busy-refusal patience: total time spent out-waiting "worker
	// busy" rejections, bounded by the handshake timeout.
	const busyPoll = 250 * time.Millisecond
	var busyWaited time.Duration
	for out.Attempts < maxAttempts && len(cur.Addrs) > 0 {
		if out.Attempts > 0 {
			g.RestoreState(snap)
		}
		out.Attempts++
		err := out.attempt(ctx, g, opts, cur)
		if err == nil {
			out.HandshakeRetries = out.ShardStats.HandshakeRetries
			out.FinalAddrs = cur.Addrs
			return out, nil
		}
		out.Failures = append(out.Failures, err.Error())
		var we *WorkerError
		if !failover || !errors.As(err, &we) || we.Config {
			// No recovery policy; or an engine or configuration error,
			// or an abandoned context, that another worker set cannot
			// change.
			return out, err
		}
		// A busy refusal is the worker's explicit word that it is
		// alive but occupied — typically a previous attempt's session
		// still draining its mesh wait after a peer died, or a queued
		// opener from an abandoned attempt. Shrinking would drop a
		// live worker, so out-wait the teardown instead, bounded by
		// the handshake timeout.
		var re *remoteError
		if errors.As(err, &re) && re.transient() && busyWaited < tmo.handshake {
			busyWaited += busyPoll
			maxAttempts++ // patience, not a failover attempt
			if err := sleepCtx(ctx, busyPoll); err != nil {
				return out, fmt.Errorf("shard: failover abandoned: %w (last failure: %v)", err, we)
			}
			continue
		}
		// Transport failure under an active failover policy: probe the
		// current worker set and shrink onto the survivors.
		out.Health = ProbeWorkers(ctx, cur.Addrs, tmo.dial)
		survivors := make([]string, 0, len(cur.Addrs))
		for _, h := range out.Health {
			if h.Alive {
				survivors = append(survivors, h.Addr)
			}
		}
		if len(survivors) == len(cur.Addrs) {
			// Every worker answered the probe — the failure may have
			// been transient (a flaky link, a worker busy tearing down).
			// Retry the full set once; a second failure drops the
			// worker the error named, even though it still answers
			// probes.
			if !sameSetRetried {
				sameSetRetried = true
			} else {
				survivors = dropAddr(survivors, we.Addr)
				sameSetRetried = false
			}
		} else {
			sameSetRetried = false
		}
		if len(survivors) < len(cur.Addrs) {
			out.Failovers++
			cur.Addrs = survivors // NewRemote runs one shard per addr
		}
		if len(cur.Addrs) == 0 {
			break
		}
		if err := sleepCtx(ctx, attemptBackoff(out.Attempts)); err != nil {
			return out, fmt.Errorf("shard: failover abandoned: %w (last failure: %v)", err, we)
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
		out.ShardStats, out.HasShardStats = sr.Stats(), true
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

func dropAddr(addrs []string, addr string) []string {
	out := addrs[:0]
	for _, a := range addrs {
		if a != addr {
			out = append(out, a)
		}
	}
	return out
}

func attemptBackoff(attempt int) time.Duration {
	d := time.Duration(attempt) * 100 * time.Millisecond
	if d > time.Second {
		d = time.Second
	}
	return d
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
