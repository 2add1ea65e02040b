package admm

import (
	"fmt"
	"path/filepath"
	"strings"

	"repro/internal/graph"
)

// ExecutorKind names how a spec runs a solve. The zero value selects the
// serial baseline.
type ExecutorKind string

// The executors a spec can name. The sharded executor's implementation
// lives in internal/shard and registers itself via RegisterExecutor;
// importing that package links it in. The other backends of this
// package (ParallelForBackend, AsyncBackend, TWABackend) and the
// simulated devices of internal/gpusim are library types for the paper
// figures: no spec names them, and a caller plugs one in through
// Options.Backend.
const (
	ExecSerial  ExecutorKind = "serial"
	ExecSharded ExecutorKind = "sharded"
	// ExecAuto defers the choice to ResolveAuto: the spec is resolved
	// against the finalized graph's Stats (a size threshold and the
	// predicted cut cost) into serial or sharded. See auto.go.
	ExecAuto ExecutorKind = "auto"
)

// ExecutorSpec is a declarative backend selection: a kind plus its
// knobs. It is the unit of per-request executor choice for the serving
// layer, the bulk pipeline and the CLI — each parses user input into a
// spec and hands it to shard.Solve, the superset of Solve that also
// drives worker processes, instead of wiring backend constructors by
// hand.
type ExecutorSpec struct {
	Kind ExecutorKind `json:"kind"`
	// Shards is the shard count for the sharded executor (default 4;
	// sharded only).
	Shards int `json:"shards,omitempty"`
	// Fused, set to false, selects the five-phase reference schedule —
	// the oracle every conformance pin and the benchmark compare
	// against — and is valid for kind serial only: every other executor
	// runs the fused two-pass schedule (fused.go; bit-identical
	// iterates, strictly cheaper) and nothing else. nil and true mean
	// that one schedule.
	Fused *bool `json:"fused,omitempty"`
	// Transport selects how the sharded executor's boundary exchange is
	// carried (sharded only): "" or "local" for in-process shared
	// memory, "sockets" for the message protocol of internal/exchange.
	Transport string `json:"transport,omitempty"`
	// Addrs lists the control endpoints of running paradmm-shardworker
	// processes, one per shard, for Transport "sockets" ("unix:/path"
	// or "tcp:host:port"). Empty keeps the sockets transport in-process
	// over loopback streams.
	Addrs []string `json:"addrs,omitempty"`
	// The sockets transport has no timeout or retry knob: the liveness
	// rule of internal/shard (the workers' heartbeats) bounds a whole
	// worker session, dial, handshake and every block, and shard.Solve's
	// one attempt loop owns every retry.
	// Failover selects the recovery policy when a worker process is
	// lost mid-solve: "" or "none" fail the solve with a typed error,
	// "survivors" re-partitions onto the workers still alive and
	// re-runs cold, "local" additionally falls back to the local fused
	// executor when too few workers survive. Requires Addrs; honored by
	// shard.Solve (the serving layer, the bulk pipeline and the CLIs
	// route every request through it). Solve and NewBackend build the
	// remote backend and report a lost worker as an error, whatever the
	// policy.
	Failover string `json:"failover,omitempty"`
	// Problem lets the sockets transport ship a rebuildable problem
	// description to remote workers. It is filled by the serving layer
	// and the CLIs from their request context, never decoded from the
	// wire spec itself.
	Problem *ProblemRef `json:"-"`
}

// Failover policies for ExecutorSpec.Failover. Every policy preserves
// the determinism contract: a solve either fails with an error or
// returns the bit-identical result of a clean cold solve with the final
// configuration — never a corrupted answer.
const (
	// FailoverNone fails the solve on worker loss (the default).
	FailoverNone = "none"
	// FailoverSurvivors re-partitions onto the live workers and re-runs
	// cold; the solve fails only when no workers survive.
	FailoverSurvivors = "survivors"
	// FailoverLocal is FailoverSurvivors plus a final local fused
	// executor fallback, so the solve succeeds as long as the
	// coordinator itself is healthy.
	FailoverLocal = "local"
)

// FusedEnabled reports whether the spec selects the fused schedule:
// true unless Fused explicitly disables it (kind serial only).
func (s ExecutorSpec) FusedEnabled() bool { return s.Fused == nil || *s.Fused }

// Boundary-exchange transports for the sharded executor
// (ExecutorSpec.Transport). The empty string means TransportLocal.
const (
	// TransportLocal carries the boundary exchange over shared-memory
	// barriers — the in-process default.
	TransportLocal = "local"
	// TransportSockets carries it over the length-prefixed frame
	// protocol of internal/exchange: in-process worker goroutines over
	// loopback byte streams when Addrs is empty (the full wire codec,
	// no kernel), or one remote paradmm-shardworker process per shard
	// when Addrs lists their control endpoints.
	TransportSockets = "sockets"
)

// SplitAddr parses a worker endpoint into a network and address for
// net.Dial/net.Listen: "unix:/path" and "tcp:host:port" are explicit;
// a bare string containing a path separator is a unix socket path,
// anything else a TCP host:port.
func SplitAddr(addr string) (network, address string) {
	switch {
	case strings.HasPrefix(addr, "unix:"):
		return "unix", strings.TrimPrefix(addr, "unix:")
	case strings.HasPrefix(addr, "tcp:"):
		return "tcp", strings.TrimPrefix(addr, "tcp:")
	case strings.ContainsAny(addr, "/\\"):
		return "unix", addr
	default:
		return "tcp", addr
	}
}

// EndpointKey names the worker process an endpoint reaches, so that two
// spellings of one endpoint compare equal: "tcp:h:p" and "h:p" share a
// key, and so do unix paths that differ only before filepath.Clean.
// Host names are not resolved.
func EndpointKey(addr string) string {
	network, address := SplitAddr(addr)
	if network == "unix" {
		address = filepath.Clean(address)
	}
	return network + ":" + address
}

// ProblemRef names a problem that worker processes can rebuild locally:
// a workload name from the serving registry (internal/workload) plus
// its raw spec JSON. Proximal operators cannot cross a process
// boundary, so the sockets transport ships this reference at handshake
// and each worker reconstructs the identical factor graph from it; the
// coordinator then pushes the full ADMM state down, so only topology
// and operators need to be rebuilt deterministically.
type ProblemRef struct {
	Workload string
	Spec     []byte
}

// ParseExecutor resolves a user-facing executor name ("serial",
// "sharded" or "auto"; "" is serial) into a spec.
func ParseExecutor(name string) (ExecutorSpec, error) {
	var s ExecutorSpec
	switch kind := ExecutorKind(strings.ToLower(strings.TrimSpace(name))); kind {
	case "", ExecSerial:
		s.Kind = ExecSerial
	case ExecSharded, ExecAuto:
		s.Kind = kind
	default:
		return s, fmt.Errorf("admm: unknown executor %q (want %s)", name, executorKinds)
	}
	return s, nil
}

// executorKinds lists the kinds a spec can name, for error messages.
const executorKinds = "serial | sharded | auto"

// MaxShards bounds ExecutorSpec.Shards: beyond shared-memory core
// counts, extra shards only amplify the partitioner's O(vars x shards)
// working memory and the per-shard goroutine count for a single
// serving-layer request (cross-machine sharding is a different
// transport, not more shards here).
const MaxShards = 64

// ExecutorFactory builds a backend for a registered executor kind.
// Factories receive the finalized graph the solve will run on (the
// sharded executor partitions it up front).
type ExecutorFactory func(s ExecutorSpec, g *graph.Graph) (Backend, error)

var executorFactories = map[ExecutorKind]ExecutorFactory{}

// RegisterExecutor installs the factory for an out-of-package executor
// kind. It is called from package init functions (internal/shard);
// double registration panics to surface wiring mistakes early.
func RegisterExecutor(kind ExecutorKind, f ExecutorFactory) {
	if _, dup := executorFactories[kind]; dup {
		panic(fmt.Sprintf("admm: executor %q registered twice", kind))
	}
	executorFactories[kind] = f
}

// Validate reports whether the spec is well-formed without building a
// backend.
func (s ExecutorSpec) Validate() error {
	switch s.Kind {
	case "", ExecSerial, ExecSharded, ExecAuto:
	default:
		return fmt.Errorf("admm: unknown executor kind %q (want %s)", s.Kind, executorKinds)
	}
	if !s.FusedEnabled() && s.Kind != "" && s.Kind != ExecSerial {
		return fmt.Errorf("admm: fused: false (the five-phase reference schedule) applies only to %q, not %q", ExecSerial, s.Kind)
	}
	if s.Shards < 0 || s.Shards > MaxShards {
		return fmt.Errorf("admm: shards = %d, need 0..%d", s.Shards, MaxShards)
	}
	if s.Shards != 0 && s.Kind != ExecSharded {
		return fmt.Errorf("admm: shards apply only to %q, not %q", ExecSharded, s.Kind)
	}
	if (s.Transport != "" || len(s.Addrs) > 0) && s.Kind != ExecSharded {
		return fmt.Errorf("admm: transport/addrs apply only to %q, not %q", ExecSharded, s.Kind)
	}
	switch s.Transport {
	case "", TransportLocal, TransportSockets:
	default:
		return fmt.Errorf("admm: unknown transport %q (want %s | %s)", s.Transport, TransportLocal, TransportSockets)
	}
	if len(s.Addrs) > 0 {
		if s.Transport != TransportSockets {
			return fmt.Errorf("admm: addrs require transport %q", TransportSockets)
		}
		if s.Shards != 0 && s.Shards != len(s.Addrs) {
			return fmt.Errorf("admm: %d addrs for %d shards — the sockets transport runs one worker process per shard", len(s.Addrs), s.Shards)
		}
		// A worker runs one session at a time, so a worker named twice
		// would wait on its own second session for the mesh; two
		// spellings of one endpoint count as one (EndpointKey).
		seen := make(map[string]string, len(s.Addrs))
		for _, a := range s.Addrs {
			key := EndpointKey(a)
			if first, ok := seen[key]; ok {
				return fmt.Errorf("admm: addrs %q and %q name one worker — one worker process per shard", first, a)
			}
			seen[key] = a
		}
	}
	if s.Failover != "" && s.Kind != ExecSharded {
		return fmt.Errorf("admm: failover applies only to %q, not %q", ExecSharded, s.Kind)
	}
	switch s.Failover {
	case "", FailoverNone, FailoverSurvivors, FailoverLocal:
	default:
		return fmt.Errorf("admm: unknown failover policy %q (want %s | %s | %s)",
			s.Failover, FailoverNone, FailoverSurvivors, FailoverLocal)
	}
	if (s.Failover == FailoverSurvivors || s.Failover == FailoverLocal) && len(s.Addrs) == 0 {
		return fmt.Errorf("admm: failover %q needs worker addrs (transport %q)", s.Failover, TransportSockets)
	}
	return nil
}

// NewBackend builds the backend the spec describes. g may be nil for
// kind serial; auto and sharded partition it up front. The caller owns
// the backend and must Close it.
func (s ExecutorSpec) NewBackend(g *graph.Graph) (Backend, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	switch s.Kind {
	case "", ExecSerial:
		if s.FusedEnabled() {
			return NewSerialFused(), nil
		}
		return NewSerial(), nil
	case ExecAuto:
		if g == nil {
			return nil, fmt.Errorf("admm: auto executor needs a finalized graph")
		}
		return s.ResolveAuto(g).NewBackend(g)
	case ExecSharded:
		f, ok := executorFactories[ExecSharded]
		if !ok {
			return nil, fmt.Errorf("admm: sharded executor not linked (import repro/internal/shard)")
		}
		if g == nil {
			return nil, fmt.Errorf("admm: sharded executor needs a finalized graph")
		}
		return f(s, g)
	}
	return nil, fmt.Errorf("admm: unknown executor kind %q", s.Kind)
}

// SolveOptions configures Solve: the iteration controls of Options plus
// a declarative executor choice.
type SolveOptions struct {
	// Executor selects and configures the backend. The zero value is the
	// serial baseline.
	Executor ExecutorSpec
	// MaxIter is the iteration budget (required, > 0).
	MaxIter int
	// AbsTol/RelTol enable the standard ADMM stopping criterion; zero
	// disables convergence checks (fixed iteration count).
	AbsTol, RelTol float64
	// CheckEvery is the residual-check period in iterations (default 10).
	CheckEvery int
	// Adapt, if non-nil, enables residual-balancing rho adaptation.
	Adapt *AdaptConfig
	// OnIteration, if non-nil, observes residual checks; return false to
	// stop early.
	OnIteration func(iter int, primal, dual float64) bool
	// Warm, if non-nil and captured, is applied to the graph before the
	// solve: x/u/z restored from a previous same-shape solution, derived
	// messages recomputed. The caller remains responsible for resetting
	// state when Warm is nil (cold start) — Solve never implicitly
	// zeroes a graph.
	Warm *WarmState
}

// Solve is the in-process library entrypoint over Run: it builds the
// backend the spec describes, runs ADMM on g, and releases the backend.
// Callers that manage backend lifetimes themselves (reuse across solves,
// simulated devices) keep using Run with an explicit Options.Backend;
// the products call shard.Solve, which adds the backend's statistics
// and the failover policies for specs that name worker processes.
func Solve(g *graph.Graph, opts SolveOptions) (Result, error) {
	if opts.Warm != nil && opts.Warm.Captured() {
		if err := opts.Warm.Apply(g); err != nil {
			return Result{}, err
		}
	}
	backend, err := opts.Executor.NewBackend(g)
	if err != nil {
		return Result{}, err
	}
	defer backend.Close()
	return Run(g, Options{
		MaxIter:     opts.MaxIter,
		Backend:     backend,
		AbsTol:      opts.AbsTol,
		RelTol:      opts.RelTol,
		CheckEvery:  opts.CheckEvery,
		Adapt:       opts.Adapt,
		OnIteration: opts.OnIteration,
	})
}
