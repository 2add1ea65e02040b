package shard

import "fmt"

// Protocol phases a WorkerError can name, in session order.
const (
	// PhaseDial: establishing the control connection.
	PhaseDial = "dial"
	// PhaseHandshake: config out, Ready back, verification.
	PhaseHandshake = "handshake"
	// PhaseState: the full state push after Ready.
	PhaseState = "state"
	// PhaseIterate: sending the block command.
	PhaseIterate = "iterate"
	// PhaseCollect: reading the block's Up frame (statistics and state).
	PhaseCollect = "collect"
	// PhaseProbe: a health probe outside any session.
	PhaseProbe = "probe"
)

// WorkerError is a typed transport failure against one worker: which
// worker, at which endpoint, in which protocol phase. Handshake
// failures are returned from NewRemote, mid-solve failures from
// Remote.RunBlock (and so from admm.Run); Solve acts on both under the
// spec's failover policy.
type WorkerError struct {
	Worker int
	Addr   string
	Phase  string
	Err    error
	// Config marks configuration and protocol mismatches (graph shape,
	// manifest digest, unknown workload, malformed spec): retrying or
	// failing over the same configuration cannot succeed, so these
	// fail fast instead of burning the retry budget.
	Config bool
}

// Error implements error.
func (e *WorkerError) Error() string {
	return fmt.Sprintf("shard: worker %d (%s) %s: %v", e.Worker, e.Addr, e.Phase, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *WorkerError) Unwrap() error { return e.Err }
