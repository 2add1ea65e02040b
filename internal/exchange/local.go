package exchange

import "repro/internal/sched"

// Local is the shared-memory exchanger: each sync point is one crossing
// of a spin-then-park barrier (sched.Barrier), and that is all it is —
// it holds no graph and no plan. Nothing departs at a Begin, so Begin
// is a no-op and Finish is the barrier: what a worker posted to a
// shared Mailbox before FinishGatherM is visible to its combiner after
// it, and the combiners' z writes to the u/n sweep after
// FinishScatterZ, through the barrier's happens-before edges. No frame
// is sent, so Stats reports zeros.
type Local struct {
	barrier *sched.Barrier
}

// NewLocal returns a shared-memory exchanger for parties workers.
func NewLocal(parties int) *Local {
	return &Local{barrier: sched.NewBarrier(parties)}
}

// BeginGatherM implements Exchanger.
func (l *Local) BeginGatherM(worker int) {}

// FinishGatherM implements Exchanger.
func (l *Local) FinishGatherM(worker int) { l.barrier.Await() }

// GatherM implements Exchanger.
func (l *Local) GatherM(worker int) { l.barrier.Await() }

// BeginScatterZ implements Exchanger.
func (l *Local) BeginScatterZ(worker int) {}

// FinishScatterZ implements Exchanger.
func (l *Local) FinishScatterZ(worker int) { l.barrier.Await() }

// ScatterZ implements Exchanger.
func (l *Local) ScatterZ(worker int) { l.barrier.Await() }

// Stats implements Exchanger.
func (l *Local) Stats() Stats { return Stats{} }

// Close implements Exchanger.
func (l *Local) Close() error { return nil }

var _ Exchanger = (*Local)(nil)
