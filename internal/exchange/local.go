package exchange

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// spinYields bounds the yield-spin phase of one spinThenPark. A yield
// with nothing else runnable is about 0.1 us, so the budget is about
// what one futex sleep/wake costs (50-90 us between two vCPUs) — the
// point past which spinning stops being the cheaper way to wait.
// Crossing the boundary-z barrier, or a peer's frame landing in a
// loopback pipe, takes a handful of yields when the shards are
// balanced and tens of microseconds when one runs a little late; a
// waiter still spinning after the whole budget is stuck behind a
// straggling shard and should get off the CPU, which on a shared host
// is also what lets the straggler run at full speed.
const spinYields = 512

// spinThenPark is the one wait policy of the in-process sync points
// (spinBarrier.Await, bufferedPipe.Read): yield-spin (runtime.Gosched)
// on ready for up to spinYields rounds, then park on cond until ready
// holds. The sharded executor reaches a sync point twice per iteration
// with sub-millisecond phases in between; futex sleep/wake churn at
// that granularity costs more than the phases themselves — but pure
// spinning would let badly-oversized shard counts (empty shards,
// stragglers) peg cores for a whole solve, so waiters that exhaust the
// spin budget sleep.
//
// ready must read atomics only (the spin phase holds no lock), and
// whoever makes it true must do so while holding cond.L and Broadcast
// afterwards, so a parked waiter cannot miss the change.
func spinThenPark(cond *sync.Cond, ready func() bool) {
	for i := 0; i < spinYields; i++ {
		if ready() {
			return
		}
		runtime.Gosched()
	}
	cond.L.Lock()
	for !ready() {
		cond.Wait()
	}
	cond.L.Unlock()
}

// spinBarrier is a sense-reversing barrier whose waiters spinThenPark on
// the generation word. Atomic loads/stores give the happens-before
// edges the phases rely on.
type spinBarrier struct {
	parties int32
	count   atomic.Int32
	gen     atomic.Uint32

	mu   sync.Mutex
	cond *sync.Cond
}

func newSpinBarrier(parties int) *spinBarrier {
	b := &spinBarrier{parties: int32(parties)}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *spinBarrier) Await() {
	gen := b.gen.Load()
	if b.count.Add(1) == b.parties {
		b.count.Store(0)
		b.mu.Lock()
		b.gen.Add(1)
		b.mu.Unlock()
		b.cond.Broadcast()
		return
	}
	spinThenPark(b.cond, func() bool { return b.gen.Load() != gen })
}

// Local is the shared-memory exchanger: both sync points are crossings
// of one spin-then-park barrier, and that is all it is — it holds no
// graph and no plan. What a worker posted to a shared Mailbox (or wrote
// to M on the reference schedule) before GatherM is visible to its
// combiner after it, and phase-B z writes to phase C after ScatterZ,
// through the barrier's happens-before edges. No frame is sent, so
// Stats reports zeros.
type Local struct {
	barrier *spinBarrier
}

// NewLocal returns a shared-memory exchanger for parties workers.
func NewLocal(parties int) *Local {
	return &Local{barrier: newSpinBarrier(parties)}
}

// GatherM implements Exchanger.
func (l *Local) GatherM(worker int) { l.barrier.Await() }

// ScatterZ implements Exchanger.
func (l *Local) ScatterZ(worker int) { l.barrier.Await() }

// Stats implements Exchanger.
func (l *Local) Stats() Stats { return Stats{} }

// Close implements Exchanger.
func (l *Local) Close() error { return nil }

var _ Exchanger = (*Local)(nil)
