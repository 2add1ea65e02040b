package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// spinYields bounds the yield-spin phase of one SpinThenPark. A yield
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

// SpinThenPark is the one wait policy of the in-process sync points
// (Barrier.Await, the exchange package's loopback pipe reads):
// yield-spin (runtime.Gosched) on ready for up to spinYields rounds,
// then park on cond until ready holds. The sharded executor reaches a
// sync point twice per iteration with sub-millisecond phases in
// between; futex sleep/wake churn at that granularity costs more than
// the phases themselves — but pure spinning would let badly-oversized
// shard counts (empty shards, stragglers) peg cores for a whole solve,
// so waiters that exhaust the spin budget sleep.
//
// ready must read atomics only (the spin phase holds no lock), and
// whoever makes it true must do so while holding cond.L and Broadcast
// afterwards, so a parked waiter cannot miss the change.
func SpinThenPark(cond *sync.Cond, ready func() bool) {
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

// Barrier is a reusable sense-reversing barrier for a fixed party
// count whose waiters SpinThenPark on the generation word — the
// synchronization primitive behind the paper's second OpenMP strategy
// (persistent threads with "#pragma omp barrier" between update kinds)
// and the one barrier every in-process sharded solve crosses. Atomic
// loads/stores give the happens-before edges the phases rely on.
type Barrier struct {
	parties int32
	count   atomic.Int32
	gen     atomic.Uint32

	mu   sync.Mutex
	cond *sync.Cond
}

// NewBarrier returns a barrier for the given number of parties.
func NewBarrier(parties int) *Barrier {
	if parties <= 0 {
		panic("sched: barrier parties must be positive")
	}
	b := &Barrier{parties: int32(parties)}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Await blocks until all parties have called Await, then releases them
// together and resets for the next phase.
func (b *Barrier) Await() {
	gen := b.gen.Load()
	if b.count.Add(1) == b.parties {
		b.count.Store(0)
		b.mu.Lock()
		b.gen.Add(1)
		b.mu.Unlock()
		b.cond.Broadcast()
		return
	}
	SpinThenPark(b.cond, func() bool { return b.gen.Load() != gen })
}

// Parties returns the party count.
func (b *Barrier) Parties() int { return int(b.parties) }
