package shard

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/admm"
	"repro/internal/exchange"
	"repro/internal/graph"
	"repro/internal/sched"
)

// Backend is the sharded executor: K persistent shard workers, each
// executing the whole iteration over its own partition of the factor
// graph, synchronizing only boundary-variable state between iterations.
// The synchronization itself is delegated to an exchange.Exchanger —
// shared-memory barriers on the local transport, length-prefixed frames
// over byte streams on the sockets transport — so the same worker loop
// (runShardIters) serves both. See doc.go for the protocol; the
// cross-process form of the same loop is Remote (remote.go) +
// ServeWorker (worker.go).
type Backend struct {
	shards int

	// Transport selects the exchanger: "" or admm.TransportLocal for the
	// shared-memory spin barriers, admm.TransportSockets for the framed
	// message protocol over in-process loopback streams (every boundary
	// byte serialized and decoded exactly as between processes). Set
	// before the first Iterate.
	Transport string

	cmd    chan struct{}
	done   chan struct{}
	closed bool

	// Iterate inputs, published to workers via cmd sends, and each
	// worker's report of the block, read back after its done send.
	g     *graph.Graph
	iters int
	reps  []blockReport

	plan    *plan
	ex      exchange.Exchanger
	mb      *exchange.Mailbox
	localEx *exchange.Local
	stats   Stats
}

// Stats reports the partition shape and synchronization cost of the
// backend's most recent graph. It must not be called concurrently with
// Iterate; counters accumulate across Iterate calls.
type Stats struct {
	// Workers holds one entry per shard worker; its length is the shard count.
	Workers []WorkerStats
	// Transport names the boundary-exchange implementation ("local"
	// shared memory, "sockets" message transport).
	Transport string
	// BoundaryVars / BoundaryEdges are the cross-shard footprint: only
	// these variables' z-state synchronizes shards each iteration, and
	// their incident edges' m-blocks are what the combine step gathers.
	BoundaryVars  int
	BoundaryEdges int
	InteriorVars  int
	// CutCost is the partition's degree-weighted cut cost
	// (graph.CutCost): the predicted cross-shard words per iteration.
	CutCost float64
	// Iterations executed by this backend so far.
	Iterations int64
	// SyncWaitNanos and BoundaryZNanos are Workers[0]'s SyncWait and
	// BoundaryZ, and DeltaFrames is always 0 (the wire has one, dense,
	// codec). The three stay only because the frozen benchmark reads
	// them by name; they go with the benchmark unfreeze (ROADMAP A4/A5).
	SyncWaitNanos  int64
	BoundaryZNanos int64
	DeltaFrames    int64
	// BytesPerIter is the boundary-state payload a message transport
	// moves per iteration, each byte counted once at its sender (0 on
	// the local transport). It is priced by the same word model as
	// CutCost — predicted bytes = CutCost x 8 — so measured-vs-model is
	// an exact comparison: any gap means the manifest moved state the
	// model does not price (or vice versa).
	BytesPerIter float64
	// WireBytesPerIter is what actually crossed the streams per
	// iteration: BytesPerIter plus per-frame header overhead. Thin
	// boundaries (a chain's handful of cut points) keep the framing
	// share visible; wide ones amortize it away.
	WireBytesPerIter float64
	// ExchangeFrames counts data-plane frames sent so far.
	ExchangeFrames int64
	// StatePushes counts the full-state downloads the handshake sent,
	// and HandshakeFrames every control frame it exchanged either way:
	// Cfg, Ready and State per worker, less the State a state hit skips
	// (a repeated fleet solve pushes none and sends one frame fewer each).
	StatePushes     int
	HandshakeFrames int
}

// WorkerStats is one shard worker's share of the solve: what the plan
// gave it, and its own loop's cumulative times, in-process or from its
// Up frames.
type WorkerStats struct {
	// Edges is the worker's owned-edge count, the load its sweeps see;
	// BoundaryVars is how many boundary variables it combines (on shared
	// memory the plan evens the gather loads, graph.Partition.GatherOwners;
	// on a message transport a variable stays with its majority shard).
	Edges, BoundaryVars int
	// Every nanosecond of the loop lands in one phase or in SyncWait,
	// the time blocked at the two per-iteration sync points; BoundaryZ
	// (the combine of its BoundaryVars) is a sub-count of the z phase.
	PhaseNanos          [admm.NumPhases]int64
	SyncWait, BoundaryZ int64
	// Straggles counts the blocks in which the worker waited least, so
	// the others waited for it; Result.PhaseNanos adds up those phases.
	Straggles int64
	// Cache is the worker-cache tier its Ready reported: CacheState (no
	// State push), CacheGraph (problem reused, state pushed) or
	// CacheMiss; "" in-process.
	Cache string
}

// New returns a sharded backend with the given shard count. The graph
// is partitioned (graph.StrategyBalanced) lazily on the first Iterate
// and re-partitioned whenever Iterate sees a different graph.
func New(shards int) (*Backend, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("shard: shards = %d, need > 0", shards)
	}
	b := &Backend{
		shards: shards,
		cmd:    make(chan struct{}),
		done:   make(chan struct{}),
		reps:   make([]blockReport, shards),
	}
	for s := 0; s < shards; s++ {
		go b.worker(s)
	}
	return b, nil
}

// Name implements admm.Backend.
func (b *Backend) Name() string {
	if b.Transport == admm.TransportSockets {
		return fmt.Sprintf("sharded(%d,sockets)", b.shards)
	}
	return fmt.Sprintf("sharded(%d)", b.shards)
}

// Stats returns partition and synchronization statistics. Valid after
// the first Iterate.
func (b *Backend) Stats() Stats { return b.stats.snapshot() }

// snapshot returns s with its own copy of the per-worker counters,
// which later Iterate calls keep accumulating into.
func (s Stats) snapshot() Stats {
	s.Workers = slices.Clone(s.Workers)
	return s
}

// Iterate implements admm.Backend.
func (b *Backend) Iterate(g *graph.Graph, iters int, phaseNanos *[admm.NumPhases]int64) error {
	if b.closed {
		panic("shard: Iterate on closed Backend")
	}
	if b.plan == nil || b.plan.g != g {
		p, err := newPlan(g, b.shards, transportLabel(b.Transport) == admm.TransportLocal)
		if err != nil {
			// The graph was already finalized by admm.Run; the only
			// residual failure is a programming error.
			panic(fmt.Sprintf("shard: %v", err))
		}
		b.plan = p
		b.bindExchanger(g, p)
		st := p.shapeStats(transportLabel(b.Transport))
		for i, w := range b.stats.Workers { // the counters carry over to the new plan
			w.Edges, w.BoundaryVars = st.Workers[i].Edges, st.Workers[i].BoundaryVars
			st.Workers[i] = w
		}
		st.Iterations = b.stats.Iterations
		b.stats = st
	}
	b.g, b.iters = g, iters
	for s := 0; s < b.shards; s++ {
		b.cmd <- struct{}{}
	}
	for s := 0; s < b.shards; s++ {
		<-b.done
	}
	b.stats.endBlock(iters, b.reps, b.ex.Stats(), phaseNanos)
	return nil
}

// endBlock accounts one finished block of iters iterations, for the
// in-process Backend and the cross-process Remote alike: reps holds
// each worker's report of the block, and ex the data plane's traffic
// over ex.Rounds iterations besides the reports' own counters. The
// block's straggler is the worker that waited least (the lowest on a
// tie): the others waited for it, so its phases are the solve's.
func (s *Stats) endBlock(iters int, reps []blockReport, ex exchange.Stats, phaseNanos *[admm.NumPhases]int64) {
	straggler := 0
	for i := range reps {
		rep, w := &reps[i], &s.Workers[i]
		for p, v := range rep.tm.phaseNanos {
			w.PhaseNanos[p] += v
		}
		w.SyncWait += rep.tm.syncWait
		w.BoundaryZ += rep.tm.boundaryZ
		ex.BytesMoved += rep.ex.BytesMoved
		ex.WireBytes += rep.ex.WireBytes
		ex.Frames += rep.ex.Frames
		if rep.tm.syncWait < reps[straggler].tm.syncWait {
			straggler = i
		}
	}
	s.Workers[straggler].Straggles++
	for p, v := range reps[straggler].tm.phaseNanos {
		phaseNanos[p] += v
	}
	s.Iterations += int64(iters)
	s.SyncWaitNanos, s.BoundaryZNanos = s.Workers[0].SyncWait, s.Workers[0].BoundaryZ
	s.BytesPerIter = ex.BytesPerRound()
	s.WireBytesPerIter = ex.WireBytesPerRound()
	s.ExchangeFrames = ex.Frames
}

// bindExchanger (re)builds the exchanger and the mailbox for a freshly
// planned graph. The local barrier is graph-independent and persists,
// next to a shared-memory mailbox laid out by the plan's owners; a
// messaged exchanger embeds the graph's boundary manifest and its
// mailbox and is rebuilt (and the old one closed) per plan.
func (b *Backend) bindExchanger(g *graph.Graph, p *plan) {
	switch b.Transport {
	case "", admm.TransportLocal:
		if b.localEx == nil {
			b.localEx = exchange.NewLocal(b.shards)
		}
		b.ex = b.localEx
		b.mb = exchange.NewMailbox(g, exchange.NewManifestOwners(g, &p.part, b.shards, p.owner))
	case admm.TransportSockets:
		if old, ok := b.ex.(*exchange.Messaged); ok {
			old.Close()
		}
		lb := exchange.NewLoopback(g, exchange.NewManifest(g, &p.part, b.shards), true)
		b.ex, b.mb = lb, lb.Mailbox()
	default:
		panic(fmt.Sprintf("shard: unknown transport %q", b.Transport))
	}
}

// transportLabel canonicalizes the Transport knob for Stats.
func transportLabel(t string) string { return cmp.Or(t, admm.TransportLocal) }

// Close implements admm.Backend: terminates the shard workers.
func (b *Backend) Close() {
	if b.closed {
		return
	}
	b.closed = true
	close(b.cmd)
	if b.ex != nil {
		b.ex.Close()
	}
}

// worker is one persistent shard: it executes runShardIters for its
// local plan on every Iterate command, timing itself as a
// cross-process worker does.
func (b *Backend) worker(id int) {
	for range b.cmd {
		var tm workerTimings
		runShardIters(b.g, &b.plan.local[id], b.ex, b.mb, id, b.iters, &tm)
		b.reps[id].tm = tm
		b.done <- struct{}{}
	}
}

// workerTimings is one worker's accounting for a block of iterations.
// Every nanosecond of runShardIters lands in exactly one of the phase
// buckets or syncWait; boundaryZ (the combine) is a sub-count of the z
// phase.
type workerTimings struct {
	phaseNanos [admm.NumPhases]int64
	syncWait   int64
	boundaryZ  int64
}

// runShardIters executes iters iterations of the shard schedule for one
// worker over its local plan — the one iteration loop of the in-process
// Backend and the cross-process worker (worker.go). Per iteration:
//
//	x over lp.xBefore                (their edges feed outbound rows)
//	post, -- BeginGatherM --         (m-rows depart; x + u is final for
//	                                  every posted edge)
//	x over lp.xAfter, z over interior variables
//	-- FinishGatherM --              (every row into this worker's inbox
//	                                  holds this iteration's blocks)
//	z for owned boundary variables   (mb.Combine, CSR order:
//	                                  bit-identical to serial)
//	-- BeginScatterZ --              (owned boundary z departs)
//	u/n over lp.unBefore             (their z never crosses a shard)
//	-- FinishScatterZ --             (peers' boundary z arrived)
//	u/n over lp.unAfter
//
// The schedule is data in the plan (newPlan): a message transport puts
// the functions owning a remotely-combined edge in xBefore and the
// edges awaiting peer z in unAfter, so frames fly while the interior
// computes; on shared memory nothing departs at a Begin, so xAfter and
// unBefore are empty and the loop is x, post, interior z, barrier,
// combine, barrier, u/n. Either way every per-edge and per-variable
// computation is the same arithmetic in the same order — only where the
// waiting happens differs — so iterates are bit-identical to Serial;
// the conformance suite pins it.
//
// The z gather forms m = x + u in registers, Post reads x + u of the
// posted edges, and no step between the post and the u/n sweep writes X
// or U, so the posted blocks are exactly what the reference m-update
// would have frozen. The u/n sweep and the next iteration's x read only
// shard-local state plus z delivered by FinishScatterZ, so no further
// synchronization is needed: a shard racing ahead blocks in
// FinishGatherM before it can touch anything another shard still reads.
//
// Time accounting, the same on both transports: Post and Combine are z
// work, the four Begin/Finish calls are syncWait — on a wire that is
// frame encode + write plus the residual blocking the overlap failed to
// hide, on shared memory the two barrier crossings.
func runShardIters(g *graph.Graph, lp *localPlan, ex exchange.Exchanger, mb *exchange.Mailbox, id, iters int, tm *workerTimings) {
	ph := &tm.phaseNanos
	sw := admm.StartStopwatch()
	for it := 0; it < iters; it++ {
		for _, r := range lp.xBefore {
			admm.UpdateXRange(g, r.Lo, r.Hi)
		}
		sw.Lap(&ph[admm.PhaseX])
		mb.Post(id)
		sw.Lap(&ph[admm.PhaseZ])
		ex.BeginGatherM(id)
		sw.Lap(&tm.syncWait)
		for _, r := range lp.xAfter {
			admm.UpdateXRange(g, r.Lo, r.Hi)
		}
		sw.Lap(&ph[admm.PhaseX])
		for _, r := range lp.interiorRuns {
			admm.UpdateZFusedRange(g, r.Lo, r.Hi)
		}
		sw.Lap(&ph[admm.PhaseZ])
		ex.FinishGatherM(id)
		sw.Lap(&tm.syncWait)
		mb.Combine(id)
		ph[admm.PhaseZ] += sw.Lap(&tm.boundaryZ)
		ex.BeginScatterZ(id)
		sw.Lap(&tm.syncWait)
		for _, r := range lp.unBefore {
			admm.UpdateUNRange(g, r.Lo, r.Hi)
		}
		sw.Lap(&ph[admm.PhaseU])
		ex.FinishScatterZ(id)
		sw.Lap(&tm.syncWait)
		for _, r := range lp.unAfter {
			admm.UpdateUNRange(g, r.Lo, r.Hi)
		}
		sw.Lap(&ph[admm.PhaseU])
	}
}

var _ admm.Backend = (*Backend)(nil)

// plan is the precomputed execution structure for one graph: the
// partition, the shard combining each variable's z, and each worker's
// local index sets.
type plan struct {
	g    *graph.Graph
	part graph.Partition
	// owner maps variable -> combining shard: part.VarPart (majority)
	// for a message transport, part.GatherOwners (even z-gather load)
	// on shared memory. Interior variables read the same either way.
	owner []int
	local []localPlan
}

// shapeStats is the half of Stats the plan alone decides — who holds
// what, and what the cut costs — for both the in-process Backend and
// the cross-process Remote; the counters start at zero.
func (p *plan) shapeStats(transport string) Stats {
	part := &p.part
	workers := make([]WorkerStats, len(p.local))
	for s := range p.local {
		workers[s] = WorkerStats{Edges: p.local[s].ownedEdgeCount(), BoundaryVars: len(p.local[s].boundary)}
	}
	return Stats{
		Workers:       workers,
		Transport:     transport,
		BoundaryVars:  len(part.BoundaryVars),
		BoundaryEdges: part.BoundaryEdges,
		InteriorVars:  part.InteriorVars(p.g),
		CutCost:       graph.CutCost(p.g, part),
	}
}

// localPlan is one shard's work: contiguous runs of owned functions,
// edges, and interior variables (interior ownership is contiguous up to
// boundary gaps, so runs beat an index list), plus the boundary
// variables it combines.
type localPlan struct {
	funcRuns     []sched.Range
	edgeRuns     []sched.Range
	interiorRuns []sched.Range
	boundary     []int

	// The schedule runShardIters executes: xBefore/xAfter split
	// funcRuns around BeginGatherM, unBefore/unAfter split edgeRuns
	// around FinishScatterZ, each pair partitioning its parent exactly.
	// On a message plan xBefore is the frontier — functions owning at
	// least one edge whose boundary variable another shard combines, so
	// their x feeds an outbound m-frame — and unAfter the edges whose z
	// a peer computes; the rest overlaps the frames' flight. A
	// shared-memory plan has nothing in flight to overlap: every
	// function is in xBefore and every edge in unAfter.
	xBefore, xAfter   []sched.Range
	unBefore, unAfter []sched.Range
}

// ownedEdgeCount is the number of edges this shard owns.
func (lp *localPlan) ownedEdgeCount() int {
	n := 0
	for _, r := range lp.edgeRuns {
		n += r.Hi - r.Lo
	}
	return n
}

// ownedVarCount is the number of variables whose z this shard computes
// (interior plus owned boundary).
func (lp *localPlan) ownedVarCount() int {
	n := len(lp.boundary)
	for _, r := range lp.interiorRuns {
		n += r.Hi - r.Lo
	}
	return n
}

// appendOwnedVars appends, ascending, the variables whose z this shard
// computes — the merge of its interior runs and its owned boundary
// list. The order is the canonical layout of the cross-process
// state-upload payload, derived identically on both ends.
func (lp *localPlan) appendOwnedVars(dst []int) []int {
	bi := 0
	emitBoundaryBelow := func(limit int) {
		for bi < len(lp.boundary) && lp.boundary[bi] < limit {
			dst = append(dst, lp.boundary[bi])
			bi++
		}
	}
	for _, r := range lp.interiorRuns {
		emitBoundaryBelow(r.Lo)
		for v := r.Lo; v < r.Hi; v++ {
			dst = append(dst, v)
		}
	}
	emitBoundaryBelow(int(^uint(0) >> 1))
	return dst
}

// newPlan partitions g (graph.StrategyBalanced), picks each
// variable's combiner — sharedMemory selects the load-balanced owners,
// which cost nothing where no byte is shipped; everything that frames
// boundary state keeps the majority owners the manifest digest, the
// cut-cost model and the wire are defined by — and derives per-shard
// index sets and the schedule split (see localPlan). Workers beyond
// the partition's effective part count (tiny graphs) get empty plans
// and only participate in the per-iteration sync points.
func newPlan(g *graph.Graph, shards int, sharedMemory bool) (*plan, error) {
	part, err := graph.NewPartition(g, shards, graph.StrategyBalanced)
	if err != nil {
		return nil, err
	}
	owner := part.VarPart
	if sharedMemory {
		owner = part.GatherOwners(g)
	}
	p := &plan{g: g, part: part, owner: owner, local: make([]localPlan, shards)}
	appendRun := func(runs []sched.Range, lo, hi int) []sched.Range {
		if n := len(runs); n > 0 && runs[n-1].Hi == lo {
			runs[n-1].Hi = hi
			return runs
		}
		return append(runs, sched.Range{Lo: lo, Hi: hi})
	}
	for a := 0; a < g.NumFunctions(); a++ {
		s := part.FuncPart[a]
		lo, hi := g.FuncEdges(a)
		lp := &p.local[s]
		lp.funcRuns = appendRun(lp.funcRuns, a, a+1)
		lp.edgeRuns = appendRun(lp.edgeRuns, lo, hi)
		if sharedMemory {
			continue
		}
		// An edge whose boundary variable another shard combines is
		// shipped at sync point 1 (its function is frontier) and
		// receives its z back at sync point 2; everything else is local.
		frontier := false
		for e := lo; e < hi; e++ {
			v := g.EdgeVar(e)
			if part.IsBoundary(v) && owner[v] != s {
				frontier = true
				lp.unAfter = appendRun(lp.unAfter, e, e+1)
			} else {
				lp.unBefore = appendRun(lp.unBefore, e, e+1)
			}
		}
		if frontier {
			lp.xBefore = appendRun(lp.xBefore, a, a+1)
		} else {
			lp.xAfter = appendRun(lp.xAfter, a, a+1)
		}
	}
	for v := 0; v < g.NumVariables(); v++ {
		if !part.IsBoundary(v) {
			lp := &p.local[owner[v]]
			lp.interiorRuns = appendRun(lp.interiorRuns, v, v+1)
		}
	}
	for _, v := range part.BoundaryVars {
		lp := &p.local[owner[v]]
		lp.boundary = append(lp.boundary, v)
	}
	if sharedMemory {
		for s := range p.local {
			lp := &p.local[s]
			lp.xBefore, lp.unAfter = lp.funcRuns, lp.edgeRuns
		}
	}
	return p, nil
}
