package shard

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admm"
	"repro/internal/exchange"
	"repro/internal/graph"
)

// timeouts is a spec's resolved per-phase deadline policy.
type timeouts struct {
	dial      time.Duration
	handshake time.Duration
	frame     time.Duration // 0 = unbounded mid-solve I/O
	attempts  int
}

// specTimeouts resolves the spec's reliability knobs against the
// defaults.
func specTimeouts(spec admm.ExecutorSpec) timeouts {
	t := timeouts{
		dial:      DefaultDialTimeout,
		handshake: DefaultHandshakeTimeout,
		attempts:  DefaultDialAttempts,
	}
	if spec.DialTimeoutMS > 0 {
		t.dial = time.Duration(spec.DialTimeoutMS) * time.Millisecond
	}
	if spec.HandshakeTimeoutMS > 0 {
		t.handshake = time.Duration(spec.HandshakeTimeoutMS) * time.Millisecond
	}
	if spec.FrameTimeoutMS > 0 {
		t.frame = time.Duration(spec.FrameTimeoutMS) * time.Millisecond
	}
	if spec.DialAttempts > 0 {
		t.attempts = spec.DialAttempts
	}
	return t
}

// Remote is the cross-process sharded executor's coordinator: it drives
// one paradmm-shardworker process per shard over the control protocol
// in protocol.go. Workers rebuild the problem from the spec's
// ProblemRef, verify boundary-manifest agreement at handshake, receive
// the full ADMM state once, and then execute iteration blocks locally —
// exchanging only boundary m/z frames among themselves per iteration —
// uploading their owned state after each block so the coordinator's
// graph stays exact for residual checks, rho adaptation, and solution
// readout. Iterates are bit-identical to Serial, like every other
// transport (the conformance and integration suites pin this).
//
// Remote is bound to the graph it was built for and serves one
// admm.Run; the serving layer and CLIs build one backend per solve. Run
// hands it each block whole (admm.BlockRunner): one Iter down per
// worker, carrying Run's edit after the previous block, and one Up
// back. Between blocks only Run may edit that graph: the workers learn
// only the edits Run hands over.
// Mid-solve transport failures are fail-stop per solve: Iterate
// returns a typed *WorkerError naming the worker and protocol phase,
// admm.Run stops there, and Solve turns it into a retry, a survivor
// re-partitioning, or a failed request — never a corrupted result (see
// docs/fault-tolerance.md).
type Remote struct {
	shards  int
	session uint64
	addrs   []string
	tmo     timeouts

	g         *graph.Graph
	plan      *plan
	man       *exchange.Manifest
	ownedVars [][]int
	conns     []net.Conn
	bufs      [][]byte

	problem *admm.ProblemRef

	closed bool
	stats  Stats
}

// remoteSessions feeds session identifiers; combined with the PID they
// let a worker's accept loop discard mesh dials from a dead session.
var remoteSessions atomic.Uint64

// NewRemote dials the worker control endpoints in spec.Addrs — one
// shard per worker — ships the spec's ProblemRef and executor knobs,
// verifies every worker rebuilt the same graph and boundary manifest,
// and pushes g's full state down. The returned backend drives the
// workers on each Iterate. g must be the finalized coordinator-side
// replica of the referenced problem. The dial+handshake retry loop
// (spec.DialAttempts attempts, capped exponential backoff) aborts
// between attempts when ctx is done. Configuration mismatches (graph
// shape, manifest digest, unknown workload) fail immediately —
// retrying the same config cannot succeed.
func NewRemote(ctx context.Context, spec admm.ExecutorSpec, g *graph.Graph) (*Remote, error) {
	if g == nil {
		return nil, fmt.Errorf("shard: remote transport needs a finalized graph")
	}
	if spec.Problem == nil {
		return nil, fmt.Errorf("shard: remote transport needs a problem reference (workload + spec) for the workers to rebuild")
	}
	shards := len(spec.Addrs)
	if shards == 0 {
		return nil, fmt.Errorf("shard: remote transport needs worker addrs")
	}
	r := &Remote{
		shards:  shards,
		addrs:   append([]string(nil), spec.Addrs...),
		tmo:     specTimeouts(spec),
		g:       g,
		problem: spec.Problem,
	}
	var err error
	r.plan, err = newPlan(g, shards, false)
	if err != nil {
		return nil, err
	}
	r.man = exchange.NewManifest(g, &r.plan.part, shards)
	r.ownedVars = make([][]int, shards)
	for i := range r.ownedVars {
		r.ownedVars[i] = r.plan.local[i].appendOwnedVars(nil)
	}
	r.bufs = make([][]byte, shards)
	r.stats = r.plan.shapeStats(admm.TransportSockets)
	r.stats.SyncWaitByShard = make([]int64, shards)
	backoff := 50 * time.Millisecond
	for attempt := 1; ; attempt++ {
		err = r.handshake()
		if err == nil {
			break
		}
		// A failed handshake abandons every connection of the attempt;
		// the next one redials the full worker set under a fresh
		// session id, so half-meshed workers from this attempt time out
		// and clean up on their own.
		r.teardown()
		var we *WorkerError
		if errors.As(err, &we) && we.Config {
			return nil, err
		}
		if attempt >= r.tmo.attempts {
			return nil, err
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("shard: handshake abandoned: %w (last failure: %v)", ctx.Err(), err)
		case <-time.After(backoff):
		}
		backoff *= 2
		if backoff > time.Second {
			backoff = time.Second
		}
		r.stats.HandshakeRetries++
	}
	return r, nil
}

// handshake runs Cfg -> Ready -> State against every worker under the
// handshake deadline; a worker whose Ready reports a state-tier cache
// hit already holds the exact state, and its push is skipped. Configs
// go out in ascending worker order so that by the time worker i dials
// its mesh peers j < i, those workers already know the session. Each
// attempt uses a fresh session id so stray mesh dials from an abandoned
// attempt are discarded by the workers.
func (r *Remote) handshake() error {
	// The control-plane counters describe the attempt that succeeds.
	r.stats.CacheHits, r.stats.CacheGraphHits, r.stats.CacheMisses = 0, 0, 0
	r.stats.StatePushes, r.stats.HandshakeFrames = 0, 0
	r.session = uint64(os.Getpid())<<32 | remoteSessions.Add(1)
	r.conns = make([]net.Conn, r.shards)
	werr := func(i int, phase string, config bool, err error) error {
		return &WorkerError{Worker: i, Addr: r.addrs[i], Phase: phase, Err: err, Config: config}
	}
	// The State frame is built once, in place, and written to every
	// worker whose cache misses.
	state := exchange.BeginFrame(nil, exchange.FrameState, 0)
	payloadAt := len(state)
	state = appendState(state, r.g)
	cfg := wireConfig{
		Session:        r.session,
		Shards:         r.shards,
		Workload:       r.problem.Workload,
		Spec:           r.problem.Spec,
		Peers:          r.addrs,
		FrameTimeoutMS: int(r.tmo.frame / time.Millisecond),
		StateDigest:    stateDigest(state[payloadAt:]),
	}
	for i := 0; i < r.shards; i++ {
		conn, err := DialAddrTimeout(r.addrs[i], r.tmo.dial)
		if err != nil {
			return werr(i, PhaseDial, false, err)
		}
		r.conns[i] = conn
		cfg.Worker = i
		conn.SetWriteDeadline(time.Now().Add(r.tmo.handshake))
		if err := writeJSONFrame(conn, exchange.FrameCfg, cfg); err != nil {
			return werr(i, PhaseHandshake, false, fmt.Errorf("send config: %w", err))
		}
		conn.SetWriteDeadline(time.Time{})
		r.stats.HandshakeFrames++
	}
	hits, err := r.readReadyAll()
	if err != nil {
		return err
	}
	for i, hit := range hits {
		switch hit {
		case cacheHitState:
			r.stats.CacheHits++
			continue
		case cacheHitGraph:
			r.stats.CacheGraphHits++
		default:
			r.stats.CacheMisses++
		}
		if err := r.pushState(i, state); err != nil {
			return werr(i, PhaseState, false, err)
		}
	}
	return nil
}

// readReadyAll collects Ready from every worker at once and returns
// each one's cache tier, or the first failure. Reading in worker order
// would leave worker 1's instant refusal unread behind worker 0, which
// cannot answer until its mesh stands — and the mesh is waiting for the
// very worker that refused. The first failure closes the attempt's
// connections: that ends the other reads, and it is the hang-up a
// worker still waiting for mesh peers acts on.
func (r *Remote) readReadyAll() ([]string, error) {
	hits := make([]string, r.shards)
	errs := make(chan error, r.shards)
	for i := range hits {
		go func(i int) {
			var err error
			hits[i], err = r.readReady(i)
			errs <- err
		}(i)
	}
	var first error
	for range hits {
		err := <-errs
		if err == nil {
			r.stats.HandshakeFrames++
		} else if first == nil {
			first = err
			r.teardown()
		}
	}
	return hits, first
}

// readReady collects and verifies worker i's Ready acknowledgment and
// returns its cache tier. It touches only worker i's connection and
// buffer, so readReadyAll runs one per worker concurrently.
func (r *Remote) readReady(i int) (string, error) {
	werr := func(config bool, err error) error {
		return &WorkerError{Worker: i, Addr: r.addrs[i], Phase: PhaseHandshake, Err: err, Config: config}
	}
	// A handshake must answer promptly — an endpoint that accepts
	// and then never replies (a mistyped addr pointing at some
	// unrelated server) would otherwise wedge this coordinator (and
	// a serve pool slot) forever.
	r.conns[i].SetReadDeadline(time.Now().Add(r.tmo.handshake))
	f, buf, err := readFrameKind(r.conns[i], r.bufs[i], exchange.FrameReady)
	r.bufs[i] = buf
	r.conns[i].SetReadDeadline(time.Time{})
	if err != nil {
		// A worker's considered refusal (FrameErr) is a config
		// problem unless it is just busy tearing down the previous
		// session, which a retry outwaits.
		var re *remoteError
		config := errors.As(err, &re) && !re.transient()
		return "", werr(config, err)
	}
	var ready wireReady
	if err := decodeJSONFrame(f, &ready); err != nil {
		return "", werr(true, fmt.Errorf("ready: %w", err))
	}
	// The proof gate every session passes, cache hit or not, before any
	// state is trusted: the worker's graph shape and boundary manifest
	// must be the coordinator's own.
	if st := r.g.Stats(); ready.Functions != st.Functions || ready.Variables != st.Variables || ready.Edges != st.Edges || ready.D != st.D {
		return "", werr(true, fmt.Errorf("rebuilt a different graph (%d/%d/%d/%d vs %d/%d/%d/%d functions/variables/edges/d) — problem spec mismatch",
			ready.Functions, ready.Variables, ready.Edges, ready.D, st.Functions, st.Variables, st.Edges, st.D))
	}
	if want := fmt.Sprintf("%016x", r.man.Digest()); ready.ManifestDigest != want {
		return "", werr(true, fmt.Errorf("boundary manifest %s != coordinator %s — partition derivations diverged",
			ready.ManifestDigest, want))
	}
	return ready.Hit, nil
}

// pushState ships the State frame begun in handshake to worker i under
// the handshake deadline.
func (r *Remote) pushState(i int, state []byte) error {
	conn := r.conns[i]
	conn.SetWriteDeadline(time.Now().Add(r.tmo.handshake))
	if err := exchange.FinishFrame(conn, state); err != nil {
		return fmt.Errorf("send state: %w", err)
	}
	conn.SetWriteDeadline(time.Time{})
	r.stats.StatePushes++
	r.stats.HandshakeFrames++
	return nil
}

// Name implements admm.Backend.
func (r *Remote) Name() string {
	return fmt.Sprintf("sharded(%d,remote)", r.shards)
}

// Stats returns partition and synchronization statistics, aggregated
// from the workers' per-block reports.
func (r *Remote) Stats() Stats { return r.stats.snapshot() }

// Iterate implements admm.Backend: one block of iters iterations on
// the workers' state as it stands, which is RunBlock with no edit and
// no zPrev capture.
func (r *Remote) Iterate(g *graph.Graph, iters int, phaseNanos *[admm.NumPhases]int64) error {
	return r.RunBlock(g, admm.Edit{}, iters, nil, phaseNanos)
}

// RunBlock implements admm.BlockRunner: one block across all worker
// processes, one Iter down and one Up back per worker. Each worker
// replays edit on its own state, runs the block and, for a non-nil
// zPrev, captures its owned slice of z after iteration iters-1 into the
// Up it sends; the ownedVars partition the variables, so the assembled
// capture is exactly what Run's split form would have observed. The
// first transport failure is returned as a *WorkerError; the session is
// then dead (the streams are desynchronized) and the caller must Close
// the backend.
func (r *Remote) RunBlock(g *graph.Graph, edit admm.Edit, iters int, zPrev []float64, phaseNanos *[admm.NumPhases]int64) error {
	if r.closed {
		panic("shard: Iterate on closed Remote")
	}
	if g != r.g {
		panic("shard: Remote backend is bound to the problem it was built for; build a new backend per graph")
	}
	cmd := wireIter{Iters: iters, ZPrev: zPrev != nil, Edit: encodeEdit(edit)}
	for i, conn := range r.conns {
		r.armWrite(i)
		if err := writeJSONFrame(conn, exchange.FrameIter, cmd); err != nil {
			return &WorkerError{Worker: i, Addr: r.addrs[i], Phase: PhaseIterate, Err: err}
		}
	}
	reps := make([]blockReport, r.shards)
	var wg sync.WaitGroup
	errs := make([]error, r.shards)
	for i := range r.conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = r.collect(i, g, zPrev, &reps[i])
		}(i)
	}
	wg.Wait()
	// Name the worker whose own connection failed, when there is one: a
	// survivor's error frame only relays that one of its peers went
	// away, and the failover policy acts on the worker the error names.
	var relayed error
	for i, err := range errs {
		if err == nil {
			continue
		}
		we := &WorkerError{Worker: i, Addr: r.addrs[i], Phase: PhaseCollect, Err: err}
		var re *remoteError
		if !errors.As(err, &re) {
			return we
		}
		if relayed == nil {
			relayed = we
		}
	}
	if relayed != nil {
		return relayed
	}
	// The slim upload drops N; rebuild it from the n = z - u identity
	// the reference kernels maintain, against the just-installed
	// authoritative Z and U.
	admm.UpdateNRange(g, 0, g.NumEdges())
	tms := make([]workerTimings, r.shards)
	ex := exchange.Stats{Rounds: r.stats.Iterations + int64(iters)}
	for i := range reps {
		tms[i] = reps[i].tm
		ex.BytesMoved += reps[i].ex.BytesMoved
		ex.WireBytes += reps[i].ex.WireBytes
		ex.Frames += reps[i].ex.Frames
	}
	r.stats.endBlock(iters, tms, ex, phaseNanos)
	return nil
}

// armWrite/armRead arm one mid-solve frame deadline on worker i's
// control connection when the spec configured a frame timeout; with
// none, mid-solve I/O stays unbounded (large blocks are legitimately
// slow) and a lost worker still surfaces promptly as EOF or a FrameErr
// relayed by its surviving peers.
func (r *Remote) armWrite(i int) {
	if r.tmo.frame > 0 {
		r.conns[i].SetWriteDeadline(time.Now().Add(r.tmo.frame))
	}
}

func (r *Remote) armRead(i int) {
	if r.tmo.frame > 0 {
		r.conns[i].SetReadDeadline(time.Now().Add(r.tmo.frame))
	}
}

// collect reads one worker's Up frame, checks its length, and installs
// its report into rep and its state into the coordinator graph
// (disjoint slices per worker, so installs run concurrently). A non-nil
// zPrev receives the worker's owned z-capture from the block's
// penultimate iteration.
func (r *Remote) collect(i int, g *graph.Graph, zPrev []float64, rep *blockReport) error {
	r.armRead(i)
	f, buf, err := readFrameKind(r.conns[i], r.bufs[i], exchange.FrameUp)
	r.bufs[i] = buf
	if err != nil {
		return err
	}
	return installUp(rep, g, &r.plan.local[i], r.ownedVars[i], f.Payload, zPrev)
}

// Close implements admm.Backend: ends the session and closes the
// control connections; the workers return to their accept loops. The
// Bye writes are bounded so closing a backend whose workers died never
// wedges the caller.
func (r *Remote) Close() {
	if r.closed {
		return
	}
	r.closed = true
	for _, conn := range r.conns {
		if conn != nil {
			conn.SetWriteDeadline(time.Now().Add(time.Second))
			exchange.WriteFrame(conn, exchange.FrameBye, 0, nil)
		}
	}
	r.teardown()
}

func (r *Remote) teardown() {
	for _, conn := range r.conns {
		if conn != nil {
			conn.Close()
		}
	}
}

var _ admm.Backend = (*Remote)(nil)
var _ admm.BlockRunner = (*Remote)(nil)
