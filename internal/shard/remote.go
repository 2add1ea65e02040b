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
// Remote is bound to the graph it was built for; the serving layer and
// CLIs build one backend per solve. Mid-solve transport failures are
// fail-stop per solve: Iterate returns a typed *WorkerError naming the
// worker and protocol phase, admm.Run stops there, and Solve turns it
// into a retry, a survivor re-partitioning, or a failed request —
// never a corrupted result (see docs/fault-tolerance.md).
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

	// warm enables the cache-probe handshake; dialer, when non-nil,
	// replaces DialAddrTimeout (the fleet registry's pre-warmed
	// connection pool plugs in here).
	warm    bool
	problem *admm.ProblemRef
	dialer  func(addr string, timeout time.Duration) (net.Conn, error)

	// rhoShadow/uShadow are Rho and U as the workers last saw them
	// (handshake state, params pushes, and each block's own uploads).
	// The engine path that mutates parameters between Iterate calls is
	// rho adaptation — which can rescale U even while Rho stays
	// bit-identical (every edge clamped at the floor/ceiling) — so the
	// refresh gate compares both arrays; residual-checked solves
	// without adaptation then ship only the boundary exchange.
	rhoShadow []float64
	uShadow   []float64

	started bool
	closed  bool
	stats   Stats
	// Cumulative data-plane counters, summed from the workers' reports.
	exBytes  int64
	exWire   int64
	exFrames int64
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
		warm:    spec.WarmCache,
		problem: spec.Problem,
		dialer:  spec.WorkerDialer,
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

// dialWorker establishes one control connection, through the injected
// dialer when the spec supplied one.
func (r *Remote) dialWorker(addr string) (net.Conn, error) {
	if r.dialer != nil {
		return r.dialer(addr, r.tmo.dial)
	}
	return DialAddrTimeout(addr, r.tmo.dial)
}

// checkRebuild verifies a worker's claimed graph shape and boundary
// manifest against the coordinator's own — the proof gate every
// session passes (Ready or cache ack) before any state is trusted.
func checkRebuild(st graph.Stats, wantDigest string, functions, variables, edges, d int, digest string) error {
	if functions != st.Functions || variables != st.Variables || edges != st.Edges || d != st.D {
		return fmt.Errorf("rebuilt a different graph (%d/%d/%d/%d vs %d/%d/%d/%d functions/variables/edges/d) — problem spec mismatch",
			functions, variables, edges, d, st.Functions, st.Variables, st.Edges, st.D)
	}
	if digest != wantDigest {
		return fmt.Errorf("boundary manifest %s != coordinator %s — partition derivations diverged",
			digest, wantDigest)
	}
	return nil
}

// handshake runs Cfg -> Ready -> State against every worker under the
// handshake deadline. Configs go out in ascending worker order so that
// by the time worker i dials its mesh peers j < i, those workers
// already know the session. Each attempt uses a fresh session id so
// stray mesh dials from an abandoned attempt are discarded by the
// workers.
func (r *Remote) handshake() error {
	// The control-plane counters describe the attempt that succeeds.
	r.stats.CacheHits, r.stats.CacheGraphHits, r.stats.CacheMisses = 0, 0, 0
	r.stats.CfgSends, r.stats.StatePushes, r.stats.HandshakeFrames = 0, 0, 0
	if r.warm {
		return r.handshakeCached()
	}
	r.session = uint64(os.Getpid())<<32 | remoteSessions.Add(1)
	r.conns = make([]net.Conn, r.shards)
	werr := func(i int, phase string, config bool, err error) error {
		return &WorkerError{Worker: i, Addr: r.addrs[i], Phase: phase, Err: err, Config: config}
	}
	for i := 0; i < r.shards; i++ {
		conn, err := r.dialWorker(r.addrs[i])
		if err != nil {
			return werr(i, PhaseDial, false, err)
		}
		r.conns[i] = conn
		if err := r.sendConfig(i); err != nil {
			return werr(i, PhaseHandshake, false, fmt.Errorf("send config: %w", err))
		}
	}
	if err := r.readReadyAll(nil); err != nil {
		return err
	}
	state := appendState(nil, r.g)
	for i := 0; i < r.shards; i++ {
		if err := r.pushState(i, state); err != nil {
			return werr(i, PhaseState, false, err)
		}
	}
	r.rhoShadow = append([]float64(nil), r.g.Rho...)
	r.uShadow = append([]float64(nil), r.g.U...)
	return nil
}

// sendConfig ships worker i's full session config under the handshake
// deadline.
func (r *Remote) sendConfig(i int) error {
	cfg := wireConfig{
		Session:        r.session,
		Worker:         i,
		Shards:         r.shards,
		Workload:       r.problem.Workload,
		Spec:           r.problem.Spec,
		Peers:          r.addrs,
		FrameTimeoutMS: int(r.tmo.frame / time.Millisecond),
	}
	conn := r.conns[i]
	conn.SetWriteDeadline(time.Now().Add(r.tmo.handshake))
	if err := writeJSONFrame(conn, exchange.FrameCfg, cfg); err != nil {
		return err
	}
	conn.SetWriteDeadline(time.Time{})
	r.stats.CfgSends++
	r.stats.HandshakeFrames++
	return nil
}

// readReadyAll collects Ready from every worker at once (need, when
// non-nil, marks the ones that owe one) and returns the first failure.
// Reading in worker order would leave worker 1's instant refusal unread
// behind worker 0, which cannot answer until its mesh stands — and the
// mesh is waiting for the very worker that refused. The first failure
// closes the attempt's connections: that ends the other reads, and it
// is the hang-up a worker still waiting for mesh peers acts on.
func (r *Remote) readReadyAll(need []bool) error {
	errs := make(chan error, r.shards)
	pending := 0
	for i := 0; i < r.shards; i++ {
		if need != nil && !need[i] {
			continue
		}
		pending++
		go func(i int) { errs <- r.readReady(i) }(i)
	}
	var first error
	for ; pending > 0; pending-- {
		err := <-errs
		if err == nil {
			r.stats.HandshakeFrames++
		} else if first == nil {
			first = err
			r.teardown()
		}
	}
	return first
}

// readReady collects and verifies worker i's Ready acknowledgment. It
// touches only worker i's connection and buffer, so readReadyAll runs
// one per worker concurrently.
func (r *Remote) readReady(i int) error {
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
		return werr(config, err)
	}
	var ready wireReady
	if err := decodeJSONFrame(f, &ready); err != nil {
		return werr(true, fmt.Errorf("ready: %w", err))
	}
	if err := checkRebuild(r.g.Stats(), fmt.Sprintf("%016x", r.man.Digest()),
		ready.Functions, ready.Variables, ready.Edges, ready.D, ready.ManifestDigest); err != nil {
		return werr(true, err)
	}
	return nil
}

// pushState ships the full state payload to worker i under the
// handshake deadline.
func (r *Remote) pushState(i int, state []byte) error {
	conn := r.conns[i]
	conn.SetWriteDeadline(time.Now().Add(r.tmo.handshake))
	if err := exchange.WriteFrame(conn, exchange.FrameState, 0, state); err != nil {
		return fmt.Errorf("send state: %w", err)
	}
	conn.SetWriteDeadline(time.Time{})
	r.stats.StatePushes++
	r.stats.HandshakeFrames++
	return nil
}

// handshakeCached is the warm-cache variant of handshake: each worker
// gets a FrameCacheProbe naming the problem (key) and the exact state
// payload (digest); its FrameCacheAck reports the hit tier. State-tier
// hits are done — the worker restored a bit-identical snapshot. Graph
// hits take only the state push. Misses get the full config inline as
// their ack is processed (so a missed worker can build and mesh while
// later acks are still being read), then Ready and the state push as
// usual. Ordering note: workers ack before standing their mesh up, so
// reading acks in worker order cannot deadlock against mesh dials.
func (r *Remote) handshakeCached() error {
	r.session = uint64(os.Getpid())<<32 | remoteSessions.Add(1)
	r.conns = make([]net.Conn, r.shards)
	werr := func(i int, phase string, config bool, err error) error {
		return &WorkerError{Worker: i, Addr: r.addrs[i], Phase: phase, Err: err, Config: config}
	}
	state := appendState(nil, r.g)
	probe := wireCacheProbe{
		Session:        r.session,
		Shards:         r.shards,
		Key:            problemKey(r.problem, r.shards),
		StateDigest:    stateDigest(state),
		Peers:          r.addrs,
		FrameTimeoutMS: int(r.tmo.frame / time.Millisecond),
	}
	for i := 0; i < r.shards; i++ {
		conn, err := r.dialWorker(r.addrs[i])
		if err != nil {
			return werr(i, PhaseDial, false, err)
		}
		r.conns[i] = conn
		p := probe
		p.Worker = i
		conn.SetWriteDeadline(time.Now().Add(r.tmo.handshake))
		if err := writeJSONFrame(conn, exchange.FrameCacheProbe, p); err != nil {
			return werr(i, PhaseHandshake, false, fmt.Errorf("send cache probe: %w", err))
		}
		conn.SetWriteDeadline(time.Time{})
		r.stats.HandshakeFrames++
	}
	wantDigest := fmt.Sprintf("%016x", r.man.Digest())
	st := r.g.Stats()
	needReady := make([]bool, r.shards)
	needState := make([]bool, r.shards)
	for i := 0; i < r.shards; i++ {
		r.conns[i].SetReadDeadline(time.Now().Add(r.tmo.handshake))
		f, buf, err := readFrameKind(r.conns[i], r.bufs[i], exchange.FrameCacheAck)
		r.bufs[i] = buf
		r.conns[i].SetReadDeadline(time.Time{})
		if err != nil {
			var re *remoteError
			config := errors.As(err, &re) && !re.transient()
			return werr(i, PhaseHandshake, config, err)
		}
		r.stats.HandshakeFrames++
		var ack wireCacheAck
		if err := decodeJSONFrame(f, &ack); err != nil {
			return werr(i, PhaseHandshake, true, fmt.Errorf("cache ack: %w", err))
		}
		switch ack.Hit {
		case cacheHitState, cacheHitGraph:
			if err := checkRebuild(st, wantDigest, ack.Functions, ack.Variables, ack.Edges, ack.D, ack.ManifestDigest); err != nil {
				return werr(i, PhaseHandshake, true, err)
			}
			if ack.Hit == cacheHitState {
				r.stats.CacheHits++
			} else {
				r.stats.CacheGraphHits++
				needState[i] = true
			}
		case "":
			r.stats.CacheMisses++
			if err := r.sendConfig(i); err != nil {
				return werr(i, PhaseHandshake, false, fmt.Errorf("send config: %w", err))
			}
			needReady[i] = true
			needState[i] = true
		default:
			return werr(i, PhaseHandshake, true, fmt.Errorf("unknown cache ack tier %q", ack.Hit))
		}
	}
	if err := r.readReadyAll(needReady); err != nil {
		return err
	}
	for i := 0; i < r.shards; i++ {
		if !needState[i] {
			continue
		}
		if err := r.pushState(i, state); err != nil {
			return werr(i, PhaseState, false, err)
		}
	}
	r.rhoShadow = append([]float64(nil), r.g.Rho...)
	r.uShadow = append([]float64(nil), r.g.U...)
	return nil
}

// Name implements admm.Backend.
func (r *Remote) Name() string {
	return fmt.Sprintf("sharded(%d,remote)", r.shards)
}

// Stats returns partition and synchronization statistics, aggregated
// from the workers' per-block reports.
func (r *Remote) Stats() Stats { return r.stats.snapshot() }

// Iterate implements admm.Backend: one iteration block across all
// worker processes.
func (r *Remote) Iterate(g *graph.Graph, iters int, phaseNanos *[admm.NumPhases]int64) error {
	return r.iterateBlock(g, iters, nil, phaseNanos)
}

// IterateZPrev implements admm.ZPrevIterator: the whole residual round
// runs as ONE worker block, with each worker capturing its owned slice
// of z after iteration iters-1 and appending the capture to its upload.
// The assembled capture is exactly what the engine's split form
// (Iterate(iters-1); copy zPrev; Iterate(1)) would have observed —
// ownedVars partition the variables — so residuals are bit-identical
// while the round costs one control round-trip and one state upload
// instead of two.
func (r *Remote) IterateZPrev(g *graph.Graph, iters int, zPrev []float64, phaseNanos *[admm.NumPhases]int64) error {
	return r.iterateBlock(g, iters, zPrev, phaseNanos)
}

// iterateBlock runs one block on every worker. The first transport
// failure is returned as a *WorkerError; the session is then dead (the
// streams are desynchronized) and the caller must Close the backend.
func (r *Remote) iterateBlock(g *graph.Graph, iters int, zPrev []float64, phaseNanos *[admm.NumPhases]int64) error {
	if r.closed {
		panic("shard: Iterate on closed Remote")
	}
	if g != r.g {
		panic("shard: Remote backend is bound to the problem it was built for; build a new backend per graph")
	}
	// Parameter refresh: rho adaptation between blocks rescales Rho and
	// U coordinator-side; push them before the next block when (and
	// only when) either moved against the workers' last view.
	if r.started && r.paramsChanged(g) {
		params := appendParams(nil, g)
		for i, conn := range r.conns {
			r.armWrite(i)
			if err := exchange.WriteFrame(conn, exchange.FrameParams, 0, params); err != nil {
				return &WorkerError{Worker: i, Addr: r.addrs[i], Phase: PhaseParams, Err: err}
			}
		}
	}
	r.started = true
	for i, conn := range r.conns {
		r.armWrite(i)
		if err := writeJSONFrame(conn, exchange.FrameIter, wireIter{Iters: iters, ZPrev: zPrev != nil}); err != nil {
			return &WorkerError{Worker: i, Addr: r.addrs[i], Phase: PhaseIterate, Err: err}
		}
	}
	dones := make([]wireDone, r.shards)
	var wg sync.WaitGroup
	errs := make([]error, r.shards)
	for i := range r.conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = r.collect(i, g, zPrev, &dones[i])
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
	// After the block, the coordinator's Rho went down with the last
	// params push (or never changed) and U was just uploaded by the
	// workers — both sides agree again; resync the shadows.
	copy(r.rhoShadow, g.Rho)
	copy(r.uShadow, g.U)
	var bytes, wire, frames int64
	for i := range dones {
		bytes += dones[i].BytesMoved
		wire += dones[i].WireBytes
		frames += dones[i].Frames
	}
	r.exBytes, r.exWire, r.exFrames = bytes, wire, frames
	for p, v := range dones[0].PhaseNanos {
		phaseNanos[p] += v
	}
	for i := range dones {
		r.stats.SyncWaitByShard[i] += dones[i].SyncWaitNanos
	}
	r.stats.SyncWaitNanos = r.stats.SyncWaitByShard[0]
	r.stats.BoundaryZNanos += dones[0].BoundaryZNanos
	r.stats.Iterations += int64(iters)
	r.stats.BytesPerIter = float64(r.exBytes) / float64(r.stats.Iterations)
	r.stats.WireBytesPerIter = float64(r.exWire) / float64(r.stats.Iterations)
	r.stats.ExchangeFrames = r.exFrames
	return nil
}

// paramsChanged reports whether Rho or U differs from the workers'
// last view.
func (r *Remote) paramsChanged(g *graph.Graph) bool {
	for i, v := range g.Rho {
		if r.rhoShadow[i] != v {
			return true
		}
	}
	for i, v := range g.U {
		if r.uShadow[i] != v {
			return true
		}
	}
	return false
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

// collect reads one worker's Done report and owned-state upload and
// installs the state into the coordinator graph (disjoint slices per
// worker, so installs run concurrently). A non-nil zPrev receives the
// worker's owned z-capture from the block's penultimate iteration.
func (r *Remote) collect(i int, g *graph.Graph, zPrev []float64, done *wireDone) error {
	r.armRead(i)
	f, buf, err := readFrameKind(r.conns[i], r.bufs[i], exchange.FrameDone)
	r.bufs[i] = buf
	if err != nil {
		return err
	}
	if err := decodeJSONFrame(f, done); err != nil {
		return fmt.Errorf("done report: %w", err)
	}
	r.armRead(i)
	f, buf, err = readFrameKind(r.conns[i], r.bufs[i], exchange.FrameUp)
	r.bufs[i] = buf
	if err != nil {
		return err
	}
	return installOwned(g, &r.plan.local[i], r.ownedVars[i], f.Payload, zPrev)
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
var _ admm.ZPrevIterator = (*Remote)(nil)
