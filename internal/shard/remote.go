package shard

import (
	"cmp"
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
// admm.Run; the serving layer and CLIs build one backend per solve. Each
// RunBlock is one Iter down per worker, carrying the block's edit, and
// one Up back. Between blocks only Run may edit that graph: the workers
// learn only the edits a Block hands over.
// Mid-solve transport failures are fail-stop per solve: RunBlock
// returns a typed *WorkerError naming the worker and protocol phase,
// admm.Run stops there, and Solve turns it into a retry, a survivor
// re-partitioning, or a failed request — never a corrupted result. A
// stall fails the handshake or a block the same way, by the liveness
// rule (protocol.go; see docs/fault-tolerance.md).
type Remote struct {
	shards  int
	session uint64
	addrs   []string

	g     *graph.Graph
	plan  *plan
	man   *exchange.Manifest
	conns []net.Conn
	bufs  [][]byte
	// reps holds each worker's last accepted block report.
	reps []blockReport

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
// workers on each RunBlock. g must be the finalized coordinator-side
// replica of the referenced problem. NewRemote makes exactly one dial
// and handshake; ctx aborts its dials. On failure it tears the attempt
// down and returns the typed *WorkerError — Config set for a mismatch
// (graph shape, manifest digest, unknown workload) that no retry can
// cure. Retrying is Solve's business.
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
		g:       g,
		problem: spec.Problem,
	}
	var err error
	r.plan, err = newPlan(g, shards, false)
	if err != nil {
		return nil, err
	}
	r.man = exchange.NewManifest(g, &r.plan.part, shards)
	r.bufs = make([][]byte, shards)
	r.reps = make([]blockReport, shards)
	r.stats = r.plan.shapeStats(admm.TransportSockets)
	if err := r.handshake(ctx); err != nil {
		// A failed handshake abandons every connection of the attempt,
		// so half-meshed workers see the hang-up and clean up on their
		// own; a retry redials under a fresh session id.
		r.teardown()
		return nil, err
	}
	return r, nil
}

// handshake runs Cfg -> Ready -> State against every worker under the
// liveness rule; a worker whose Ready reports a state-tier cache hit
// already holds the exact state, and its push is skipped. Configs go
// out in ascending worker order so that by the time worker i dials its
// mesh peers j < i, those workers already know the session. Each
// session id is fresh, so the workers discard stray mesh dials from an
// abandoned one.
func (r *Remote) handshake(ctx context.Context) error {
	r.session = uint64(os.Getpid())<<32 | remoteSessions.Add(1)
	r.conns = make([]net.Conn, r.shards)
	bound := time.Duration(liveBound.Load())
	// The State frame is built once, in place, and written to every
	// worker whose cache misses.
	state := exchange.BeginFrame(nil, exchange.FrameState, 0)
	payloadAt := len(state)
	state = appendState(state, r.g)
	cfg := wireConfig{
		Session:     r.session,
		Shards:      r.shards,
		Workload:    r.problem.Workload,
		Spec:        r.problem.Spec,
		Peers:       r.addrs,
		StateDigest: stateDigest(state[payloadAt:]),
	}
	for i := 0; i < r.shards; i++ {
		conn, err := DialAddr(ctx, r.addrs[i])
		if err != nil {
			return &WorkerError{Worker: i, Addr: r.addrs[i], Phase: PhaseDial, Err: err}
		}
		r.conns[i] = conn
		cfg.Worker = i
		if err := writeJSONFrame(liveConn{conn, bound}, exchange.FrameCfg, cfg); err != nil {
			return &WorkerError{Worker: i, Addr: r.addrs[i], Phase: PhaseHandshake, Err: fmt.Errorf("send config: %w", err)}
		}
		r.stats.HandshakeFrames++
	}
	if err := r.await(PhaseHandshake, exchange.FrameReady, func(i int, payload []byte) error {
		hit, err := r.checkReady(payload)
		r.stats.Workers[i].Cache = cmp.Or(hit, CacheMiss)
		return err
	}); err != nil {
		return err
	}
	r.stats.HandshakeFrames += r.shards
	for i, w := range r.stats.Workers {
		if w.Cache == CacheState {
			continue
		}
		if err := exchange.FinishFrame(liveConn{r.conns[i], bound}, state); err != nil {
			return &WorkerError{Worker: i, Addr: r.addrs[i], Phase: PhaseState, Err: fmt.Errorf("send state: %w", err)}
		}
		r.stats.StatePushes++
		r.stats.HandshakeFrames++
	}
	return nil
}

// mismatch is a Ready that does not match the coordinator's own graph
// and manifest: a config error no retry can cure.
type mismatch struct{ error }

// checkReady verifies a worker's Ready and returns its cache tier. It
// is the proof gate every session passes, cache hit or not, before any
// state is trusted: the worker's graph shape and boundary manifest must
// be the coordinator's own.
func (r *Remote) checkReady(payload []byte) (string, error) {
	var ready wireReady
	if err := decodeJSONFrame(exchange.Frame{Payload: payload}, &ready); err != nil {
		return "", mismatch{fmt.Errorf("ready: %w", err)}
	}
	if st := r.g.Stats(); ready.Functions != st.Functions || ready.Variables != st.Variables || ready.Edges != st.Edges || ready.D != st.D {
		return "", mismatch{fmt.Errorf("rebuilt a different graph (%d/%d/%d/%d vs %d/%d/%d/%d functions/variables/edges/d) — problem spec mismatch",
			ready.Functions, ready.Variables, ready.Edges, ready.D, st.Functions, st.Variables, st.Edges, st.D)}
	}
	if want := fmt.Sprintf("%016x", r.man.Digest()); ready.ManifestDigest != want {
		return "", mismatch{fmt.Errorf("boundary manifest %s != coordinator %s — partition derivations diverged",
			ready.ManifestDigest, want)}
	}
	return ready.Hit, nil
}

// blame is the *WorkerError naming worker i for cause in phase. A
// mismatched Ready is a config error, and so, at the handshake, is a
// worker's refusal (FrameErr) — unless it is only busy tearing down the
// previous session, which a retry outwaits.
func (r *Remote) blame(i int, phase string, cause error) *WorkerError {
	var re *remoteError
	config := errors.As(cause, new(mismatch)) || phase == PhaseHandshake && errors.As(cause, &re) && !re.transient()
	return &WorkerError{Worker: i, Addr: r.addrs[i], Phase: phase, Err: cause, Config: config}
}

// Name implements admm.Backend.
func (r *Remote) Name() string {
	return fmt.Sprintf("sharded(%d,remote)", r.shards)
}

// Stats returns partition and synchronization statistics, aggregated
// from the workers' per-block reports.
func (r *Remote) Stats() Stats { return r.stats.snapshot() }

// RunBlock implements admm.Backend: one block across all worker
// processes, one Iter down and one Up back per worker. Each worker
// replays blk.Edit on its own state, runs the block (runBlock) and, for
// a non-nil blk.ZPrev, sends its owned slice of z as of iteration
// Iters-1 in its Up; the shards' owned variables partition the
// variables, so the assembled capture is exactly SplitBlock's. The first
// transport failure is returned as a *WorkerError; the session is then
// dead (the streams are desynchronized) and the caller must Close the
// backend.
func (r *Remote) RunBlock(g *graph.Graph, blk admm.Block) (admm.BlockReport, error) {
	if r.closed {
		panic("shard: RunBlock on closed Remote")
	}
	if g != r.g {
		panic("shard: Remote backend is bound to the problem it was built for; build a new backend per graph")
	}
	cmd := wireIter{Iters: blk.Iters, ZPrev: blk.ZPrev != nil, Edit: encodeEdit(blk.Edit)}
	bound := time.Duration(liveBound.Load())
	for i, conn := range r.conns {
		if err := writeJSONFrame(liveConn{conn, bound}, exchange.FrameIter, cmd); err != nil {
			return admm.BlockReport{}, &WorkerError{Worker: i, Addr: r.addrs[i], Phase: PhaseIterate, Err: err}
		}
	}
	if err := r.await(PhaseCollect, exchange.FrameUp, func(i int, payload []byte) error {
		return installUp(&r.reps[i], g, &r.plan.local[i], payload, blk.ZPrev)
	}); err != nil {
		return admm.BlockReport{}, err
	}
	// The slim upload drops N; rebuild it from the n = z - u identity
	// the reference kernels maintain, against the just-installed
	// authoritative Z and U.
	admm.UpdateNRange(g, 0, g.NumEdges())
	ex := exchange.Stats{Rounds: r.stats.Iterations + int64(blk.Iters)}
	return admm.BlockReport{PhaseNanos: r.stats.endBlock(blk.Iters, r.reps, ex)}, nil
}

// await reads one frame of kind want from every worker at once under
// the liveness rule and hands each payload to accept (disjoint state
// per worker, so accepts run concurrently). A failure on a worker's own
// connection, a refused payload or a liveness verdict fails phase and
// hangs up on every worker, which ends every read. In a block an error
// frame may only relay that a peer went away, so it waits for the
// verdict, and the failover policy acts on the worker the error names.
// At the handshake it is the worker's own refusal, and the hang-up it
// triggers is what frees the workers still waiting for their mesh.
func (r *Remote) await(phase string, want byte, accept func(i int, payload []byte) error) error {
	w := &blockWatch{r: r, phase: phase, bound: time.Duration(liveBound.Load()), progress: time.Now(), stuck: make([]time.Duration, r.shards)}
	var wg sync.WaitGroup
	errs := make([]error, r.shards)
	for i := range r.conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			payload, err := r.collect(i, want, w)
			if err == nil {
				err = accept(i, payload)
			}
			if errs[i] = err; err != nil && (phase == PhaseHandshake || !errors.As(err, new(*remoteError))) {
				w.fail(i, err)
			}
		}(i)
	}
	wg.Wait()
	if w.verdict != nil {
		return w.verdict
	}
	for i, err := range errs {
		if err != nil {
			return r.blame(i, phase, err)
		}
	}
	return nil
}

// collect reads worker i's Ticks, reporting each to w, until a frame of
// kind want, whose payload it returns; the payload lives in worker i's
// buffer until the next read. The worker may fall silent for at most
// the bound, mid-frame included.
func (r *Remote) collect(i int, want byte, w *blockWatch) ([]byte, error) {
	conn := liveConn{r.conns[i], w.bound}
	for {
		f, buf, err := exchange.ReadFrame(conn, r.bufs[i])
		r.bufs[i] = buf
		switch {
		case errors.Is(err, os.ErrDeadlineExceeded):
			return nil, fmt.Errorf("shard: silent for %v: %w", w.bound, err)
		case err != nil:
			return nil, err
		case f.Kind == want:
			w.finished(i)
			return f.Payload, nil
		case f.Kind == exchange.FrameErr:
			return nil, &remoteError{msg: string(f.Payload)}
		case f.Kind != exchange.FrameTick:
			return nil, fmt.Errorf("shard: unexpected frame kind %d, want %d", f.Kind, want)
		}
		peer, waited, err := decodeTick(f.Payload, i, r.shards)
		if err != nil {
			return nil, err
		}
		w.report(i, peer, waited)
	}
}

// blockWatch applies the liveness rule to one phase's collects: the
// handshake's Readys or a block's Ups. The first verdict hangs up on
// every worker, which ends every collect.
type blockWatch struct {
	r        *Remote
	phase    string
	bound    time.Duration
	mu       sync.Mutex
	progress time.Time       // the phase's start or its last answer: waits count from there
	stuck    []time.Duration // each worker's wait on a peer since then, by its last Tick; -1 once it answered
	verdict  error
}

// report records worker i's Tick: it computes (peer -1) or has waited
// on peer for waited. Once every worker still owing its answer has
// waited the bound, the one that has waited longest is blamed.
func (w *blockWatch) report(i, peer int, waited time.Duration) {
	if peer < 0 {
		waited = 0
	}
	w.mu.Lock()
	w.stuck[i] = min(waited, time.Since(w.progress))
	worst, all := i, true
	for j, d := range w.stuck {
		all = all && (d < 0 || d >= w.bound)
		if d > w.stuck[worst] {
			worst = j
		}
	}
	w.mu.Unlock()
	if all {
		w.fail(worst, fmt.Errorf("shard: every worker yet to answer has waited on a mesh peer for %v", w.bound))
	}
}

// finished records worker i's answer: progress, from which the other
// workers' waits count again (each one ticks again well within the
// bound, or the bound finds it silent).
func (w *blockWatch) finished(i int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.progress, w.stuck[i] = time.Now(), -1
}

// fail blames worker i, unless a verdict stands, and hangs up.
func (w *blockWatch) fail(i int, cause error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.verdict == nil {
		w.verdict = w.r.blame(i, w.phase, cause)
		w.r.teardown()
	}
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
