package shard

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/admm"
	"repro/internal/exchange"
	"repro/internal/graph"
)

// BuilderFunc rebuilds one workload's factor graph from its raw spec
// JSON — the worker-process side of admm.ProblemRef. The canonical
// registry lives in internal/workload; tests may supply their own.
type BuilderFunc func(spec []byte) (*graph.Graph, error)

// WorkerOptions configures ServeWorker.
type WorkerOptions struct {
	// Builders maps workload names to graph builders; a session naming
	// an unknown workload is refused with FrameErr.
	Builders map[string]BuilderFunc
	// Logf, when non-nil, receives session lifecycle messages.
	Logf func(format string, args ...any)
	// MaxSessions, when > 0, returns from ServeWorker after that many
	// sessions complete (successfully or not) — used by tests and CI.
	MaxSessions int
	// OnIterBlock, when non-nil, observes each iteration-block command
	// just before it executes (session id, 0-based block index within
	// the session). The -chaos-kill-block fault drill hooks here.
	OnIterBlock func(session uint64, block int)
	// CacheEntries bounds the worker's problem cache, which every
	// session consults: a session's graph, partition plan, manifest and
	// last-installed state snapshot are kept under the problem key of
	// its Cfg and LRU-evicted past this bound. 0 disables the cache —
	// every session builds, Ready always reports a miss, and nothing is
	// retained.
	CacheEntries int
}

func (o *WorkerOptions) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// ServeWorker runs one shard-worker endpoint on ln: it accepts
// coordinator sessions (FrameCfg) and worker-to-worker mesh connections
// (FramePeer) on the same listener, executing one session at a time.
// Within a session the worker takes the problem from its cache or
// rebuilds it from the shipped ProblemRef, derives the same partition
// and boundary manifest the coordinator did (the Ready digest proves
// it), installs the pushed (or cached) state, and then runs iteration
// blocks with a socket-meshed exchange.Messaged — the exact worker loop
// the in-process executor runs, pointed at a different Exchanger. It
// returns when the listener closes or MaxSessions is reached. A
// session has no timer of its own: the liveness bound caps an opener
// and a mesh dial, and the coordinator's verdict or hang-up ends the
// session.
func ServeWorker(ln net.Listener, opts WorkerOptions) error {
	type accepted struct {
		conn net.Conn
		f    exchange.Frame
	}
	conns := make(chan accepted, 64)
	acceptErr := make(chan error, 1)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				acceptErr <- err
				return
			}
			go func(conn net.Conn) {
				// First frame classifies the connection; a malformed
				// opener only poisons this connection, not the worker.
				// The whole opener, first byte included, gets the
				// liveness bound: a client that sends nothing, or
				// begins an opener and stalls, is dropped, not kept.
				conn.SetReadDeadline(time.Now().Add(time.Duration(liveBound.Load())))
				f, _, err := exchange.ReadFrame(conn, nil)
				if err != nil {
					conn.Close()
					return
				}
				conn.SetReadDeadline(time.Time{})
				conns <- accepted{conn, f}
			}(conn)
		}
	}()

	// opener is a session-opening connection and its checked config.
	type opener struct {
		conn net.Conn
		cfg  wireConfig
	}
	cache := newWorkerCache(opts.CacheEntries)
	// pendingPeers parks mesh dials that raced ahead of their session's
	// config, at most admm.MaxShards of them (the oldest is dropped).
	var pendingPeers []peerConn
	var pendingOpen *opener
	var sessPeers chan peerConn
	var sessID uint64
	sessEnd := make(chan error, 1)
	sessions := 0
	active := false
	defer func() {
		for _, p := range pendingPeers {
			p.conn.Close()
		}
	}()

	// offerPeer hands a mesh dial to the running session without ever
	// blocking the accept loop: the session takes one per peer, so a
	// surplus dial is closed.
	offerPeer := func(p peerConn) {
		select {
		case sessPeers <- p:
		default:
			p.conn.Close()
		}
	}

	endSession := func(err error) (stop bool) {
		if err != nil {
			opts.logf("shard worker: session %d failed: %v", sessID, err)
		} else {
			opts.logf("shard worker: session %d done", sessID)
		}
		active = false
		for len(sessPeers) > 0 {
			(<-sessPeers).conn.Close()
		}
		sessPeers = nil
		sessions++
		return opts.MaxSessions > 0 && sessions >= opts.MaxSessions
	}

	startSession := func(o opener) {
		conn, cfg := o.conn, o.cfg
		active = true
		sessID = cfg.Session
		sessPeers = make(chan peerConn, cfg.Shards)
		// Re-deliver mesh dials that raced ahead of our config; drop
		// strays from dead sessions.
		for _, p := range pendingPeers {
			if p.hello.Session == cfg.Session {
				offerPeer(p)
			} else {
				p.conn.Close()
			}
		}
		pendingPeers = pendingPeers[:0]
		opts.logf("shard worker: session %d: worker %d/%d, workload %s", cfg.Session, cfg.Worker, cfg.Shards, cfg.Workload)
		go func(hellos <-chan peerConn) {
			sessEnd <- runSession(conn, cfg, cache, opts, hellos)
		}(sessPeers)
	}

	for {
		select {
		case err := <-sessEnd:
			if endSession(err) {
				if pendingOpen != nil {
					refuse(pendingOpen.conn, "worker session limit reached")
				}
				return nil
			}
			if pendingOpen != nil {
				next := *pendingOpen
				pendingOpen = nil
				startSession(next)
			}
		case err := <-acceptErr:
			if active {
				// Let the in-flight session finish; its connections
				// are independent of the listener.
				endSession(<-sessEnd)
			}
			if pendingOpen != nil {
				// Hang up on the queued opener as a dead worker would:
				// its coordinator's probe finds this worker gone and
				// the failover policy acts. (An Err frame at the
				// handshake would be a config error, which no failover
				// follows.)
				pendingOpen.conn.Close()
			}
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		case a := <-conns:
			switch a.f.Kind {
			case exchange.FrameCfg:
				var cfg wireConfig
				err := decodeJSONFrame(a.f, &cfg)
				if err == nil {
					err = checkSessionShape(cfg)
				}
				if err != nil {
					refuse(a.conn, fmt.Sprintf("bad config: %v", err))
					continue
				}
				// Sessions execute one at a time, but the previous
				// coordinator's Close does not wait for our teardown, so
				// a back-to-back session's opener legitimately races the
				// Bye; queue one.
				o := opener{a.conn, cfg}
				switch {
				case !active:
					startSession(o)
				case pendingOpen == nil:
					pendingOpen = &o
				default:
					refuse(o.conn, "worker busy with another session")
				}
			case exchange.FramePeer:
				var hello wirePeer
				if err := decodeJSONFrame(a.f, &hello); err != nil {
					a.conn.Close()
					continue
				}
				p := peerConn{a.conn, hello}
				if active && hello.Session == sessID {
					offerPeer(p)
					continue
				}
				if len(pendingPeers) == admm.MaxShards {
					pendingPeers[0].conn.Close()
					pendingPeers = pendingPeers[1:]
				}
				pendingPeers = append(pendingPeers, p)
			case exchange.FramePing:
				// Health probe: answer with this worker's session state
				// and close. Handled here (not in the classification
				// goroutine) so active/sessions are read race-free; the
				// reply goes out on a goroutine with a write deadline so
				// a stalled prober cannot wedge the accept loop.
				pong := wirePong{Active: active, Sessions: sessions}
				go func(conn net.Conn) {
					conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
					writeJSONFrame(conn, exchange.FramePong, pong)
					conn.Close()
				}(a.conn)
			default:
				refuse(a.conn, fmt.Sprintf("unexpected opening frame kind %d", a.f.Kind))
			}
		}
	}
}

// refuse reports an error on a connection the worker will not serve.
func refuse(conn net.Conn, msg string) {
	exchange.WriteFrame(conn, exchange.FrameErr, 0, []byte(msg))
	conn.Close()
}

// sessionFail reports a session error back to the coordinator
// (best-effort, bounded so a wedged coordinator stream cannot hold the
// session — and the worker — hostage) and returns it.
func sessionFail(conn net.Conn, err error) error {
	conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
	exchange.WriteFrame(conn, exchange.FrameErr, 0, []byte(err.Error()))
	return err
}

// checkSessionShape validates an opener's worker/shard indices. The
// accept loop runs it before a session allocates anything they size.
func checkSessionShape(cfg wireConfig) error {
	if cfg.Shards < 1 || cfg.Shards > admm.MaxShards || cfg.Worker < 0 || cfg.Worker >= cfg.Shards {
		return fmt.Errorf("worker %d of %d shards (want 1..%d shards)", cfg.Worker, cfg.Shards, admm.MaxShards)
	}
	if len(cfg.Peers) != cfg.Shards {
		return fmt.Errorf("%d peer addrs for %d shards", len(cfg.Peers), cfg.Shards)
	}
	return nil
}

// buildSession rebuilds the problem a config names and derives the
// partition plan and boundary manifest — the work a cache hit skips.
func buildSession(cfg wireConfig, opts WorkerOptions) (*cacheEntry, error) {
	builder, ok := opts.Builders[cfg.Workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	g, err := builder(cfg.Spec)
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", cfg.Workload, err)
	}
	plan, err := newPlan(g, cfg.Shards, false)
	if err != nil {
		return nil, err
	}
	return &cacheEntry{
		g: g, plan: plan, man: exchange.NewManifest(g, &plan.part, cfg.Shards),
		worker: cfg.Worker, shards: cfg.Shards,
	}, nil
}

// peerConn is a mesh connection and the hello that opened it.
type peerConn struct {
	conn  net.Conn
	hello wirePeer
}

// Worker session states: which control frames runSession acts on.
const (
	stateMeshWait   = "mesh-wait"
	stateAwaitState = "await-state"
	stateReady      = "ready"
	stateRunning    = "running"
)

// runSession executes one coordinator session: take the problem from
// the cache (restoring the cached state too when the Cfg's state digest
// matches) or build it, stand the mesh up, answer Ready with the cache
// tier, take the State push, then run Iter blocks until Bye. hellos
// delivers the mesh dials of higher-numbered workers. It closes conn.
//
// One goroutine reads every control frame; the session acts on each by
// this table, and any other (state, kind) pair is refused with FrameErr
// naming both, which ends the session:
//
//	state        State            Iter               Bye
//	mesh-wait    refuse*          refuse*            refuse*
//	await-state  install -> ready refuse             end
//	ready        refuse           run -> running     end
//	running      refuse*          refuse*            end*
//
// mesh-wait lasts from the Cfg to the Ready: the build (or cache
// lookup) and the mesh. A build or a graph-tier hit answers Ready in
// await-state; a state-tier hit in ready. A block runs in running, and
// its Up returns the session to ready. The session ticks (ticking)
// through mesh-wait, an install and a block. * A frame or a hang-up
// there first ends any wait on a peer, and is acted on once the work
// has stopped; one that arrives during an install is acted on in
// ready.
func runSession(conn net.Conn, cfg wireConfig, cache *workerCache, opts WorkerOptions, hellos <-chan peerConn) (err error) {
	fail := func(err error) error { return sessionFail(conn, err) }
	refuseFrame := func(f exchange.Frame, state string) error {
		return fail(fmt.Errorf("frame kind %d in state %s", f.Kind, state))
	}
	// The control reader delivers frames until a read fails, then closes
	// frames with the failure in readErr. On return, closing conn ends
	// its read and draining frames waits for it to exit. Each frame gets
	// a buffer of its own; after the one State push they are small.
	frames := make(chan exchange.Frame)
	var readErr error
	go func() {
		defer close(frames)
		for {
			f, _, err := exchange.ReadFrame(conn, nil)
			if err != nil {
				readErr = err
				return
			}
			frames <- f
		}
	}()
	defer func() {
		conn.Close()
		for range frames {
		}
	}()

	id := cfg.Worker
	key := problemKey(cfg.Workload, cfg.Spec, cfg.Shards)
	live := liveConn{conn, time.Duration(liveBound.Load())}
	// The mesh's connections are the exchanger's streams, so closing
	// them closes it too.
	mesh := make([]io.ReadWriteCloser, cfg.Shards)
	defer func() {
		for _, p := range mesh {
			if p != nil {
				p.Close()
			}
		}
	}()
	var ent *cacheEntry
	var hit string
	var prepErr error
	wait := &handshakeWait{peer: -1}
	quit := make(chan struct{})
	f, ok, held, tickErr := ticking(live, frames, wait.waiting, func() { close(quit) }, func() {
		switch ent = cache.get(key, id, cfg.Shards); {
		case ent == nil:
			ent, prepErr = buildSession(cfg, opts)
		case ent.digest == cfg.StateDigest:
			prepErr, hit = installState(ent.g, ent.snapshot), CacheState
		default:
			hit = CacheGraph
		}
		if prepErr == nil {
			prepErr = standMesh(mesh, cfg, ent.man, hellos, wait, quit)
		}
	})
	switch {
	case held && !ok:
		// The coordinator hangs up the moment any worker fails the
		// handshake; noticing it here frees the worker for the retry.
		return fmt.Errorf("coordinator hung up before Ready: %v", readErr)
	case held:
		return refuseFrame(f, stateMeshWait)
	case tickErr != nil:
		return tickErr
	case prepErr != nil:
		return fail(prepErr)
	}
	g, plan, man := ent.g, ent.plan, ent.man
	ex, err := exchange.NewPeer(g, man, id, mesh)
	if err != nil {
		return fail(err)
	}

	st := g.Stats()
	ready := wireReady{
		Functions:      st.Functions,
		Variables:      st.Variables,
		Edges:          st.Edges,
		D:              st.D,
		ManifestDigest: fmt.Sprintf("%016x", man.Digest()),
		Hit:            hit,
	}
	if err := writeJSONFrame(live, exchange.FrameReady, ready); err != nil {
		return err
	}

	lp := &plan.local[id]
	var out []byte
	state := stateAwaitState
	if hit == CacheState {
		state = stateReady
	}
	computing := func() (int, time.Duration) { return -1, 0 }
	block := 0
	// held: a ticking phase read f (or the hang-up, !ok) for the loop.
	for {
		if !held {
			f, ok = <-frames
		}
		held = false
		if !ok {
			if readErr == io.EOF {
				// Coordinator went away without Bye — treat as session end.
				return nil
			}
			return readErr
		}
		switch {
		case f.Kind == exchange.FrameBye:
			return nil
		case f.Kind == exchange.FrameState && state == stateAwaitState:
			payload := f.Payload
			var installErr error
			f, ok, held, tickErr = ticking(live, frames, computing, func() {}, func() {
				if installErr = installState(g, payload); installErr == nil {
					cache.capture(key, ent, payload)
				}
			})
			switch {
			case installErr != nil:
				return fail(installErr)
			case !held && tickErr != nil:
				return tickErr
			}
			state = stateReady
		case f.Kind == exchange.FrameIter && state == stateReady:
			var cmd wireIter
			if err := decodeJSONFrame(f, &cmd); err != nil {
				return fail(fmt.Errorf("iterate command: %w", err))
			}
			if cmd.Iters <= 0 {
				return fail(fmt.Errorf("iterate %d", cmd.Iters))
			}
			edit, err := cmd.Edit.decode()
			if err != nil {
				return fail(fmt.Errorf("iterate command edit: %w", err))
			}
			if opts.OnIterBlock != nil {
				opts.OnIterBlock(cfg.Session, block)
			}
			block++
			replayEdit(g, lp, edit)
			var zprev []float64
			if cmd.ZPrev {
				zprev = g.ScratchZ()
			}
			state = stateRunning
			var iterErr error
			waiting := func() (int, time.Duration) { return ex.Waiting(id) }
			f, ok, held, tickErr = ticking(live, frames, waiting, func() { ex.Close() }, func() {
				var rep blockReport
				if rep, iterErr = runWorkerBlock(g, lp, ex, id, cmd.Iters, zprev); iterErr == nil {
					// Encoding a large Up takes a while: tick through it.
					out = appendUp(exchange.BeginFrame(out[:0], exchange.FrameUp, 0), &rep, g, lp, zprev)
				}
			})
			switch {
			case held:
				continue
			case tickErr != nil:
				return tickErr
			case iterErr != nil:
				return fail(iterErr)
			}
			state = stateReady
			if err := exchange.FinishFrame(live, out); err != nil {
				return err
			}
		default:
			return refuseFrame(f, state)
		}
	}
}

// standMesh stands the session's mesh up in mesh: it dials every
// lower-numbered peer this worker shares boundary state with, then files
// the hellos of the higher-numbered ones, in any order, into their
// slots, closing any other, until every slot is filled or quit closes.
// wait says which peer it waits on, and since when.
func standMesh(mesh []io.ReadWriteCloser, cfg wireConfig, man *exchange.Manifest, hellos <-chan peerConn, wait *handshakeWait, quit <-chan struct{}) error {
	id := cfg.Worker
	for j := range id {
		if !man.Linked(id, j) {
			continue
		}
		wait.set(j)
		pc, err := DialAddr(context.Background(), cfg.Peers[j])
		if err != nil {
			return fmt.Errorf("dial mesh peer %d (%s): %w", j, cfg.Peers[j], err)
		}
		mesh[j] = pc
		if err := writeJSONFrame(pc, exchange.FramePeer, wirePeer{Session: cfg.Session, From: id}); err != nil {
			return fmt.Errorf("mesh hello to peer %d: %w", j, err)
		}
	}
	for {
		next := -1
		for j := cfg.Shards - 1; j > id; j-- {
			if mesh[j] == nil && man.Linked(id, j) {
				next = j
			}
		}
		if next < 0 {
			wait.set(-1)
			return nil
		}
		wait.set(next)
		select {
		case p := <-hellos:
			j := p.hello.From
			if j <= id || j >= cfg.Shards || mesh[j] != nil || !man.Linked(id, j) {
				p.conn.Close()
				continue
			}
			mesh[j] = p.conn
		case <-quit:
			return fmt.Errorf("stopped waiting for mesh peer %d", next)
		}
	}
}

// handshakeWait is what a session's Ticks say before its Ready: the mesh peer
// it waits on, and since when, or -1 while it computes.
type handshakeWait struct {
	mu    sync.Mutex
	peer  int
	since time.Time
}

// set names the peer the session waits on; its wait counts from the
// first time it is named.
func (m *handshakeWait) set(peer int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if peer != m.peer {
		m.peer, m.since = peer, time.Now()
	}
}

func (m *handshakeWait) waiting() (int, time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.peer < 0 {
		return -1, 0
	}
	return m.peer, time.Since(m.since)
}

// ticking runs work on the calling goroutine while another sends a Tick
// on conn every tickEvery, saying what waiting reports, and returns once
// both have stopped, so the caller alone writes to conn again. The
// first control frame or hang-up seen meanwhile (f, ok; held) calls
// abort, which must end any wait on a peer, and is returned for the
// caller to act on; the Ticks go on until work returns. A failed Tick
// (err) calls abort too and ends the Ticks.
func ticking(conn liveConn, frames <-chan exchange.Frame, waiting func() (int, time.Duration), abort, work func()) (f exchange.Frame, ok, held bool, err error) {
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		ticks := time.NewTicker(time.Duration(liveTick.Load()))
		defer ticks.Stop()
		in := frames
		var buf []byte
		for {
			select {
			case <-stop:
				return
			case f, ok = <-in:
				held, in = true, nil
				abort()
			case <-ticks.C:
				peer, waited := waiting()
				buf = appendTick(exchange.BeginFrame(buf[:0], exchange.FrameTick, 0), peer, waited)
				if err = exchange.FinishFrame(conn, buf); err != nil {
					if !held {
						abort()
					}
					return
				}
			}
		}
	}()
	work()
	close(stop)
	<-done
	return
}

// replayEdit makes Run's edit to Rho on every edge (the boundary
// combine reads peers' edges' rho) and to U on the edges this worker
// owns, the only U it reads.
func replayEdit(g *graph.Graph, lp *localPlan, e admm.Edit) {
	d := g.D()
	next := 0
	for _, r := range lp.edgeRuns {
		e.Apply(g.Rho[next:r.Lo], nil, d)
		e.Apply(g.Rho[r.Lo:r.Hi], g.U[r.Lo*d:r.Hi*d], d)
		next = r.Hi
	}
	e.Apply(g.Rho[next:], nil, d)
}

// runWorkerBlock executes one iteration block on a worker process
// (runBlock), converting the exchanger's fail-stop panics into session
// errors (the worker must survive a dead peer and serve the next
// session). A non-nil zprev receives this worker's owned z as of the
// block's penultimate iteration — the capture a residual round uploads
// alongside the final state, whatever the block's length.
func runWorkerBlock(g *graph.Graph, lp *localPlan, ex *exchange.Messaged, id, iters int, zprev []float64) (rep blockReport, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("iteration block: %v", r)
		}
	}()
	runBlock(g, lp, ex, ex.Mailbox(), id, iters, zprev, &rep.tm)
	rep.ex = ex.Stats()
	return rep, nil
}
