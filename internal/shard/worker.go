package shard

import (
	"errors"
	"fmt"
	"io"
	"net"
	"time"

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
	// DialTimeout bounds this worker's mesh dials to lower-numbered
	// peers (0 = DefaultDialTimeout).
	DialTimeout time.Duration
	// MeshWait bounds how long a session waits for its mesh to
	// complete — peers dialing in and peers being dialed (0 =
	// DefaultHandshakeTimeout, the same budget the coordinator gives
	// the whole handshake).
	MeshWait time.Duration
	// OnIterBlock, when non-nil, observes each iteration-block command
	// just before it executes (session id, 0-based block index within
	// the session). The -chaos-kill-block fault drill hooks here.
	OnIterBlock func(session uint64, block int)
	// CacheEntries bounds the worker's warm problem cache: sessions
	// opened with FrameCacheProbe retain their graph, partition plan,
	// manifest, and last-installed state snapshot, keyed by the
	// coordinator's problem key and LRU-evicted past this bound. 0
	// disables the cache — probes are still answered, but always miss
	// and nothing is retained. Plain FrameCfg sessions never touch it.
	CacheEntries int
}

func (o *WorkerOptions) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

func (o *WorkerOptions) meshWait() time.Duration {
	if o.MeshWait > 0 {
		return o.MeshWait
	}
	return DefaultHandshakeTimeout
}

// ServeWorker runs one shard-worker endpoint on ln: it accepts
// coordinator sessions (FrameCfg) and worker-to-worker mesh connections
// (FramePeer) on the same listener, executing one session at a time.
// Within a session the worker rebuilds the problem from the shipped
// ProblemRef, derives the same partition and boundary manifest the
// coordinator did (the Ready digest proves it), installs the pushed
// state, and then runs iteration blocks with a socket-meshed
// exchange.Messaged — the exact worker loop the in-process executor
// runs, pointed at a different Exchanger. It returns when the listener
// closes or MaxSessions is reached.
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
				f, _, err := exchange.ReadFrame(conn, nil)
				if err != nil {
					conn.Close()
					return
				}
				conns <- accepted{conn, f}
			}(conn)
		}
	}()

	type peerConn struct {
		conn  net.Conn
		hello wirePeer
	}
	// opener is a session-opening connection: a full config (FrameCfg)
	// or a warm-cache probe (FrameCacheProbe).
	type opener struct {
		conn  net.Conn
		cfg   wireConfig
		probe *wireCacheProbe
	}
	cache := newWorkerCache(opts.CacheEntries)
	var pendingPeers []peerConn
	var pendingOpen *opener
	var sessPeers chan peerConn
	var sessID uint64
	sessEnd := make(chan error, 1)
	sessions := 0
	active := false

	endSession := func(err error) (stop bool) {
		if err != nil {
			opts.logf("shard worker: session %d failed: %v", sessID, err)
		} else {
			opts.logf("shard worker: session %d done", sessID)
		}
		active = false
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
				sessPeers <- p
			} else {
				p.conn.Close()
			}
		}
		pendingPeers = pendingPeers[:0]
		if o.probe != nil {
			opts.logf("shard worker: session %d: worker %d/%d, cache probe %s", cfg.Session, cfg.Worker, cfg.Shards, o.probe.Key)
		} else {
			opts.logf("shard worker: session %d: worker %d/%d, workload %s", cfg.Session, cfg.Worker, cfg.Shards, cfg.Workload)
		}
		go func(peers chan peerConn) {
			// Higher-numbered peers dial in concurrently from separate
			// processes, so their hellos arrive in any order; hold the
			// ones a later waitPeer call will want.
			held := map[int]net.Conn{}
			waitPeer := func(from int, hungUp <-chan struct{}) (net.Conn, error) {
				if pc, ok := held[from]; ok {
					delete(held, from)
					return pc, nil
				}
				timeout := time.After(opts.meshWait())
				for {
					select {
					case p := <-peers:
						if p.hello.From == from {
							return p.conn, nil
						}
						if prev, dup := held[p.hello.From]; dup {
							prev.Close()
						}
						held[p.hello.From] = p.conn
					case <-hungUp:
						return nil, fmt.Errorf("coordinator hung up while waiting for mesh peer %d", from)
					case <-timeout:
						return nil, fmt.Errorf("timed out waiting for mesh peer %d", from)
					}
				}
			}
			var err error
			if o.probe != nil {
				err = runCachedSession(conn, *o.probe, cache, opts, waitPeer)
			} else {
				err = runSession(conn, cfg, opts, waitPeer)
			}
			for _, pc := range held {
				pc.Close()
			}
			conn.Close()
			sessEnd <- err
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
				if serr := <-sessEnd; serr != nil {
					opts.logf("shard worker: session %d failed: %v", sessID, serr)
				}
			}
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		case a := <-conns:
			// admit queues or starts a session opener: sessions execute
			// one at a time, but the previous coordinator's Close does
			// not wait for our teardown, so a back-to-back session's
			// opener legitimately races the Bye; queue one.
			admit := func(o opener) {
				if active {
					if pendingOpen != nil {
						refuse(o.conn, "worker busy with another session")
						return
					}
					pendingOpen = &o
					return
				}
				startSession(o)
			}
			switch a.f.Kind {
			case exchange.FrameCfg:
				var cfg wireConfig
				if err := decodeJSONFrame(a.f, &cfg); err != nil {
					refuse(a.conn, fmt.Sprintf("bad config: %v", err))
					continue
				}
				admit(opener{conn: a.conn, cfg: cfg})
			case exchange.FrameCacheProbe:
				var probe wireCacheProbe
				if err := decodeJSONFrame(a.f, &probe); err != nil {
					refuse(a.conn, fmt.Sprintf("bad cache probe: %v", err))
					continue
				}
				admit(opener{conn: a.conn, cfg: probe.asConfig(), probe: &probe})
			case exchange.FramePeer:
				var hello wirePeer
				if err := decodeJSONFrame(a.f, &hello); err != nil {
					a.conn.Close()
					continue
				}
				if active && hello.Session == sessID {
					sessPeers <- peerConn{a.conn, hello}
				} else {
					pendingPeers = append(pendingPeers, peerConn{a.conn, hello})
				}
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

// checkSessionShape validates an opener's worker/shard indices.
func checkSessionShape(cfg wireConfig) error {
	if cfg.Shards < 1 || cfg.Worker < 0 || cfg.Worker >= cfg.Shards {
		return fmt.Errorf("bad worker/shard config %d/%d", cfg.Worker, cfg.Shards)
	}
	if len(cfg.Peers) != cfg.Shards {
		return fmt.Errorf("%d peer addrs for %d shards", len(cfg.Peers), cfg.Shards)
	}
	return nil
}

// buildSession rebuilds the problem a config names and derives the
// partition plan and boundary manifest — the work a warm-cache hit
// skips.
func buildSession(cfg wireConfig, opts WorkerOptions) (*graph.Graph, *plan, *exchange.Manifest, error) {
	builder, ok := opts.Builders[cfg.Workload]
	if !ok {
		return nil, nil, nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	g, err := builder(cfg.Spec)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("build %s: %w", cfg.Workload, err)
	}
	plan, err := newPlan(g, cfg.Shards, false)
	if err != nil {
		return nil, nil, nil, err
	}
	return g, plan, exchange.NewManifest(g, &plan.part, cfg.Shards), nil
}

// waitPeerFunc delivers the mesh connection dialed in by a
// higher-numbered worker, giving up at MeshWait or as soon as hungUp
// closes (the session's coordinator connection is gone).
type waitPeerFunc func(from int, hungUp <-chan struct{}) (net.Conn, error)

// sessionRun is a prepared session handed to runSessionLoop: the built
// (or cache-restored) problem plus how the loop should start.
type sessionRun struct {
	g    *graph.Graph
	plan *plan
	man  *exchange.Manifest
	// sendReady: acknowledge with wireReady once the mesh stands
	// (plain and cache-miss sessions); cache-hit sessions already sent
	// the same proof in their FrameCacheAck.
	sendReady bool
	// stateInstalled: a state-tier cache hit restored the snapshot
	// before the loop started, so FrameIter is legal without a push.
	stateInstalled bool
	// onState, when non-nil, observes each successfully installed
	// FrameState payload (warm-cache capture).
	onState func(payload []byte)
}

// runSession executes one plain (FrameCfg-opened) coordinator session:
// rebuild, partition, mesh, Ready, then the control loop of
// State/Params/Iter blocks until Bye. waitPeer delivers mesh
// connections dialed in by higher-numbered workers.
func runSession(conn net.Conn, cfg wireConfig, opts WorkerOptions, waitPeer waitPeerFunc) error {
	if err := checkSessionShape(cfg); err != nil {
		return sessionFail(conn, err)
	}
	g, plan, man, err := buildSession(cfg, opts)
	if err != nil {
		return sessionFail(conn, err)
	}
	return runSessionLoop(conn, cfg, sessionRun{g: g, plan: plan, man: man, sendReady: true}, opts, waitPeer)
}

// runCachedSession executes one FrameCacheProbe-opened session. The
// ack goes out before the mesh stands (unlike Ready) so the
// coordinator can keep processing other workers' acks — a hit worker
// waiting for a miss worker's mesh dial must not stall the config that
// miss worker is itself waiting for. Mesh failures still surface as
// FrameErr on the first control exchange.
func runCachedSession(conn net.Conn, probe wireCacheProbe, cache *workerCache, opts WorkerOptions, waitPeer waitPeerFunc) error {
	cfg := probe.asConfig()
	if err := checkSessionShape(cfg); err != nil {
		return sessionFail(conn, err)
	}
	if probe.Key == "" {
		return sessionFail(conn, fmt.Errorf("cache probe without a problem key"))
	}
	armWrite := func() {
		if cfg.FrameTimeoutMS > 0 {
			conn.SetWriteDeadline(time.Now().Add(time.Duration(cfg.FrameTimeoutMS) * time.Millisecond))
		}
	}
	ent := cache.get(probe.Key)
	if ent != nil && (ent.worker != probe.Worker || ent.shards != probe.Shards) {
		// A key collision or a coordinator bug: never serve a plan built
		// for a different shard layout. Rebuild below.
		cache.remove(probe.Key)
		ent = nil
	}
	if ent == nil {
		// Miss: ack empty, then the coordinator ships the full config on
		// this same connection and the session proceeds like a plain one —
		// except the installed problem and state are captured for next time.
		armWrite()
		if err := writeJSONFrame(conn, exchange.FrameCacheAck, wireCacheAck{}); err != nil {
			return err
		}
		f, _, err := exchange.ReadFrame(conn, nil)
		if err != nil {
			if err == io.EOF {
				// Coordinator abandoned the handshake (a peer failed).
				return nil
			}
			return err
		}
		if f.Kind == exchange.FrameBye {
			return nil
		}
		if f.Kind != exchange.FrameCfg {
			return sessionFail(conn, fmt.Errorf("expected config after cache miss, got frame kind %d", f.Kind))
		}
		var full wireConfig
		if err := decodeJSONFrame(f, &full); err != nil {
			return sessionFail(conn, fmt.Errorf("bad config: %v", err))
		}
		if full.Session != probe.Session || full.Worker != probe.Worker || full.Shards != probe.Shards {
			return sessionFail(conn, fmt.Errorf("config does not match its cache probe"))
		}
		if err := checkSessionShape(full); err != nil {
			return sessionFail(conn, err)
		}
		g, plan, man, err := buildSession(full, opts)
		if err != nil {
			return sessionFail(conn, err)
		}
		run := sessionRun{g: g, plan: plan, man: man, sendReady: true}
		run.onState = func(payload []byte) {
			cache.put(probe.Key, &cacheEntry{
				g: g, plan: plan, man: man,
				worker: probe.Worker, shards: probe.Shards,
				snapshot: append([]byte(nil), payload...),
				digest:   stateDigest(payload),
			})
		}
		return runSessionLoop(conn, full, run, opts, waitPeer)
	}
	// Hit: the cached graph/plan/manifest stand in for the rebuild. A
	// matching state digest additionally proves the cached snapshot is
	// byte-identical to what the coordinator would push — restore it and
	// the push is skipped too; otherwise the state still comes down.
	run := sessionRun{g: ent.g, plan: ent.plan, man: ent.man}
	hit := cacheHitGraph
	if ent.digest != "" && ent.digest == probe.StateDigest {
		if err := installState(ent.g, ent.snapshot); err != nil {
			return sessionFail(conn, err)
		}
		hit = cacheHitState
		run.stateInstalled = true
	}
	run.onState = func(payload []byte) {
		ent.snapshot = append(ent.snapshot[:0], payload...)
		ent.digest = stateDigest(payload)
	}
	st := ent.g.Stats()
	ack := wireCacheAck{
		Hit:            hit,
		Functions:      st.Functions,
		Variables:      st.Variables,
		Edges:          st.Edges,
		D:              st.D,
		ManifestDigest: fmt.Sprintf("%016x", ent.man.Digest()),
	}
	armWrite()
	if err := writeJSONFrame(conn, exchange.FrameCacheAck, ack); err != nil {
		return err
	}
	return runSessionLoop(conn, cfg, run, opts, waitPeer)
}

// runSessionLoop stands the mesh up and runs a prepared session's
// control loop until Bye.
func runSessionLoop(conn net.Conn, cfg wireConfig, run sessionRun, opts WorkerOptions, waitPeer waitPeerFunc) (err error) {
	fail := func(err error) error { return sessionFail(conn, err) }
	g, plan, man := run.g, run.plan, run.man
	id := cfg.Worker

	// The next control frame is read while the mesh stands up. The
	// coordinator sends nothing a worker must act on before its mesh is
	// complete, but it hangs up the moment any worker fails the
	// handshake — and a worker that only finds out at MeshWait holds the
	// retry (queued behind this session) hostage for that long.
	type ctrlFrame struct {
		f   exchange.Frame
		buf []byte
		err error
	}
	next := make(chan ctrlFrame, 1)
	hungUp := make(chan struct{})
	go func() {
		var c ctrlFrame
		c.f, c.buf, c.err = exchange.ReadFrame(conn, nil)
		if c.err != nil {
			close(hungUp)
		}
		next <- c
	}()
	prefetched := true
	defer func() {
		if prefetched {
			// Leaving before the control loop took the frame: closing the
			// connection ends the read.
			conn.Close()
			<-next
		}
	}()

	// Mesh: dial every lower-numbered peer we share boundary state
	// with; higher-numbered ones dial us.
	peers := make([]io.ReadWriteCloser, cfg.Shards)
	closePeers := func() {
		for _, p := range peers {
			if p != nil {
				p.Close()
			}
		}
	}
	for j := 0; j < id; j++ {
		if !meshNeeded(man, id, j) {
			continue
		}
		pc, err := DialAddrTimeout(cfg.Peers[j], opts.DialTimeout)
		if err != nil {
			closePeers()
			return fail(fmt.Errorf("dial mesh peer %d (%s): %w", j, cfg.Peers[j], err))
		}
		if err := writeJSONFrame(pc, exchange.FramePeer, wirePeer{Session: cfg.Session, From: id}); err != nil {
			pc.Close()
			closePeers()
			return fail(fmt.Errorf("mesh hello to peer %d: %w", j, err))
		}
		peers[j] = pc
	}
	for j := id + 1; j < cfg.Shards; j++ {
		if !meshNeeded(man, id, j) {
			continue
		}
		pc, err := waitPeer(j, hungUp)
		if err != nil {
			closePeers()
			return fail(err)
		}
		peers[j] = pc
	}

	ex, err := exchange.NewPeer(g, man, id, peers)
	if err != nil {
		closePeers()
		return fail(err)
	}
	defer ex.Close()
	// The coordinator's frame timeout applies symmetrically: bound the
	// mesh exchange and this worker's control-plane writes, so a
	// stalled peer or coordinator fails the session instead of wedging
	// this worker forever. Control reads stay unbounded — an idle
	// session between blocks is normal.
	frameTimeout := time.Duration(cfg.FrameTimeoutMS) * time.Millisecond
	if frameTimeout > 0 {
		ex.SetIOTimeout(frameTimeout)
	}
	armWrite := func() {
		if frameTimeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(frameTimeout))
		}
	}

	if run.sendReady {
		st := g.Stats()
		ready := wireReady{
			Functions:      st.Functions,
			Variables:      st.Variables,
			Edges:          st.Edges,
			D:              st.D,
			ManifestDigest: fmt.Sprintf("%016x", man.Digest()),
		}
		armWrite()
		if err := writeJSONFrame(conn, exchange.FrameReady, ready); err != nil {
			return err
		}
	}

	lp := &plan.local[id]
	ownedVars := lp.appendOwnedVars(nil)
	var buf, out []byte
	var zprevBuf []float64
	stateInstalled := run.stateInstalled
	block := 0
	for {
		var f exchange.Frame
		if prefetched {
			c := <-next
			prefetched = false
			f, buf, err = c.f, c.buf, c.err
		} else {
			f, buf, err = exchange.ReadFrame(conn, buf)
		}
		if err != nil {
			if err == io.EOF {
				// Coordinator went away without Bye — treat as session end.
				return nil
			}
			return err
		}
		switch f.Kind {
		case exchange.FrameState:
			if err := installState(g, f.Payload); err != nil {
				return fail(err)
			}
			stateInstalled = true
			if run.onState != nil {
				run.onState(f.Payload)
			}
		case exchange.FrameParams:
			if err := installParams(g, f.Payload); err != nil {
				return fail(err)
			}
		case exchange.FrameIter:
			var cmd wireIter
			if err := decodeJSONFrame(f, &cmd); err != nil {
				return fail(fmt.Errorf("iterate command: %w", err))
			}
			if !stateInstalled {
				return fail(fmt.Errorf("iterate before state push"))
			}
			if cmd.Iters <= 0 {
				return fail(fmt.Errorf("iterate %d", cmd.Iters))
			}
			if opts.OnIterBlock != nil {
				opts.OnIterBlock(cfg.Session, block)
			}
			block++
			var zprev []float64
			if cmd.ZPrev {
				if zprevBuf == nil {
					zprevBuf = make([]float64, len(ownedVars)*g.D())
				}
				zprev = zprevBuf
			}
			done, iterErr := runWorkerBlock(g, lp, ex, id, cmd.Iters, ownedVars, zprev)
			if iterErr != nil {
				return fail(iterErr)
			}
			armWrite()
			if err := writeJSONFrame(conn, exchange.FrameDone, done); err != nil {
				return err
			}
			out = appendOwned(out[:0], g, lp, ownedVars, zprev)
			armWrite()
			if err := exchange.WriteFrame(conn, exchange.FrameUp, 0, out); err != nil {
				return err
			}
		case exchange.FrameBye:
			return nil
		default:
			return fail(fmt.Errorf("unexpected frame kind %d mid-session", f.Kind))
		}
	}
}

// runWorkerBlock executes one iteration block on a worker process,
// converting the exchanger's fail-stop panics into session errors (the
// worker must survive a dead peer and serve the next session). A
// non-nil zprev receives this worker's owned z (appendOwnedVars order)
// as of the block's penultimate iteration — the capture a merged
// residual round uploads alongside the final state.
func runWorkerBlock(g *graph.Graph, lp *localPlan, ex *exchange.Messaged, id, iters int, ownedVars []int, zprev []float64) (done wireDone, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("iteration block: %v", r)
		}
	}()
	var tm workerTimings
	run := func(n int) { runShardIters(g, lp, ex, ex.Mailbox(), id, n, &tm) }
	if zprev != nil {
		if iters > 1 {
			run(iters - 1)
		}
		d := g.D()
		for k, v := range ownedVars {
			copy(zprev[k*d:(k+1)*d], g.Z[v*d:(v+1)*d])
		}
		run(1)
	} else {
		run(iters)
	}
	done.PhaseNanos = tm.phaseNanos
	done.SyncWaitNanos = tm.syncWait
	done.BoundaryZNanos = tm.boundaryZ
	st := ex.Stats()
	done.BytesMoved = st.BytesMoved
	done.WireBytes = st.WireBytes
	done.Frames = st.Frames
	return done, nil
}
