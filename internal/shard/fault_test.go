package shard

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/admm"
	"repro/internal/exchange"
	"repro/internal/faultnet"
	"repro/internal/graph"
)

// startFaultWorker hosts one in-process shard worker behind a
// faultnet-scripted TCP listener and returns its dialable addr.
func startFaultWorker(t *testing.T, builders map[string]BuilderFunc, script faultnet.Script, opts WorkerOptions) (string, *faultnet.Listener) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fln := faultnet.WrapListener(ln, script)
	t.Cleanup(func() { fln.Close() })
	opts.Builders = builders
	go ServeWorker(fln, opts)
	return "tcp:" + ln.Addr().String(), fln
}

func chainBuilders(t *testing.T, n int) map[string]BuilderFunc {
	return map[string]BuilderFunc{
		"chain": func(spec []byte) (*graph.Graph, error) { return chainGraph(t, n), nil },
	}
}

func chainSpec(addrs []string) admm.ExecutorSpec {
	return admm.ExecutorSpec{
		Kind: admm.ExecSharded, Transport: admm.TransportSockets, Addrs: addrs,
		Problem: &admm.ProblemRef{Workload: "chain", Spec: []byte(`{}`)},
	}
}

// TestDialRetryThroughRefusingListener: the first connection to a
// worker is refused (accepted and immediately torn down); the
// dial+handshake retry loop must absorb it and complete on the second
// attempt, reporting the burned attempt in Stats.
func TestDialRetryThroughRefusingListener(t *testing.T) {
	builders := chainBuilders(t, 48)
	addr, _ := startFaultWorker(t, builders, faultnet.PlanAt(0, faultnet.Plan{Refuse: true}), WorkerOptions{})

	g := chainGraph(t, 48)
	spec := chainSpec([]string{addr})
	spec.DialAttempts = 3
	r, err := NewRemote(context.Background(), spec, g)
	if err != nil {
		t.Fatalf("handshake did not survive one refused connection: %v", err)
	}
	defer r.Close()
	if got := r.Stats().HandshakeRetries; got < 1 {
		t.Fatalf("HandshakeRetries = %d, want >= 1", got)
	}
	var nanos [admm.NumPhases]int64
	r.Iterate(g, 10, &nanos)
	ref := chainGraph(t, 48)
	admm.NewSerialFused().Iterate(ref, 10, &nanos)
	for i := range ref.Z {
		if ref.Z[i] != g.Z[i] {
			t.Fatalf("post-retry solve diverged from serial at Z[%d]", i)
		}
	}
}

// busyListener answers the next `refuse` session openers the way a
// worker with a running session and a full queue slot does, and hands
// every other connection to the worker behind it.
type busyListener struct {
	net.Listener
	refuse atomic.Int32
}

func (l *busyListener) Accept() (net.Conn, error) {
	for {
		conn, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		if l.refuse.Load() == 0 {
			return conn, nil
		}
		l.refuse.Add(-1)
		go func() {
			exchange.ReadFrame(conn, nil) // the opener
			refuse(conn, "worker busy with another session")
		}()
	}
}

// TestBusyRefusalFailsHandshakeFast: worker 1 refuses the opener as
// busy while worker 0 (default MeshWait, 30 s) is already waiting for
// worker 1's mesh dial. The refusal must fail the attempt at once —
// not sit unread behind worker 0's Ready — and worker 0 must drop the
// orphaned session when the coordinator hangs up, so the retry finds it
// free instead of queueing behind a 30 s ghost. Same contract whether
// the workers keep a problem cache (warm) or not.
func TestBusyRefusalFailsHandshakeFast(t *testing.T) {
	for _, warm := range []bool{false, true} {
		t.Run(fmt.Sprintf("warm=%t", warm), func(t *testing.T) {
			entries := 0
			if warm {
				entries = 4
			}
			builders := chainBuilders(t, 48)
			addrs := startCacheWorkers(t, 1, entries, builders)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			busy := &busyListener{Listener: ln}
			t.Cleanup(func() { busy.Close() })
			go ServeWorker(busy, WorkerOptions{Builders: builders, CacheEntries: entries})
			spec := chainSpec(append(addrs, "tcp:"+ln.Addr().String()))

			busy.refuse.Store(1)
			spec.DialAttempts = 1
			start := time.Now()
			_, err = NewRemote(context.Background(), spec, chainGraph(t, 48))
			var we *WorkerError
			if !errors.As(err, &we) || we.Worker != 1 || we.Phase != PhaseHandshake || we.Config {
				t.Fatalf("want a transient handshake WorkerError for worker 1, got %v", err)
			}
			if el := time.Since(start); el > time.Second {
				t.Fatalf("busy refusal took %v to fail the attempt", el)
			}

			busy.refuse.Store(1)
			spec.DialAttempts = 0
			start = time.Now()
			g := chainGraph(t, 48)
			r, err := NewRemote(context.Background(), spec, g)
			if err != nil {
				t.Fatalf("retry after a busy refusal did not stand up: %v", err)
			}
			defer r.Close()
			if got := r.Stats().HandshakeRetries; got != 1 {
				t.Fatalf("HandshakeRetries = %d, want 1", got)
			}
			var nanos [admm.NumPhases]int64
			r.Iterate(g, 40, &nanos)
			if el := time.Since(start); el > 2*time.Second {
				t.Fatalf("solve behind a busy refusal took %v", el)
			}
			ref := chainGraph(t, 48)
			admm.NewSerial().Iterate(ref, 40, &nanos)
			for i := range ref.Z {
				if ref.Z[i] != g.Z[i] {
					t.Fatalf("remote diverged from serial at Z[%d]", i)
				}
			}
		})
	}
}

// TestHandshakeTimeoutAgainstSilentEndpoint: an endpoint that accepts
// and then never answers (a mistyped addr pointing at an unrelated
// server) must fail the handshake within the configured deadline with a
// typed error naming the worker and phase — not wedge forever.
func TestHandshakeTimeoutAgainstSilentEndpoint(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // hold open, never reply
		}
	}()

	g := chainGraph(t, 32)
	spec := chainSpec([]string{"tcp:" + ln.Addr().String()})
	spec.HandshakeTimeoutMS = 200
	spec.DialAttempts = 1
	start := time.Now()
	_, err = NewRemote(context.Background(), spec, g)
	if err == nil {
		t.Fatal("handshake against a silent endpoint succeeded")
	}
	var we *WorkerError
	if !errors.As(err, &we) || we.Phase != PhaseHandshake {
		t.Fatalf("error not a handshake WorkerError: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("handshake timeout took %v, configured 200ms", elapsed)
	}
}

// TestStalledStateTimeout: a connection cut mid-handshake (stalled
// instead of closed) trips the handshake deadline rather than hanging
// the coordinator. faultnet's stall plan models a half-open TCP peer.
func TestStalledStateTimeout(t *testing.T) {
	builders := chainBuilders(t, 32)
	// Stall the worker's outbound stream after its first frame (Ready):
	// the coordinator's next read of this conn blocks until its deadline.
	script := faultnet.PlanAt(0, faultnet.Plan{Out: faultnet.Cut{AfterFrames: 1, Stall: true}})
	addr, _ := startFaultWorker(t, builders, script, WorkerOptions{})

	g := chainGraph(t, 32)
	spec := chainSpec([]string{addr})
	spec.HandshakeTimeoutMS = 300
	spec.FrameTimeoutMS = 300
	spec.DialAttempts = 1
	r, err := NewRemote(context.Background(), spec, g)
	if err != nil {
		// Acceptable: the stall can already bite during handshake reads.
		var we *WorkerError
		if !errors.As(err, &we) {
			t.Fatalf("untyped handshake failure: %v", err)
		}
		return
	}
	defer r.Close()
	// Handshake got through (Ready was frame 1); the first block's Up
	// read must now hit the frame deadline instead of wedging.
	done := make(chan error, 1)
	go func() {
		var nanos [admm.NumPhases]int64
		done <- r.Iterate(g, 5, &nanos)
	}()
	select {
	case err := <-done:
		var we *WorkerError
		if !errors.As(err, &we) {
			t.Fatalf("Iterate against a stalled worker returned %v, want a *WorkerError", err)
		}
		if we.Phase != PhaseCollect && we.Phase != PhaseIterate {
			t.Fatalf("unexpected phase %q", we.Phase)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Iterate wedged on a stalled worker despite frame timeout")
	}
}

// TestProbeWorkers: live workers answer the ping protocol; dead
// endpoints and refusing listeners are reported down, all within the
// probe timeout.
func TestProbeWorkers(t *testing.T) {
	builders := chainBuilders(t, 32)
	live, _ := startFaultWorker(t, builders, faultnet.Plans(), WorkerOptions{})
	refusing, _ := startFaultWorker(t, builders, faultnet.RefuseAll(), WorkerOptions{})

	// A dead endpoint: listener opened then closed, so dials fail fast.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := "tcp:" + dead.Addr().String()
	dead.Close()

	hs := ProbeWorkers(context.Background(), []string{live, refusing, deadAddr}, 2*time.Second)
	if !hs[0].Alive {
		t.Fatalf("live worker reported down: %+v", hs[0])
	}
	if hs[0].Busy {
		t.Fatalf("idle worker reported busy: %+v", hs[0])
	}
	if hs[1].Alive || hs[2].Alive {
		t.Fatalf("dead endpoints reported alive: %+v / %+v", hs[1], hs[2])
	}
	for _, h := range hs[1:] {
		if h.Err == "" || !strings.Contains(h.Err, PhaseProbe) {
			t.Fatalf("down worker lacks a probe-phase error: %+v", h)
		}
	}
}

// TestWorkerSurvivesCoordinatorMidSolveDisconnect: a coordinator that
// vanishes mid-block (no Bye, connections torn down) must fail that
// session only — the worker cleans up and accepts the next handshake.
func TestWorkerSurvivesCoordinatorMidSolveDisconnect(t *testing.T) {
	builders := chainBuilders(t, 48)
	blockStarted := make(chan struct{})
	release := make(chan struct{})
	var once bool
	opts := WorkerOptions{OnIterBlock: func(session uint64, block int) {
		if !once {
			once = true
			close(blockStarted)
			<-release
		}
	}}
	addr, _ := startFaultWorker(t, builders, faultnet.Plans(), opts)

	g := chainGraph(t, 48)
	spec := chainSpec([]string{addr})
	r, err := NewRemote(context.Background(), spec, g)
	if err != nil {
		t.Fatal(err)
	}
	iterDone := make(chan error, 1)
	go func() {
		var nanos [admm.NumPhases]int64
		iterDone <- r.Iterate(g, 10, &nanos)
	}()
	<-blockStarted
	// Abrupt teardown: close the control connections without Bye while
	// the worker is inside the block.
	r.teardown()
	r.closed = true
	close(release)
	var we *WorkerError
	if err := <-iterDone; !errors.As(err, &we) {
		t.Fatalf("Iterate over torn-down connections returned %v, want a *WorkerError", err)
	}

	// The worker must come back: a fresh session on the same endpoint
	// handshakes and solves to the serial answer. The previous session's
	// teardown can race this handshake, which the retry budget absorbs.
	g2 := chainGraph(t, 48)
	r2, err := NewRemote(context.Background(), spec, g2)
	if err != nil {
		t.Fatalf("worker did not accept a session after mid-solve disconnect: %v", err)
	}
	defer r2.Close()
	var nanos [admm.NumPhases]int64
	r2.Iterate(g2, 10, &nanos)
	ref := chainGraph(t, 48)
	admm.NewSerialFused().Iterate(ref, 10, &nanos)
	for i := range ref.Z {
		if ref.Z[i] != g2.Z[i] {
			t.Fatalf("post-recovery solve diverged from serial at Z[%d]", i)
		}
	}
}

// TestSolveWithFailoverSurvivors: worker 2 dies mid-solve (its control
// stream is cut and its listener refuses everything afterwards, so the
// health probe sees it down); the solve must re-partition onto the two
// survivors, re-run cold, and produce the bit-identical answer of a
// clean 2-shard solve — which is the serial answer, by the determinism
// contract.
func TestSolveWithFailoverSurvivors(t *testing.T) {
	const n = 48
	builders := chainBuilders(t, n)
	w0, _ := startFaultWorker(t, builders, faultnet.Plans(), WorkerOptions{})
	w1, _ := startFaultWorker(t, builders, faultnet.Plans(), WorkerOptions{})
	// Worker 2: control conn (accept 0) cut after 2 inbound frames
	// (Cfg, State — the Iter command trips it); everything after —
	// including probes — refused.
	script := func(i int) faultnet.Plan {
		if i == 0 {
			return faultnet.Plan{In: faultnet.Cut{AfterFrames: 2}}
		}
		return faultnet.Plan{Refuse: true}
	}
	w2, _ := startFaultWorker(t, builders, script, WorkerOptions{})

	g := chainGraph(t, n)
	spec := chainSpec([]string{w0, w1, w2})
	spec.Failover = admm.FailoverSurvivors
	spec.DialTimeoutMS = 2000
	out, err := Solve(context.Background(), g, admm.SolveOptions{
		Executor: spec, MaxIter: 30,
	})
	if err != nil {
		t.Fatalf("failover solve failed: %v (trail: %v)", err, out.Failures)
	}
	if out.Failovers < 1 || out.Attempts < 2 {
		t.Fatalf("no failover recorded: %+v", out)
	}
	if out.LocalFallback {
		t.Fatalf("local fallback fired with two live workers: %+v", out)
	}
	if len(out.FinalAddrs) != 2 {
		t.Fatalf("FinalAddrs = %v, want the two survivors", out.FinalAddrs)
	}
	// The death may surface at any worker (the victim's mesh teardown
	// cascades as EOFs at its peers); the health probe — not the error —
	// is what identifies the dead endpoint. Require a trail, not a name.
	if len(out.Failures) == 0 {
		t.Fatalf("empty failure trail: %+v", out)
	}
	if !out.HasShardStats || out.ShardStats.Shards != 2 {
		t.Fatalf("shard stats not from the survivor run: %+v", out.ShardStats)
	}

	ref := chainGraph(t, n)
	if _, err := admm.Solve(ref, admm.SolveOptions{MaxIter: 30}); err != nil {
		t.Fatal(err)
	}
	for i := range ref.Z {
		if ref.Z[i] != g.Z[i] {
			t.Fatalf("recovered solve diverged from serial at Z[%d]: %g vs %g", i, g.Z[i], ref.Z[i])
		}
	}
}

// TestSolveWithFailoverLocal: with every worker dead, policy "local"
// finishes on the in-process fused executor, bit-identical to serial;
// policy "survivors" reports the dead pool instead.
func TestSolveWithFailoverLocal(t *testing.T) {
	deadAddrs := make([]string, 2)
	for i := range deadAddrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		deadAddrs[i] = "tcp:" + ln.Addr().String()
		ln.Close()
	}
	const n = 32
	g := chainGraph(t, n)
	spec := chainSpec(deadAddrs)
	spec.Failover = admm.FailoverLocal
	spec.DialTimeoutMS = 500
	spec.DialAttempts = 1
	out, err := Solve(context.Background(), g, admm.SolveOptions{
		Executor: spec, MaxIter: 25,
	})
	if err != nil {
		t.Fatalf("local-fallback solve failed: %v", err)
	}
	if !out.LocalFallback {
		t.Fatalf("local fallback not taken: %+v", out)
	}
	if out.HasShardStats || len(out.FinalAddrs) != 0 {
		t.Fatalf("local fallback carries remote artifacts: %+v", out)
	}
	ref := chainGraph(t, n)
	if _, err := admm.Solve(ref, admm.SolveOptions{MaxIter: 25}); err != nil {
		t.Fatal(err)
	}
	for i := range ref.Z {
		if ref.Z[i] != g.Z[i] {
			t.Fatalf("local fallback diverged from serial at Z[%d]", i)
		}
	}

	// Same dead pool under "survivors": a typed failure, not a wedge.
	g2 := chainGraph(t, n)
	spec.Failover = admm.FailoverSurvivors
	if _, err := Solve(context.Background(), g2, admm.SolveOptions{
		Executor: spec, MaxIter: 25,
	}); err == nil {
		t.Fatal("survivors policy succeeded with zero live workers")
	}
}

// tamperConn rewrites frames on their way out. Every frame in this
// protocol is one Write call, so the hook sees whole frames (length
// prefix, kind at [4], seq, payload) and returns what goes on the wire.
type tamperConn struct {
	net.Conn
	rewrite func(frame []byte) []byte
}

func (c *tamperConn) Write(p []byte) (int, error) {
	if _, err := c.Conn.Write(c.rewrite(p)); err != nil {
		return 0, err
	}
	return len(p), nil
}

// tamperListener wraps every accepted connection in a tamperConn.
type tamperListener struct {
	net.Listener
	rewrite func(frame []byte) []byte
}

func (l *tamperListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tamperConn{conn, l.rewrite}, nil
}

// TestRetiredFrameKindFailsBlock: kinds 3 and 4 were the delta-encoded
// data frames. A peer that still sends one mid-round must end the block
// as a typed *WorkerError — the receiving worker's recvData refuses the
// kind, runWorkerBlock recovers the fail-stop into a session error —
// and both workers must stay up for the next session.
func TestRetiredFrameKindFailsBlock(t *testing.T) {
	for _, tc := range []struct {
		name          string
		from, retired byte
	}{
		{"kind 3 in place of FrameM", exchange.FrameM, 3},
		{"kind 4 in place of FrameZ", exchange.FrameZ, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			builders := chainBuilders(t, 48)
			// Worker 0 sends its round-2 frame of the kind under test
			// with the retired kind byte, once.
			var fired atomic.Bool
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			tl := &tamperListener{ln, func(frame []byte) []byte {
				if frame[4] != tc.from || frame[5] != 2 || !fired.CompareAndSwap(false, true) {
					return frame
				}
				out := append([]byte(nil), frame...)
				out[4] = tc.retired
				return out
			}}
			t.Cleanup(func() { tl.Close() })
			go ServeWorker(tl, WorkerOptions{Builders: builders})
			spec := chainSpec(append([]string{"tcp:" + ln.Addr().String()}, startTestWorkers(t, 1, builders)...))

			g := chainGraph(t, 48)
			r, err := NewRemote(context.Background(), spec, g)
			if err != nil {
				t.Fatal(err)
			}
			var nanos [admm.NumPhases]int64
			err = r.Iterate(g, 10, &nanos)
			r.Close()
			var we *WorkerError
			if !errors.As(err, &we) || !fired.Load() {
				t.Fatalf("Iterate over a retired frame kind returned %v (tampered: %t), want a *WorkerError", err, fired.Load())
			}

			g2 := chainGraph(t, 48)
			r2, err := NewRemote(context.Background(), spec, g2)
			if err != nil {
				t.Fatalf("workers did not accept a session after the refused frame: %v", err)
			}
			defer r2.Close()
			if err := r2.Iterate(g2, 10, &nanos); err != nil {
				t.Fatal(err)
			}
			ref := chainGraph(t, 48)
			admm.NewSerialFused().Iterate(ref, 10, &nanos)
			for i := range ref.Z {
				if ref.Z[i] != g2.Z[i] {
					t.Fatalf("post-recovery solve diverged from serial at Z[%d]", i)
				}
			}
		})
	}
}

// TestRetiredDoneReplyRefused: kind 16 was Done, a block's JSON
// statistics ahead of its Up. A worker answering an Iter with it is
// refused as an unexpected frame: Iterate returns a *WorkerError naming
// that worker in the collect phase, and the coordinator's graph keeps
// the state it had.
func TestRetiredDoneReplyRefused(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tl := &tamperListener{ln, func(frame []byte) []byte {
		if frame[4] != exchange.FrameUp {
			return frame
		}
		out := append([]byte(nil), frame...)
		out[4] = 16
		return out
	}}
	t.Cleanup(func() { tl.Close() })
	go ServeWorker(tl, WorkerOptions{Builders: chainBuilders(t, 48)})

	g := chainGraph(t, 48)
	before := append([]float64(nil), g.Z...)
	r, err := NewRemote(context.Background(), chainSpec([]string{"tcp:" + ln.Addr().String()}), g)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var nanos [admm.NumPhases]int64
	err = r.Iterate(g, 10, &nanos)
	var we *WorkerError
	if !errors.As(err, &we) || we.Worker != 0 || we.Phase != PhaseCollect || !strings.Contains(err.Error(), "unexpected frame kind 16") {
		t.Fatalf("a kind-16 reply: got %v, want a collect-phase *WorkerError naming the unexpected kind", err)
	}
	for i := range before {
		if g.Z[i] != before[i] {
			t.Fatalf("Z[%d] changed to %g after a refused reply", i, g.Z[i])
		}
	}
}

// TestSilentOpenerDropped: a client that connects, writes only a frame
// header declaring MaxFrameLen and then says nothing is dropped once the
// worker's handshake budget (MeshWait) runs out — its read ends in EOF,
// well before its own 1 s deadline. So are 50 clients that connect and
// send nothing at all, and the worker's goroutines drain back to their
// count before the idle clients came. A normal session on the same
// worker afterwards matches Serial bit for bit.
func TestSilentOpenerDropped(t *testing.T) {
	builders := chainBuilders(t, 48)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go ServeWorker(ln, WorkerOptions{Builders: builders, MeshWait: 200 * time.Millisecond})
	dial := func() net.Conn {
		t.Helper()
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		c.SetReadDeadline(time.Now().Add(time.Second))
		return c
	}
	dropped := func(c net.Conn, what string) {
		t.Helper()
		if _, err := c.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("%s's read ended with %v, want EOF: the worker kept the connection", what, err)
		}
	}

	silent := dial()
	if _, err := silent.Write([]byte{0, 0, 0, 0x10}); err != nil { // length MaxFrameLen
		t.Fatal(err)
	}
	dropped(silent, "stalled opener")

	time.Sleep(50 * time.Millisecond)
	baseline := runtime.NumGoroutine()
	idle := make([]net.Conn, 50)
	for i := range idle {
		idle[i] = dial()
	}
	for _, c := range idle {
		dropped(c, "idle opener")
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the idle openers were dropped, %d before they came", runtime.NumGoroutine(), baseline)
		}
	}

	spec := chainSpec(append([]string{"tcp:" + ln.Addr().String()}, startTestWorkers(t, 1, builders)...))
	g := chainGraph(t, 48)
	r, err := NewRemote(context.Background(), spec, g)
	if err != nil {
		t.Fatalf("worker refused a session after dropping the silent opener: %v", err)
	}
	defer r.Close()
	var nanos [admm.NumPhases]int64
	if err := r.Iterate(g, 10, &nanos); err != nil {
		t.Fatal(err)
	}
	ref := chainGraph(t, 48)
	admm.NewSerialFused().Iterate(ref, 10, &nanos)
	for i := range ref.Z {
		if ref.Z[i] != g.Z[i] {
			t.Fatalf("session after the silent opener diverged from serial at Z[%d]", i)
		}
	}
}

// TestWorkerErrorShape pins the error type's contract: message naming
// worker/addr/phase, and Unwrap exposing the cause.
func TestWorkerErrorShape(t *testing.T) {
	cause := fmt.Errorf("connection refused")
	we := &WorkerError{Worker: 2, Addr: "tcp:10.0.0.2:9000", Phase: PhaseDial, Err: cause}
	msg := we.Error()
	for _, want := range []string{"worker 2", "tcp:10.0.0.2:9000", "dial", "connection refused"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error %q missing %q", msg, want)
		}
	}
	if !errors.Is(we, cause) {
		t.Fatal("Unwrap does not expose the cause")
	}
}
