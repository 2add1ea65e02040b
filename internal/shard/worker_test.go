package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/admm"
	"repro/internal/exchange"
)

// startWorker hosts one in-process worker on a loopback TCP listener
// and returns its addr, the listener, and ServeWorker's result.
func startWorker(t testing.TB, opts WorkerOptions) (string, net.Listener, <-chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	done := make(chan error, 1)
	go func() { done <- ServeWorker(ln, opts) }()
	return "tcp:" + ln.Addr().String(), ln, done
}

// dialFrame opens a connection to the worker and writes one frame on it.
func dialFrame(t testing.TB, addr string, kind byte, payload []byte) net.Conn {
	t.Helper()
	conn, err := DialAddr(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := exchange.WriteFrame(conn, kind, 0, payload); err != nil {
		t.Fatal(err)
	}
	return conn
}

// readFrameKind reads one frame past any Tick — or the next Tick, when
// kind is FrameTick — and requires the given kind; a FrameErr is
// surfaced as the remote side's error message.
func readFrameKind(r io.Reader, buf []byte, kind byte) (exchange.Frame, []byte, error) {
	for {
		f, buf, err := exchange.ReadFrame(r, buf)
		switch {
		case err != nil:
			return f, buf, err
		case f.Kind == exchange.FrameTick && kind != exchange.FrameTick:
			continue
		case f.Kind == exchange.FrameErr:
			return f, buf, &remoteError{msg: string(f.Payload)}
		case f.Kind != kind:
			return f, buf, fmt.Errorf("shard: unexpected frame kind %d, want %d", f.Kind, kind)
		}
		return f, buf, nil
	}
}

func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkPing demands the worker answer a health probe within 2 s.
func checkPing(t testing.TB, addr string) WorkerHealth {
	t.Helper()
	h := ProbeWorkers(context.Background(), []string{addr}, 2*time.Second)[0]
	if !h.Alive {
		t.Fatalf("worker no longer answers Ping: %+v", h)
	}
	return h
}

// checkCleanSession runs a one-worker chain session of n variables
// against addr and demands Serial's iterates bit for bit, once the
// worker has drained earlier sessions.
func checkCleanSession(t testing.TB, addr string, n int) {
	t.Helper()
	awaitIdle(t, []string{addr}, 15*time.Second)
	g := chainGraph(t, n)
	r, err := NewRemote(context.Background(), chainSpec([]string{addr}), g)
	if err != nil {
		t.Fatalf("clean session refused: %v", err)
	}
	defer r.Close()
	var nanos [admm.NumPhases]int64
	if err := r.Iterate(g, 10, &nanos); err != nil {
		t.Fatal(err)
	}
	ref := chainGraph(t, n)
	admm.NewSerialFused().Iterate(ref, 10, &nanos)
	for i := range ref.Z {
		if ref.Z[i] != g.Z[i] {
			t.Fatalf("clean session diverged from serial at Z[%d]: %g vs %g", i, g.Z[i], ref.Z[i])
		}
	}
}

// TestHostileShardCountRefused: a Cfg whose shape no session can have —
// a negative shard count, one whose peer channel alone would not fit in
// memory, one past admm.MaxShards, a worker index out of range, a peer
// list of the wrong length — or that carries the retired
// frame_timeout_ms key, whatever its value, is answered with FrameErr on
// the accept loop, before anything is sized by it, and the worker then
// serves a clean session bit-identical to Serial.
func TestHostileShardCountRefused(t *testing.T) {
	addr, _, _ := startWorker(t, WorkerOptions{Builders: chainBuilders(t, 48)})
	peers := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = addr
		}
		return out
	}
	for _, tc := range []struct {
		cfg          wireConfig
		frameTimeout string // a retired frame_timeout_ms value to splice in
	}{
		{cfg: wireConfig{Shards: -1}},
		{cfg: wireConfig{Shards: 1 << 40}},
		{cfg: wireConfig{Shards: admm.MaxShards + 1, Peers: peers(admm.MaxShards + 1)}},
		{cfg: wireConfig{Shards: 2, Worker: 2, Peers: peers(2)}},
		{cfg: wireConfig{Shards: 2, Worker: -1, Peers: peers(2)}},
		{cfg: wireConfig{Shards: 2, Peers: peers(3)}},
		{cfg: wireConfig{Shards: 1, Peers: peers(1)}, frameTimeout: "-1"},
		{cfg: wireConfig{Shards: 1, Peers: peers(1)}, frameTimeout: "5000"},
		{cfg: wireConfig{Shards: 1, Peers: peers(1)}, frameTimeout: "1e13"},
	} {
		cfg := tc.cfg
		cfg.Session, cfg.Workload, cfg.Spec = 7, "chain", []byte(`{}`)
		payload := mustJSON(t, cfg)
		if tc.frameTimeout != "" {
			payload = append([]byte(`{"frame_timeout_ms":`+tc.frameTimeout+`,`), payload[1:]...)
		}
		conn := dialFrame(t, addr, exchange.FrameCfg, payload)
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		_, _, err := readFrameKind(conn, nil, exchange.FrameReady)
		var re *remoteError
		if !errors.As(err, &re) || re.transient() || tc.frameTimeout != "" && !strings.Contains(re.msg, `unknown field "frame_timeout_ms"`) {
			t.Fatalf("worker %d of %d shards, %d peers, frame_timeout_ms %q: got %v, want a FrameErr refusal", cfg.Worker, cfg.Shards, len(cfg.Peers), tc.frameTimeout, err)
		}
		conn.Close()
	}
	checkCleanSession(t, addr, 48)
}

// TestRetiredOpenerKindsRefused: kinds 22 and 23, the retired
// CacheProbe opener and its CacheAck, open nothing — the worker answers
// FrameErr and serves the next session as usual.
func TestRetiredOpenerKindsRefused(t *testing.T) {
	addr, _, _ := startWorker(t, WorkerOptions{Builders: chainBuilders(t, 16)})
	for _, kind := range []byte{22, 23} {
		conn := dialFrame(t, addr, kind, []byte(`{}`))
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, _, err := readFrameKind(conn, nil, exchange.FrameReady); !errors.As(err, new(*remoteError)) {
			t.Fatalf("kind %d opener: got %v, want a FrameErr refusal", kind, err)
		}
	}
	checkCleanSession(t, addr, 16)
}

// TestSurplusMeshHellosDoNotWedgeWorker: a session takes one mesh hello
// per peer, and hellos past that — more than its shard count carrying
// the live session id — are closed instead of blocking the accept loop:
// the worker still answers Ping mid-session and the session finishes
// bit-identical to Serial. Hellos for sessions that have not started
// are parked at most admm.MaxShards deep; one more closes one of them.
func TestSurplusMeshHellosDoNotWedgeWorker(t *testing.T) {
	addr, _, _ := startWorker(t, WorkerOptions{Builders: chainBuilders(t, 48)})
	g := chainGraph(t, 48)
	r, err := NewRemote(context.Background(), chainSpec([]string{addr}), g)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 3; i++ {
		dialFrame(t, addr, exchange.FramePeer, mustJSON(t, wirePeer{Session: r.session}))
	}
	if h := checkPing(t, addr); !h.Busy {
		t.Fatalf("worker mid-session reports idle: %+v", h)
	}

	parked := make([]net.Conn, admm.MaxShards+1)
	for i := range parked {
		parked[i] = dialFrame(t, addr, exchange.FramePeer, mustJSON(t, wirePeer{Session: r.session + 1}))
	}
	eofs := make(chan struct{}, len(parked))
	for _, c := range parked {
		go func() {
			c.SetReadDeadline(time.Now().Add(2 * time.Second))
			if _, err := c.Read(make([]byte, 1)); err == io.EOF {
				eofs <- struct{}{}
			}
		}()
	}
	select {
	case <-eofs:
	case <-time.After(2 * time.Second):
		t.Fatalf("none of %d parked hellos was closed (the bound is %d)", len(parked), admm.MaxShards)
	}
	select {
	case <-eofs:
		t.Fatalf("two of %d parked hellos were closed, want one (the bound is %d)", len(parked), admm.MaxShards)
	case <-time.After(100 * time.Millisecond):
	}
	checkPing(t, addr)

	var nanos [admm.NumPhases]int64
	if err := r.Iterate(g, 10, &nanos); err != nil {
		t.Fatal(err)
	}
	ref := chainGraph(t, 48)
	admm.NewSerialFused().Iterate(ref, 10, &nanos)
	for i := range ref.Z {
		if ref.Z[i] != g.Z[i] {
			t.Fatalf("session diverged from serial at Z[%d]", i)
		}
	}
}

// TestWorkerSessionTable drives one worker into each state of
// runSession's table — mesh-wait (worker 0 of 2, whose peer never
// dials), await-state (a state-digest miss), ready (after a State push)
// and running (worker 1 of 2 inside a block, waiting on a peer 0 that
// takes its mesh dial and never answers) — and sends every frame kind
// there. The five pairs the table lists act — await-state × State and
// Bye, ready × Iter (one Up comes back) and Bye, running × Bye; every
// other pair, a second State and the retired kinds 15 (Params) and 16
// (Done) included, is answered within 1 s by a FrameErr naming the kind
// and the state, and the worker then serves a clean session. A running
// worker first says, in a Tick, that it waits on peer 0, and any frame
// closes its mesh.
func TestWorkerSessionTable(t *testing.T) {
	const n = 16
	shrinkLiveness(t, 20*time.Millisecond, 5*time.Second)
	addr, _, _ := startWorker(t, WorkerOptions{Builders: chainBuilders(t, n), CacheEntries: 2})
	g := chainGraph(t, n)
	var session uint64
	var mesh net.Conn // peer 0's end of the running worker's mesh
	open := func(t *testing.T, state string) net.Conn {
		session++
		cfg := wireConfig{Session: session, Shards: 1, Workload: "chain", Spec: []byte(`{}`), Peers: []string{addr}, StateDigest: "0000000000000000"}
		var peer0 net.Listener
		switch state {
		case stateMeshWait:
			cfg.Shards, cfg.Peers = 2, []string{addr, addr}
		case stateRunning:
			var err error
			if peer0, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			defer peer0.Close()
			cfg.Shards, cfg.Worker, cfg.Peers = 2, 1, []string{"tcp:" + peer0.Addr().String(), addr}
		}
		conn := dialFrame(t, addr, exchange.FrameCfg, mustJSON(t, cfg))
		if state == stateMeshWait {
			return conn
		}
		if state == stateRunning {
			var err error
			if mesh, err = peer0.Accept(); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { mesh.Close() })
			mesh.SetDeadline(time.Now().Add(5 * time.Second))
			if _, _, err := readFrameKind(mesh, nil, exchange.FramePeer); err != nil {
				t.Fatal(err)
			}
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		f, _, err := readFrameKind(conn, nil, exchange.FrameReady)
		var ready wireReady
		if err == nil {
			err = decodeJSONFrame(f, &ready)
		}
		if err != nil || ready.Hit == CacheState || state == stateAwaitState && ready.Hit != CacheGraph {
			t.Fatalf("opening a session for %s: hit %q, err %v", state, ready.Hit, err)
		}
		if state == stateReady || state == stateRunning {
			if err := exchange.WriteFrame(conn, exchange.FrameState, 0, appendState(nil, g)); err != nil {
				t.Fatal(err)
			}
		}
		if state == stateRunning {
			if err := writeJSONFrame(conn, exchange.FrameIter, wireIter{Iters: 1}); err != nil {
				t.Fatal(err)
			}
			// Past any Tick of the install, which computes (peer -1).
			peer := -1
			for peer < 0 && err == nil {
				f, _, err = readFrameKind(conn, nil, exchange.FrameTick)
				if err == nil {
					peer, _, err = decodeTick(f.Payload, 1, 2)
				}
			}
			if err == nil && peer != 0 {
				err = fmt.Errorf("tick names peer %d, want 0", peer)
			}
			if err != nil {
				t.Fatalf("a running worker's Tick: %v", err)
			}
		}
		return conn
	}
	// reply reads the worker's answer, past any Tick still in flight.
	reply := func(conn net.Conn) (exchange.Frame, error) {
		for {
			f, _, err := exchange.ReadFrame(conn, nil)
			if err != nil || f.Kind != exchange.FrameTick {
				return f, err
			}
		}
	}
	kinds := []struct {
		kind    byte
		payload []byte
	}{
		{exchange.FrameCfg, mustJSON(t, wireConfig{Session: 1 << 20, Shards: 1, Workload: "chain", Spec: []byte(`{}`), Peers: []string{addr}})},
		{exchange.FramePeer, mustJSON(t, wirePeer{Session: 1, From: 1})},
		{exchange.FrameReady, mustJSON(t, wireReady{})},
		{exchange.FrameState, []byte{1, 2, 3}}, // the wrong length
		{15, make([]byte, 8*(len(g.Rho)+len(g.U)))},
		{exchange.FrameIter, mustJSON(t, wireIter{Iters: 1, Edit: encodeEdit(admm.Edit{Flush: true})})},
		{16, []byte(`{}`)}, // the retired Done
		{exchange.FrameUp, nil},
		{exchange.FrameErr, []byte("boom")},
		{exchange.FramePing, nil},
		{exchange.FramePong, mustJSON(t, wirePong{})},
		{exchange.FrameM, nil},
		{exchange.FrameZ, nil},
		{exchange.FrameTick, appendTick(nil, -1, 0)},
		{3, nil}, {4, nil}, {22, []byte(`{}`)}, {23, []byte(`{}`)},
		{99, nil},
		{exchange.FrameBye, nil},
	}
	// ready runs before await-state: its State pushes fill the cache, so
	// every await-state session is a graph-tier hit whose digest misses.
	// The running sessions (two shards) keep the other cache entry.
	for _, state := range []string{stateMeshWait, stateReady, stateRunning, stateAwaitState} {
		for _, k := range kinds {
			t.Run(fmt.Sprintf("%s/kind-%d", state, k.kind), func(t *testing.T) {
				conn := open(t, state)
				if _, err := conn.Write(exchange.AppendFrame(nil, k.kind, 0, k.payload)); err != nil {
					t.Fatal(err)
				}
				conn.SetReadDeadline(time.Now().Add(time.Second))
				f, err := reply(conn)
				if state == stateRunning {
					// The frame closed the mesh: peer 0 reads the
					// worker's first sends, then EOF.
					if _, err := io.Copy(io.Discard, mesh); err != nil {
						t.Fatalf("running worker's mesh after kind %d: %v, want EOF", k.kind, err)
					}
				}
				listed := state == stateAwaitState && k.kind == exchange.FrameState ||
					state == stateReady && k.kind == exchange.FrameIter ||
					state != stateMeshWait && k.kind == exchange.FrameBye
				want := fmt.Sprintf("frame kind %d in state %s", k.kind, state)
				switch {
				case !listed:
				case k.kind == exchange.FrameBye:
					if err != io.EOF {
						t.Fatalf("Bye: got kind %d, err %v; want the session to end", f.Kind, err)
					}
					return
				case k.kind == exchange.FrameState:
					want = "state payload"
				default: // Iter: one block runs
					if err != nil || f.Kind != exchange.FrameUp {
						t.Fatalf("got kind %d %q, err %v; want Up", f.Kind, f.Payload, err)
					}
					return
				}
				if err != nil || f.Kind != exchange.FrameErr || !strings.Contains(string(f.Payload), want) {
					t.Fatalf("got kind %d %q, err %v; want a FrameErr naming %q", f.Kind, f.Payload, err, want)
				}
			})
		}
	}
	checkCleanSession(t, addr, n)
}

// TestListenerCloseEndsQueuedOpener: a session runs, a second opener
// queues behind it (a third is refused as busy), and the worker's
// listener closes. ServeWorker lets the running session finish, then
// hangs up on the queued opener before it returns: that coordinator
// reads EOF (or an Err) as soon as the first session ends, instead of
// waiting on a worker that is gone.
func TestListenerCloseEndsQueuedOpener(t *testing.T) {
	const n = 16
	addr, ln, served := startWorker(t, WorkerOptions{Builders: chainBuilders(t, n)})
	g := chainGraph(t, n)
	r, err := NewRemote(context.Background(), chainSpec([]string{addr}), g)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	cfg := mustJSON(t, wireConfig{Session: 1 << 20, Shards: 1, Workload: "chain", Spec: []byte(`{}`), Peers: []string{addr}})
	replies := make(chan error, 2)
	for range 2 {
		conn := dialFrame(t, addr, exchange.FrameCfg, cfg)
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		go func() {
			_, _, err := readFrameKind(conn, nil, exchange.FrameReady)
			replies <- err
		}()
	}
	var re *remoteError
	if err := <-replies; !errors.As(err, &re) || !re.transient() {
		t.Fatalf("one of two openers behind a running session: %v, want a busy refusal", err)
	}
	ln.Close()
	// Nothing outside ServeWorker shows that its loop has seen the
	// listener close; it does so at once, with no session event pending.
	time.Sleep(200 * time.Millisecond)
	start := time.Now()
	r.Close()
	if err := <-replies; err != io.EOF && !errors.As(err, &re) || time.Since(start) > time.Second {
		t.Fatalf("the queued opener read %v %v after the session ended, want EOF or an Err at once", err, time.Since(start))
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("ServeWorker: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeWorker did not return after its listener closed")
	}
}

// TestWorkerIterRoundAllocs: a session's Iter rounds, each carrying an
// edit to replay (the flush and a rescale) and each answered by one Up
// frame, allocate under 16 KiB on the worker after two warm-up rounds,
// though each round uploads the whole 4096-variable chain's owned
// state: the worker builds its Up frame, statistics header included, in
// place and replays the edit on its own arrays.
func TestWorkerIterRoundAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation count over a live session")
	}
	const n, rounds = 4096, 20
	addr, _, _ := startWorker(t, WorkerOptions{Builders: chainBuilders(t, n)})
	g := chainGraph(t, n)
	cfg := wireConfig{Session: 1, Shards: 1, Workload: "chain", Spec: []byte(`{}`), Peers: []string{addr}}
	conn := dialFrame(t, addr, exchange.FrameCfg, mustJSON(t, cfg))
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	buf := make([]byte, 0, 1<<20)
	var err error
	if _, buf, err = readFrameKind(conn, buf, exchange.FrameReady); err != nil {
		t.Fatal(err)
	}
	if err := exchange.WriteFrame(conn, exchange.FrameState, 0, appendState(nil, g)); err != nil {
		t.Fatal(err)
	}
	edit := admm.Edit{Flush: true, Rescale: admm.Rescale{Factor: 1, Min: 1e-6, Max: 1e6}}
	iter := exchange.AppendFrame(nil, exchange.FrameIter, 0, mustJSON(t, wireIter{Iters: 1, Edit: encodeEdit(edit)}))
	var before, after runtime.MemStats
	for i := range rounds + 2 {
		if i == 2 {
			runtime.ReadMemStats(&before)
		}
		if _, err := conn.Write(iter); err != nil {
			t.Fatal(err)
		}
		if _, buf, err = readFrameKind(conn, buf, exchange.FrameUp); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perRound := (after.TotalAlloc - before.TotalAlloc) / rounds
	t.Logf("per Iter round: %d B", perRound)
	if perRound >= 16<<10 {
		t.Fatalf("an Iter round allocated %d B, want under 16 KiB: the Up frame is copied", perRound)
	}
}

// TestWorkerRefusesMalformedEdit: an Iter's edit comes from outside the
// worker, so one adaptRho could not have made — a NaN, ±Inf, zero,
// negative or subnormal factor, a bound at or below zero, a floor above
// the ceiling, a rescale of the wrong length — is refused with a
// FrameErr before the block runs.
func TestWorkerRefusesMalformedEdit(t *testing.T) {
	const n = 16
	addr, _, _ := startWorker(t, WorkerOptions{Builders: chainBuilders(t, n)})
	g := chainGraph(t, n)
	for i, w := range malformedEdits {
		cfg := wireConfig{Session: uint64(i + 1), Shards: 1, Workload: "chain", Spec: []byte(`{}`), Peers: []string{addr}}
		conn := dialFrame(t, addr, exchange.FrameCfg, mustJSON(t, cfg))
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		if _, _, err := readFrameKind(conn, nil, exchange.FrameReady); err != nil {
			t.Fatal(err)
		}
		raw := exchange.AppendFrame(nil, exchange.FrameState, 0, appendState(nil, g))
		raw = exchange.AppendFrame(raw, exchange.FrameIter, 0, mustJSON(t, wireIter{Iters: 1, Edit: w}))
		if _, err := conn.Write(raw); err != nil {
			t.Fatal(err)
		}
		f, _, err := exchange.ReadFrame(conn, nil)
		if err != nil || f.Kind != exchange.FrameErr || !strings.Contains(string(f.Payload), "edit") {
			t.Fatalf("edit %v: got kind %d %q, err %v; want a FrameErr naming the edit", w.Rescale, f.Kind, f.Payload, err)
		}
		conn.Close()
	}
	checkCleanSession(t, addr, n)
}

// wellFormedEdits are Iter edits a Run makes: none, the flush, and the
// flush with a rescale up, down, and against an open ceiling.
var wellFormedEdits = []wireEdit{
	{},
	encodeEdit(admm.Edit{Flush: true}),
	encodeEdit(admm.Edit{Flush: true, Rescale: admm.Rescale{Factor: 2, Min: 1e-6, Max: 1e6}}),
	encodeEdit(admm.Edit{Flush: true, Rescale: admm.Rescale{Factor: 0.5, Min: 1, Max: math.Inf(1)}}),
}

// malformedEdits are Iter edits no Run makes.
var malformedEdits = func() []wireEdit {
	nan, inf := math.NaN(), math.Inf(1)
	var out []wireEdit
	for _, r := range []admm.Rescale{
		{Factor: nan, Min: 1, Max: 2},
		{Factor: inf, Min: 1, Max: 2},
		{Factor: -inf, Min: 1, Max: 2},
		{Factor: 0, Min: 1, Max: 2},
		{Factor: -2, Min: 1, Max: 2},
		{Factor: 5e-324, Min: 1, Max: 2},
		{Factor: 2, Min: 0, Max: 2},
		{Factor: 2, Min: -1, Max: 2},
		{Factor: 2, Min: 1, Max: -1},
		{Factor: 2, Min: 3, Max: 2},
		{Factor: 2, Min: nan, Max: 2},
		{Factor: 2, Min: 1, Max: nan},
	} {
		out = append(out, encodeEdit(admm.Edit{Flush: true, Rescale: r}))
	}
	return append(out, wireEdit{Rescale: []uint64{math.Float64bits(2)}})
}()

// Op codes of a FuzzWorkerSession input: five bytes per op, [code,
// conn, x, y, z]. conn%4 picks one of three persistent connections (a
// closed one is redialed) or, for 3, a fresh one-shot connection; on an
// opCfg, conn>>2&3 = 1..3 splices in the retired frame_timeout_ms key
// (-1, 5000 or 1e13 ms), which the worker refuses as unknown.
const (
	opCfg = iota
	opState
	opIter
	opPeer
	opPing
	opBye
	opRetired
	opHeader
	opClose
	opRaw
	numOps
)

// fuzzChainVars sizes the fuzzed worker's chain problem.
const fuzzChainVars = 16

// FuzzWorkerSession drives one in-process worker with a fuzzed
// sequence of frames: openers with fuzzed shape, workload, spec, state
// digest and peers, some carrying a retired key; State of fuzzed
// lengths; Iter, also
// before any State, carrying edits well-formed and malformed; mesh
// hellos; Ping; Bye; the retired kinds 3, 4, 15, 16, 22 and 23; a bare
// header declaring MaxFrameLen; and frames of any kind.
// Whatever the sequence, the worker must still answer Ping, then serve
// a clean session bit-identical to Serial, and once its listener
// closes, leave no goroutine behind. Peer addresses are the worker's own
// or a socket nobody listens on, so nothing leaves the machine. A
// session still running a block when the fuzzer hangs up closes its
// mesh and ends (the running row of runSession's table).
func FuzzWorkerSession(f *testing.F) {
	op := func(code, conn, x, y, z byte) []byte { return []byte{code, conn, x, y, z} }
	seq := func(ops ...[]byte) []byte { return bytes.Join(ops, nil) }
	// A negative shard count, and one too large to allocate for.
	f.Add(seq(op(opCfg, 0, 0xff, 0, 0), op(opCfg, 3, 0x80, 0, 0)))
	// Surplus mesh hellos for the live one-worker session.
	f.Add(seq(op(opCfg, 0, 1, 0, 0), op(opPeer, 3, 0, 0, 0), op(opPeer, 3, 0, 0, 0), op(opPeer, 3, 0, 0, 0)))
	// TestSilentOpenerDropped's header, then a session behind it.
	f.Add(seq(op(opHeader, 3, 0, 0, 0), op(opCfg, 0, 1, 0, 0), op(opState, 0, 1, 0, 0), op(opIter, 0, 2, 0, 0)))
	// A second Cfg mid-session.
	f.Add(seq(op(opCfg, 0, 1, 0, 0), op(opState, 0, 1, 0, 0), op(opIter, 0, 2, 1, 0), op(opCfg, 0, 1, 0, 0)))
	// Iter before State; retired kinds as openers and mid-session.
	f.Add(seq(op(opCfg, 0, 1, 0, 0), op(opIter, 0, 1, 0, 0), op(opRetired, 3, 3, 0, 0), op(opRetired, 3, 4, 0, 0),
		op(opCfg, 1, 1, 0, 0), op(opState, 1, 1, 0, 0), op(opRetired, 1, 0, 0, 0)))
	// A two-worker session that dials itself for its mesh, State of the
	// wrong length, the retired Params kind, Bye.
	f.Add(seq(op(opCfg, 0, 2, 1, 0), op(opState, 0, 0, 3, 5), op(opCfg, 1, 2, 0, 1), op(opRetired, 1, 2, 8, 0), op(opBye, 1, 0, 0, 0)))
	// The retired Params kind before State, then Iter; a second State
	// mid-session.
	f.Add(seq(op(opCfg, 0, 1, 0, 0), op(opRetired, 0, 2, 15, 7), op(opIter, 0, 1, 0, 0)))
	f.Add(seq(op(opCfg, 0, 1, 0, 0), op(opState, 0, 1, 0, 0), op(opIter, 0, 1, 0, 1), op(opState, 0, 1, 0, 0)))
	// Iters carrying well-formed edits, then each malformed one.
	f.Add(seq(op(opCfg, 0, 1, 0, 0), op(opState, 0, 1, 0, 0), op(opIter, 0, 2, 0, 1), op(opIter, 0, 1, 1, 2), op(opIter, 0, 1, 0, 3)))
	for k := range malformedEdits {
		f.Add(seq(op(opCfg, 0, 1, 0, 0), op(opState, 0, 1, 0, 0), op(opIter, 0, 1, 0, byte(len(wellFormedEdits)+k))))
	}
	// State before Ready: worker 0 of 2 waits for a peer that never dials.
	f.Add(seq(op(opCfg, 0, 2, 0, 0), op(opState, 0, 1, 0, 0)))
	// One-shot openers carrying each retired frame timeout, then a
	// session.
	f.Add(seq(op(opCfg, 1<<2|3, 1, 0, 0), op(opCfg, 2<<2|3, 1, 0, 0), op(opCfg, 3<<2|3, 1, 0, 0),
		op(opCfg, 0, 1, 0, 0), op(opState, 0, 1, 0, 0), op(opIter, 0, 2, 0, 1)))
	// Mesh hellos from -1, from the session's own index, and from its
	// shard count.
	f.Add(seq(op(opCfg, 0, 2, 0, 0), op(opPeer, 3, 0, 0xff, 0), op(opPeer, 3, 0, 0, 0), op(opPeer, 3, 0, 2, 0)))
	// The shrunk bound drops a stalled opener within 200 ms; a session
	// waiting for its mesh ends when the fuzzer hangs up.
	shrinkLiveness(f, 20*time.Millisecond, 200*time.Millisecond)
	f.Fuzz(func(t *testing.T, data []byte) {
		baseline := runtime.NumGoroutine()
		dir := t.TempDir()
		addr, ln, served := startWorker(t, WorkerOptions{
			Builders:     chainBuilders(t, fuzzChainVars),
			CacheEntries: 2,
		})
		g := chainGraph(t, fuzzChainVars)
		stateLen := stateWords(g) * 8

		var conns [3]net.Conn
		var oneShot []net.Conn
		closeAll := func() {
			for _, c := range append(conns[:], oneShot...) {
				if c != nil {
					c.Close()
				}
			}
			conns, oneShot = [3]net.Conn{}, nil
		}
		defer closeAll()
		dial := func() net.Conn {
			c, err := DialAddr(context.Background(), addr)
			if err != nil {
				t.Fatal(err)
			}
			go io.Copy(io.Discard, c) // the worker's replies
			return c
		}
		connFor := func(i byte) net.Conn {
			if i%4 == 3 {
				c := dial()
				oneShot = append(oneShot, c)
				return c
			}
			if conns[i%4] == nil {
				conns[i%4] = dial()
			}
			return conns[i%4]
		}
		send := func(c net.Conn, raw []byte) {
			c.SetWriteDeadline(time.Now().Add(time.Second))
			c.Write(raw) // the worker may already have hung up
		}
		sized := func(exact bool, n, exactLen int, fill byte) []byte {
			if exact {
				n = exactLen
			}
			return bytes.Repeat([]byte{fill}, n)
		}

		const maxOps = 32
		for k := 0; k+5 <= len(data) && k < 5*maxOps; k += 5 {
			code, ci, x, y, z := data[k]%numOps, data[k+1], data[k+2], data[k+3], data[k+4]
			var frame []byte
			switch code {
			case opCfg:
				shards := int(int8(x))
				if x == 0x80 {
					shards = 1 << 40
				}
				cfg := wireConfig{
					Session:  uint64(z&3) + 1,
					Worker:   int(int8(y)) % 4,
					Workload: "chain",
					Spec:     []byte(`{}`),
				}
				peer := addr
				if z&0x08 != 0 {
					peer = "unix:" + dir + "/nobody.sock"
				}
				npeers := min(max(shards, 0), admm.MaxShards+1)
				if z&0x04 != 0 {
					npeers = int(z>>4) & 3
				}
				for range npeers {
					cfg.Peers = append(cfg.Peers, peer)
				}
				cfg.Shards = shards
				if z&0x10 != 0 {
					cfg.Spec = []byte(`{"n":1}`)
				}
				if z&0x20 != 0 {
					cfg.Workload = "nope"
				}
				if z&0x40 != 0 {
					cfg.StateDigest = "0000000000000000"
				}
				payload := mustJSON(t, cfg)
				if ms := []string{"", "-1", "5000", "1e13"}[ci>>2&3]; ms != "" {
					payload = append([]byte(`{"frame_timeout_ms":`+ms+`,`), payload[1:]...)
				}
				frame = exchange.AppendFrame(nil, exchange.FrameCfg, 0, payload)
			case opState:
				frame = exchange.AppendFrame(nil, exchange.FrameState, 0, sized(x&1 != 0, int(y)*8+int(z&7), stateLen, y))
			case opIter:
				edits := append(wellFormedEdits[:len(wellFormedEdits):len(wellFormedEdits)], malformedEdits...)
				cmd := wireIter{Iters: int(int8(x)) % 4, ZPrev: y&1 != 0, Edit: edits[int(z)%len(edits)]}
				frame = exchange.AppendFrame(nil, exchange.FrameIter, 0, mustJSON(t, cmd))
			case opPeer:
				frame = exchange.AppendFrame(nil, exchange.FramePeer, 0, mustJSON(t, wirePeer{Session: uint64(x&3) + 1, From: int(int8(y))}))
			case opPing:
				frame = exchange.AppendFrame(nil, exchange.FramePing, 0, nil)
			case opBye:
				frame = exchange.AppendFrame(nil, exchange.FrameBye, 0, nil)
			case opRetired:
				frame = exchange.AppendFrame(nil, []byte{3, 4, 15, 22, 23, 16}[x%6], 0, bytes.Repeat([]byte{z}, int(y&15)))
			case opHeader:
				frame = []byte{0, 0, 0, 0x10} // length MaxFrameLen, and nothing after it
			case opClose:
				if c := conns[ci%3]; c != nil {
					c.Close()
					conns[ci%3] = nil
				}
				continue
			case opRaw:
				frame = exchange.AppendFrame(nil, x, 0, bytes.Repeat([]byte{z}, int(y)))
			}
			send(connFor(ci), frame)
		}

		checkPing(t, addr)
		closeAll()
		checkCleanSession(t, addr, fuzzChainVars)

		ln.Close()
		select {
		case err := <-served:
			if err != nil {
				t.Fatalf("ServeWorker: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("ServeWorker did not return after its listener closed")
		}
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(10 * time.Millisecond) {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Fatalf("%d goroutines, baseline %d:\n%s", runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
			}
		}
	})
}
