package shard

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/admm"
	"repro/internal/exchange"
	"repro/internal/faultnet"
	"repro/internal/gpusim"
	"repro/internal/graph"
	"repro/internal/lasso"
	"repro/internal/mpc"
	"repro/internal/packing"
	"repro/internal/prox"
	"repro/internal/svm"
)

// transportWorkloads builds one instance of each domain. Every one has
// a real boundary under the balanced split at 4 shards: the consensus
// stars (lasso, svm) cut at their hub, the chain and the packing clique
// along their geometry.
func transportWorkloads(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	out := map[string]*graph.Graph{}
	lp, err := lasso.FromSpec(lasso.Spec{M: 128, Lambda: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	lp.Graph.InitZero()
	out["lasso"] = lp.Graph
	sp, err := svm.FromSpec(svm.Spec{N: 300})
	if err != nil {
		t.Fatal(err)
	}
	sp.Graph.InitZero()
	out["svm"] = sp.Graph
	mp, err := mpc.FromSpec(mpc.Spec{K: 400})
	if err != nil {
		t.Fatal(err)
	}
	mp.Graph.InitZero()
	out["mpc"] = mp.Graph
	pp, err := packing.FromSpec(packing.Spec{N: 12})
	if err != nil {
		t.Fatal(err)
	}
	pp.InitRandom(rand.New(rand.NewSource(1)))
	out["packing"] = pp.Graph
	return out
}

// TestSocketsBytesMatchCutCostModel pins the traffic-accounting
// acceptance band on every workload: the message transport's measured
// payload bytes per iteration must sit within 10% of the
// degree-weighted cut model's prediction (CutCost words x 8 bytes) —
// the same model auto decides on and gpusim.MultiDevice
// prices links with. The match is exact (the manifest moves precisely
// the blocks the model counts; any gap means lost or duplicated
// traffic), and the separately-tracked wire bytes exceed it by the
// per-frame header overhead only.
func TestSocketsBytesMatchCutCostModel(t *testing.T) {
	for name, g := range transportWorkloads(t) {
		t.Run(name, func(t *testing.T) {
			b, err := New(4)
			if err != nil {
				t.Fatal(err)
			}
			b.Transport = admm.TransportSockets
			defer b.Close()
			const iters = 50
			b.RunBlock(g, admm.Block{Iters: iters})
			st := b.Stats()
			if st.Transport != admm.TransportSockets {
				t.Fatalf("transport label %q", st.Transport)
			}
			predicted := 8 * st.CutCost
			if predicted == 0 {
				t.Fatalf("workload has no boundary under 4 shards (cut cost 0) — not exercising the transport")
			}
			if math.Abs(st.BytesPerIter-predicted) > 0.10*predicted {
				t.Fatalf("measured %.0f payload bytes/iter vs %.0f predicted: outside the 10%% band", st.BytesPerIter, predicted)
			}
			if st.BytesPerIter != predicted {
				t.Errorf("measured %.0f payload bytes/iter != %.0f predicted — manifest and cut model disagree", st.BytesPerIter, predicted)
			}
			if st.ExchangeFrames == 0 {
				t.Fatal("no frames counted")
			}
			headerBytes := 9 * float64(st.ExchangeFrames) / float64(st.Iterations)
			if got := st.WireBytesPerIter; got != st.BytesPerIter+headerBytes {
				t.Errorf("wire bytes %.1f != payload %.1f + headers %.1f", got, st.BytesPerIter, headerBytes)
			}
			// The multi-device simulator's link model prices the same
			// partition with the same words — its predicted bytes must
			// equal what the real transport measured.
			md := gpusim.PartitionByVariable(g, 4)
			if sim := md.ExchangeBytesPerIter(g); sim != st.BytesPerIter {
				t.Errorf("gpusim predicts %.0f bytes/iter, transport measured %.0f", sim, st.BytesPerIter)
			}
		})
	}
}

// TestLocalTransportMovesNoBytes: the shared-memory exchanger reports
// zero traffic, and the stats label the transport.
func TestLocalTransportMovesNoBytes(t *testing.T) {
	g := chainGraph(t, 64)
	b, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.RunBlock(g, admm.Block{Iters: 10})
	st := b.Stats()
	if st.Transport != admm.TransportLocal {
		t.Fatalf("transport label %q", st.Transport)
	}
	if st.BytesPerIter != 0 || st.ExchangeFrames != 0 {
		t.Fatalf("local transport reported traffic: %+v", st)
	}
}

// TestSocketsTransportName: the backend name surfaces the transport so
// bench tables and CLI output distinguish the paths.
func TestSocketsTransportName(t *testing.T) {
	b, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.Transport = admm.TransportSockets
	if got, want := b.Name(), "sharded(2,sockets)"; got != want {
		t.Fatalf("Name() = %q, want %q", got, want)
	}
}

// startTestWorkers hosts n in-process shard workers on unix sockets.
func startTestWorkers(t *testing.T, n int, builders map[string]BuilderFunc) []string {
	t.Helper()
	dir := t.TempDir()
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("unix:%s/w%d.sock", dir, i)
		ln, err := ListenAddr(addrs[i])
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		go ServeWorker(ln, WorkerOptions{Builders: builders})
	}
	return addrs
}

// TestRemoteHandshakeFailures: a worker that rebuilds a different graph
// (spec drift) or does not know the workload fails the handshake with a
// pointed error — NewBackend returns it, nothing half-solves — and a
// config refusal is not retried. A Cfg that still carries a retired key
// is refused by the worker's strict decoder, naming the field.
func TestRemoteHandshakeFailures(t *testing.T) {
	builders := chainBuilders(t, 48) // ignores the spec: fixed shape
	var addrs []string
	var lns []*faultnet.Listener
	for range 2 {
		addr, ln := startFaultWorker(t, builders, nil, WorkerOptions{})
		addrs, lns = append(addrs, addr), append(lns, ln)
	}

	spec := chainSpec(addrs)
	// Coordinator graph has a different shape than the workers rebuild.
	if _, err := NewRemote(context.Background(), spec, chainGraph(t, 64)); err == nil ||
		!strings.Contains(err.Error(), "different graph") {
		t.Fatalf("shape mismatch not detected: %v", err)
	}
	// Unknown workload: a config error, so one dial per worker and no
	// retry. A worker accepts in arrival order, so once it has answered
	// a probe dialed after the refusal, any retried dial would have been
	// accepted too: each listener must have grown by exactly two. The
	// refused session's mesh dials may still be queued at a listener:
	// once both workers are idle every dial is made, and once each has
	// answered a probe dialed after that, it has accepted them.
	awaitIdle(t, addrs, 15*time.Second)
	for _, addr := range addrs {
		checkPing(t, addr)
	}
	before := []int{lns[0].Accepted(), lns[1].Accepted()}
	spec.Problem = &admm.ProblemRef{Workload: "nope", Spec: []byte(`{}`)}
	_, err := NewRemote(context.Background(), spec, chainGraph(t, 48))
	var we *WorkerError
	if !errors.As(err, &we) || !we.Config || !strings.Contains(err.Error(), "unknown workload") {
		t.Fatalf("unknown workload: got %v, want a config *WorkerError", err)
	}
	for i, addr := range addrs {
		checkPing(t, addr)
		if n := lns[i].Accepted() - before[i]; n != 2 {
			t.Fatalf("worker %d accepted %d connections for the refused session and a probe, want 2: a config refusal was retried", i, n)
		}
	}
	// A Cfg that still carries a retired key, as an older coordinator
	// would send it.
	cfg := mustJSON(t, wireConfig{Session: 7, Shards: 1, Workload: "chain", Spec: []byte(`{}`), Peers: addrs[:1]})
	conn := dialFrame(t, addrs[0], exchange.FrameCfg, append([]byte(`{"delta_threshold":0,`), cfg[1:]...))
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	f, _, err := exchange.ReadFrame(conn, nil)
	if err != nil || f.Kind != exchange.FrameErr || !strings.Contains(string(f.Payload), `unknown field "delta_threshold"`) {
		t.Fatalf("Cfg with a retired key: got kind %d %q (%v), want FrameErr naming the field", f.Kind, f.Payload, err)
	}
	// Healthy handshake + solve on the same workers afterwards: they
	// survived the failed sessions. NewRemote makes one attempt, so wait
	// until each worker has torn its refused session down, or it answers
	// busy.
	awaitIdle(t, addrs, 15*time.Second)
	spec.Problem = &admm.ProblemRef{Workload: "chain", Spec: []byte(`{}`)}
	g := chainGraph(t, 48)
	r, err := NewRemote(context.Background(), spec, g)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ref := chainGraph(t, 48)
	var nanos [admm.NumPhases]int64
	admm.NewSerial().Iterate(ref, 40, &nanos)
	r.RunBlock(g, admm.Block{Iters: 40})
	for i := range ref.Z {
		if ref.Z[i] != g.Z[i] {
			t.Fatalf("remote diverged from serial at Z[%d]", i)
		}
	}
}

// starGraph3 builds a consensus star whose hub variable spans every
// shard under the block split: worker 0 must accept mesh dials from
// both higher-numbered workers, in whatever order they land.
func starGraph3(t testing.TB, funcs int) *graph.Graph {
	t.Helper()
	g := graph.New(2)
	for i := 0; i < funcs; i++ {
		g.AddNode(prox.Consensus{Dim: 2}, 0, i+1)
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	// Deliberately mis-tuned rho so residual-balancing adaptation fires
	// within the test's iteration budget.
	g.SetUniformParams(20, 1)
	g.InitRandom(-1, 1, rand.New(rand.NewSource(3)))
	return g
}

// TestRemoteThreeWorkersOutOfOrderMesh: with 3+ worker processes the
// owner's mesh dials arrive concurrently and in any order; the session
// must hold early arrivals instead of dropping them. The solve also
// runs rho adaptation, so the workers replay the rescales their Iters
// carry and must stay bit-identical to Serial under the identical Run
// options.
func TestRemoteThreeWorkersOutOfOrderMesh(t *testing.T) {
	builders := map[string]BuilderFunc{
		"star": func(spec []byte) (*graph.Graph, error) {
			return starGraph3(t, 30), nil
		},
	}
	addrs := startTestWorkers(t, 3, builders)
	spec := admm.ExecutorSpec{
		Kind: admm.ExecSharded, Transport: admm.TransportSockets, Addrs: addrs,
		Problem: &admm.ProblemRef{Workload: "star", Spec: []byte(`{}`)},
	}
	opts := admm.Options{
		MaxIter: 120, AbsTol: 1e-12, RelTol: 1e-12, CheckEvery: 20,
		Adapt: &admm.AdaptConfig{Mu: 2, Tau: 2},
	}

	ref := starGraph3(t, 30)
	refOpts := opts
	refOpts.Backend = admm.NewSerial()
	if _, err := admm.Run(ref, refOpts); err != nil {
		t.Fatal(err)
	}

	g := starGraph3(t, 30)
	r, err := NewRemote(context.Background(), spec, g)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	st := r.Stats()
	if st.BoundaryVars == 0 {
		t.Fatal("star hub not boundary — test graph does not span the workers")
	}
	opts.Backend = r
	if _, err := admm.Run(g, opts); err != nil {
		t.Fatal(err)
	}
	for i := range ref.Z {
		if ref.Z[i] != g.Z[i] {
			t.Fatalf("adaptive remote solve diverged from serial at Z[%d]: %g vs %g", i, g.Z[i], ref.Z[i])
		}
	}
	if ref.Rho[0] == 20 {
		t.Fatal("adaptation never fired — no rescale was replayed")
	}
	for i := range ref.Rho {
		if ref.Rho[i] != g.Rho[i] {
			t.Fatalf("rho diverged at %d", i)
		}
	}
}

// TestSpecTransportValidation: the spec layer rejects malformed
// transport configurations before any backend is built.
func TestSpecTransportValidation(t *testing.T) {
	bad := []admm.ExecutorSpec{
		{Kind: admm.ExecSerial, Transport: admm.TransportSockets},
		{Kind: admm.ExecSharded, Transport: "carrier-pigeon"},
		{Kind: admm.ExecSharded, Addrs: []string{"unix:/tmp/w0"}},
		{Kind: admm.ExecSharded, Transport: admm.TransportSockets, Shards: 3, Addrs: []string{"unix:/tmp/w0"}},
		// One worker named twice: its first session would wait for a mesh
		// peer that only its second session could supply.
		{Kind: admm.ExecSharded, Transport: admm.TransportSockets, Addrs: []string{"unix:/tmp/w0", "unix:/tmp/w0"}},
		// ... or under two spellings of one endpoint.
		{Kind: admm.ExecSharded, Transport: admm.TransportSockets, Addrs: []string{"tcp:127.0.0.1:9000", "127.0.0.1:9000"}},
		{Kind: admm.ExecSharded, Transport: admm.TransportSockets, Addrs: []string{"unix:/tmp/w0", "unix:/tmp//w0"}},
		{Kind: admm.ExecSharded, Transport: admm.TransportSockets, Addrs: []string{"/tmp/w0", "unix:/tmp/./w0"}},
	}
	for i, spec := range bad {
		if err := spec.Validate(); err == nil {
			t.Errorf("spec %d validated: %+v", i, spec)
		}
	}
	for _, ok := range []admm.ExecutorSpec{
		{Kind: admm.ExecSharded, Transport: admm.TransportSockets, Shards: 2},
		// A unix path and a TCP endpoint are different workers.
		{Kind: admm.ExecSharded, Transport: admm.TransportSockets, Addrs: []string{"unix:127.0.0.1:9000", "tcp:127.0.0.1:9000"}},
	} {
		if err := ok.Validate(); err != nil {
			t.Errorf("spec %+v rejected: %v", ok, err)
		}
	}
	// Remote without a problem reference fails at build time with a
	// pointed message, not at solve time.
	g := chainGraph(t, 32)
	remote := admm.ExecutorSpec{
		Kind: admm.ExecSharded, Transport: admm.TransportSockets,
		Addrs: []string{"unix:/tmp/nope-w0", "unix:/tmp/nope-w1"},
	}
	if _, err := remote.NewBackend(g); err == nil {
		t.Error("remote spec without a problem reference built a backend")
	}
}

// tapListener records, in order, what each accepted connection's peer
// sent and what the worker answered, for a frame census after the
// session.
type tapListener struct {
	net.Listener
	mu    sync.Mutex
	conns []*tapConn
}

func (l *tapListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tc := &tapConn{Conn: c}
	l.mu.Lock()
	l.conns = append(l.conns, tc)
	l.mu.Unlock()
	return tc, nil
}

// tapConn logs every chunk read (down) and written (up). A write is
// logged before it is sent, so a reply is always logged ahead of the
// frame that answers it.
type tapConn struct {
	net.Conn
	mu     sync.Mutex
	chunks []tapChunk
}

type tapChunk struct {
	up bool
	b  []byte
}

func (c *tapConn) log(up bool, p []byte) {
	c.mu.Lock()
	c.chunks = append(c.chunks, tapChunk{up, append([]byte(nil), p...)})
	c.mu.Unlock()
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.log(false, p[:n])
	return n, err
}

func (c *tapConn) Write(p []byte) (int, error) {
	c.log(true, p)
	return c.Conn.Write(p)
}

// tappedFrame is one frame of a tapped connection and its direction.
type tappedFrame struct {
	up bool
	f  exchange.Frame
}

// frames decodes the log into frames, in the order each one completed.
func (c *tapConn) frames(t testing.TB) []tappedFrame {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []tappedFrame
	var pending [2][]byte
	for _, ch := range c.chunks {
		buf := &pending[0]
		if ch.up {
			buf = &pending[1]
		}
		*buf = append(*buf, ch.b...)
		for len(*buf) >= 4 {
			n := 4 + int(binary.LittleEndian.Uint32(*buf))
			if len(*buf) < n {
				break
			}
			f, _, err := exchange.ReadFrame(bytes.NewReader((*buf)[:n]), nil)
			if err != nil {
				t.Fatalf("tapped stream: %v", err)
			}
			out = append(out, tappedFrame{ch.up, f})
			*buf = (*buf)[n:]
		}
	}
	if len(pending[0])+len(pending[1]) > 0 {
		t.Fatalf("tapped stream ends inside a frame")
	}
	return out
}

// controlStream is one worker's session control connection as tapped:
// every frame in order, and the frames the coordinator sent down and
// those the worker sent up.
type controlStream struct {
	all      []tappedFrame
	down, up []exchange.Frame
}

// tappedSolve runs opts on the problem build makes of problem, over two
// workers whose listeners are tapped, and on Serial; X, U, Z and Rho
// must end bit for bit equal. It returns the remote graph, Run's result
// and each worker's control stream, tapped after the session ended.
func tappedSolve(t testing.TB, problem admm.ProblemRef, build BuilderFunc, opts admm.Options) (*graph.Graph, admm.Result, []controlStream) {
	t.Helper()
	builders := map[string]BuilderFunc{problem.Workload: build}
	newGraph := func() *graph.Graph {
		g, err := build(problem.Spec)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	dir := t.TempDir()
	addrs := make([]string, 2)
	taps := make([]*tapListener, 2)
	served := make(chan error, 2)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("unix:%s/w%d.sock", dir, i)
		ln, err := ListenAddr(addrs[i])
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		taps[i] = &tapListener{Listener: ln}
		go func() { served <- ServeWorker(taps[i], WorkerOptions{Builders: builders, MaxSessions: 1}) }()
	}

	ref := newGraph()
	opts.Backend = admm.NewSerial()
	if _, err := admm.Run(ref, opts); err != nil {
		t.Fatal(err)
	}
	g := newGraph()
	r, err := NewRemote(context.Background(), admm.ExecutorSpec{
		Kind: admm.ExecSharded, Transport: admm.TransportSockets, Addrs: addrs, Problem: &problem,
	}, g)
	if err != nil {
		t.Fatal(err)
	}
	opts.Backend = r
	res, err := admm.Run(g, opts)
	r.Close()
	if err != nil {
		t.Fatal(err)
	}
	for range addrs {
		select {
		case err := <-served:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a worker's session did not end after Bye")
		}
	}
	for name, pair := range map[string][2][]float64{"X": {g.X, ref.X}, "U": {g.U, ref.U}, "Z": {g.Z, ref.Z}, "Rho": {g.Rho, ref.Rho}} {
		for i := range pair[1] {
			if math.Float64bits(pair[0][i]) != math.Float64bits(pair[1][i]) {
				t.Fatalf("remote %s[%d] = %v, serial %v", name, i, pair[0][i], pair[1][i])
			}
		}
	}

	streams := make([]controlStream, len(taps))
	for w, ln := range taps {
		for _, c := range ln.conns {
			all := c.frames(t)
			if len(all) == 0 || all[0].f.Kind != exchange.FrameCfg {
				continue
			}
			s := controlStream{all: all}
			for _, tf := range all {
				if tf.up {
					s.up = append(s.up, tf.f)
				} else {
					s.down = append(s.down, tf.f)
				}
			}
			streams[w] = s
		}
		if streams[w].all == nil {
			t.Fatalf("worker %d: no control connection tapped", w)
		}
	}
	return g, res, streams
}

// adaptiveRemoteSolve is tappedSolve on the star graph under adapt.
func adaptiveRemoteSolve(t *testing.T, opts admm.Options, adapt admm.AdaptConfig) (*graph.Graph, admm.Result, []controlStream) {
	t.Helper()
	star := func([]byte) (*graph.Graph, error) { return starGraph3(t, 30), nil }
	opts.Adapt = &adapt
	return tappedSolve(t, admm.ProblemRef{Workload: "star", Spec: []byte(`{}`)}, star, opts)
}

// iterEdits decodes the edits of a control stream's Iter frames.
func iterEdits(t *testing.T, s controlStream) []wireEdit {
	t.Helper()
	var out []wireEdit
	for _, f := range s.down {
		if f.Kind == exchange.FrameIter {
			var cmd wireIter
			if err := decodeJSONFrame(f, &cmd); err != nil {
				t.Fatal(err)
			}
			out = append(out, cmd.Edit)
		}
	}
	return out
}

// TestRemoteControlStreamCensus: in a checked adaptive solve over two
// worker processes, after the handshake (Cfg, then the State push: the
// workers' caches are off) each block is one round trip: the
// coordinator sends each worker nothing but one Iter per block and a
// Bye, and each worker answers Ready, then exactly one Up per block.
// Rho changes ride inside the Iters as edits: every Iter after the
// first carries the flush, and some carry a rescale. The blocks are
// iteration 1's, then one per CheckEvery.
func TestRemoteControlStreamCensus(t *testing.T) {
	const every = 20
	_, res, streams := adaptiveRemoteSolve(t, admm.Options{MaxIter: 120, AbsTol: 1e-12, RelTol: 1e-12, CheckEvery: every},
		admm.AdaptConfig{Mu: 2, Tau: 2})
	blocks := 1 + (res.Iterations-1+every-1)/every
	wantDown := []byte{exchange.FrameCfg, exchange.FrameState}
	wantUp := []byte{exchange.FrameReady}
	for range blocks {
		wantDown = append(wantDown, exchange.FrameIter)
		wantUp = append(wantUp, exchange.FrameUp)
	}
	wantDown = append(wantDown, exchange.FrameBye)
	kinds := func(fs []exchange.Frame) []byte {
		var out []byte
		for _, f := range fs {
			out = append(out, f.Kind)
		}
		return out
	}
	for w, s := range streams {
		if got := kinds(s.down); !bytes.Equal(got, wantDown) {
			t.Errorf("worker %d: coordinator sent kinds %v, want %v", w, got, wantDown)
		}
		if got := kinds(s.up); !bytes.Equal(got, wantUp) {
			t.Errorf("worker %d: worker sent kinds %v, want %v", w, got, wantUp)
		}
		rescales := 0
		for b, e := range iterEdits(t, s) {
			if b > 0 && !e.Flush {
				t.Errorf("worker %d: block %d's Iter carries no flush", w, b)
			}
			if e.Rescale != nil {
				rescales++
			}
		}
		if rescales == 0 {
			t.Errorf("worker %d: no Iter carried a rescale — adaptation never fired", w)
		}
	}
}

// TestRemoteAdaptiveClampHoldsRho: a remote adaptive solve whose clamp
// holds every rho (floor and ceiling at the starting 20) still takes
// rescale steps, which must leave Rho and U alone on both sides: the
// solve matches Serial bit for bit.
func TestRemoteAdaptiveClampHoldsRho(t *testing.T) {
	g, _, streams := adaptiveRemoteSolve(t, admm.Options{MaxIter: 120, AbsTol: 1e-12, RelTol: 1e-12, CheckEvery: 20},
		admm.AdaptConfig{Mu: 2, Tau: 2, Min: 20, Max: 20})
	for e, r := range g.Rho {
		if r != 20 {
			t.Fatalf("rho[%d] = %g, want the clamp's 20", e, r)
		}
	}
	for w, s := range streams {
		rescales := 0
		for _, e := range iterEdits(t, s) {
			if e.Rescale != nil {
				rescales++
			}
		}
		if rescales == 0 {
			t.Errorf("worker %d: no Iter carried a rescale — the clamp case was not exercised", w)
		}
	}
}

// TestRemoteCheckEveryIteration: a checked adaptive solve that checks
// after every iteration runs 1-iteration blocks, each capturing zPrev
// on the workers before its only iteration; it matches Serial bit for
// bit (tappedSolve compares X, U, Z and Rho), and every Iter asks for
// one iteration and the capture.
func TestRemoteCheckEveryIteration(t *testing.T) {
	_, res, streams := adaptiveRemoteSolve(t, admm.Options{MaxIter: 30, AbsTol: 1e-12, RelTol: 1e-12, CheckEvery: 1},
		admm.AdaptConfig{Mu: 2, Tau: 2})
	for w, s := range streams {
		iters := 0
		for _, f := range s.down {
			if f.Kind != exchange.FrameIter {
				continue
			}
			var cmd wireIter
			if err := decodeJSONFrame(f, &cmd); err != nil {
				t.Fatal(err)
			}
			if cmd.Iters != 1 || !cmd.ZPrev {
				t.Fatalf("worker %d: Iter %+v, want 1 iteration with the zPrev capture", w, cmd)
			}
			iters++
		}
		if iters != res.Iterations {
			t.Fatalf("worker %d: %d Iters for %d iterations", w, iters, res.Iterations)
		}
	}
}
