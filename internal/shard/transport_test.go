package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/admm"
	"repro/internal/exchange"
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
			var nanos [admm.NumPhases]int64
			const iters = 50
			b.Iterate(g, iters, &nanos)
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
	var nanos [admm.NumPhases]int64
	b.Iterate(g, 10, &nanos)
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
// pointed error — NewBackend returns it, nothing half-solves.
func TestRemoteHandshakeFailures(t *testing.T) {
	builders := map[string]BuilderFunc{
		"chain": func(spec []byte) (*graph.Graph, error) {
			return chainGraph(t, 48), nil // ignores the spec: fixed shape
		},
	}
	addrs := startTestWorkers(t, 2, builders)

	spec := admm.ExecutorSpec{
		Kind: admm.ExecSharded, Transport: admm.TransportSockets, Addrs: addrs,
		Problem: &admm.ProblemRef{Workload: "chain", Spec: []byte(`{}`)},
	}
	// Coordinator graph has a different shape than the workers rebuild.
	if _, err := NewRemote(context.Background(), spec, chainGraph(t, 64)); err == nil ||
		!strings.Contains(err.Error(), "different graph") {
		t.Fatalf("shape mismatch not detected: %v", err)
	}
	// Unknown workload.
	spec.Problem = &admm.ProblemRef{Workload: "nope", Spec: []byte(`{}`)}
	if _, err := NewRemote(context.Background(), spec, chainGraph(t, 48)); err == nil ||
		!strings.Contains(err.Error(), "unknown workload") {
		t.Fatalf("unknown workload not detected: %v", err)
	}
	// A Cfg that still carries a retired key (here stamped in on the
	// wire, as an older coordinator would send it) is refused by the
	// worker's strict decoder, and the refusal is a config error: one
	// dial per worker, no retry.
	spec.Problem = &admm.ProblemRef{Workload: "chain", Spec: []byte(`{}`)}
	dials := 0
	spec.WorkerDialer = func(addr string, timeout time.Duration) (net.Conn, error) {
		dials++
		conn, err := DialAddrTimeout(addr, timeout)
		if err != nil {
			return nil, err
		}
		return &tamperConn{conn, func(frame []byte) []byte {
			if frame[4] != exchange.FrameCfg {
				return frame
			}
			// frame[9] is the JSON payload's opening brace.
			payload := append([]byte(`{"delta_threshold":0,`), frame[10:]...)
			return exchange.AppendFrame(nil, exchange.FrameCfg, 0, payload)
		}}, nil
	}
	_, err := NewRemote(context.Background(), spec, chainGraph(t, 48))
	var we *WorkerError
	if !errors.As(err, &we) || !we.Config || we.Phase != PhaseHandshake ||
		!strings.Contains(err.Error(), `unknown field "delta_threshold"`) {
		t.Fatalf("Cfg with a retired key: got %v, want a handshake config *WorkerError naming the field", err)
	}
	if dials != len(addrs) {
		t.Fatalf("%d dials for %d workers: a config refusal was retried", dials, len(addrs))
	}
	spec.WorkerDialer = nil
	// Healthy handshake + solve on the same worker pool afterwards: the
	// workers survived the failed sessions.
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
	r.Iterate(g, 40, &nanos)
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
// runs rho adaptation, so the conditional Params refresh path (push
// only when Rho moved) is exercised and must stay bit-identical to
// Serial under the identical Run options.
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
	refOpts.Adapt = &admm.AdaptConfig{Mu: 2, Tau: 2} // AdaptConfig carries state; fresh per run
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
		t.Fatal("adaptation never fired — the params-refresh path was not exercised")
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
	}
	for i, spec := range bad {
		if err := spec.Validate(); err == nil {
			t.Errorf("spec %d validated: %+v", i, spec)
		}
	}
	ok := admm.ExecutorSpec{Kind: admm.ExecSharded, Transport: admm.TransportSockets, Shards: 2}
	if err := ok.Validate(); err != nil {
		t.Errorf("loopback sockets spec rejected: %v", err)
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
