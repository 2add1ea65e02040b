package exchange

import (
	"bytes"
	"io"
	"net"
	"testing"

	"repro/internal/graph"
	"repro/internal/prox"
)

// testGraph builds a small two-shard-friendly graph: a chain of
// two-variable functions (variable i is shared by functions i-1 and i).
func testGraph(t *testing.T, funcs, d int) *graph.Graph {
	t.Helper()
	g := graph.New(d)
	for i := 0; i < funcs; i++ {
		g.AddNode(prox.Identity{}, i, i+1)
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	g.SetUniformParams(1, 1)
	g.InitZero()
	return g
}

// starGraph builds a consensus star: every function touches shared
// variable 0 — maximally cut under any multi-shard split.
func starGraph(t *testing.T, funcs, d int) *graph.Graph {
	t.Helper()
	g := graph.New(d)
	for i := 0; i < funcs; i++ {
		g.AddNode(prox.Identity{}, 0, i+1)
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	g.SetUniformParams(1, 1)
	g.InitZero()
	return g
}

// TestManifestWordsMatchCutCost pins the identity behind the traffic
// accounting: the manifest's steady-state words equal graph.CutCost at
// every shard count, so measured bytes are comparable to
// the predicted cut.
func TestManifestWordsMatchCutCost(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"chain-d1": testGraph(t, 40, 1),
		"chain-d5": testGraph(t, 40, 5),
		"star-d3":  starGraph(t, 30, 3),
	}
	for name, g := range graphs {
		for _, parts := range []int{1, 2, 3, 4, 7} {
			p, err := graph.NewPartition(g, parts, graph.StrategyBalanced)
			if err != nil {
				t.Fatal(err)
			}
			man := NewManifest(g, &p, parts)
			if got, want := man.Words(), int(graph.CutCost(g, &p)); got != want {
				t.Errorf("%s parts=%d: manifest words %d != cut cost %d", name, parts, got, want)
			}
		}
	}
}

// TestManifestDigest: equal derivations agree, different partitions
// (and different worker counts) disagree.
func TestManifestDigest(t *testing.T) {
	g := testGraph(t, 40, 2)
	p2, err := graph.NewPartition(g, 2, graph.StrategyBalanced)
	if err != nil {
		t.Fatal(err)
	}
	p2b, err := graph.NewPartition(g, 2, graph.StrategyBalanced)
	if err != nil {
		t.Fatal(err)
	}
	if NewManifest(g, &p2, 2).Digest() != NewManifest(g, &p2b, 2).Digest() {
		t.Fatal("identical derivations produced different digests")
	}
	p3, err := graph.NewPartition(g, 3, graph.StrategyBalanced)
	if err != nil {
		t.Fatal(err)
	}
	if NewManifest(g, &p2, 2).Digest() == NewManifest(g, &p3, 3).Digest() {
		t.Fatal("different partitions produced equal digests")
	}
}

// TestFrameRoundTrip: encode -> decode is the identity, and buffers are
// reused across reads.
func TestFrameRoundTrip(t *testing.T) {
	var wire bytes.Buffer
	if err := WriteFrame(&wire, FrameM, 7, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&wire, FrameZ, 8, nil); err != nil {
		t.Fatal(err)
	}
	payload := AppendF64s(nil, []float64{3.25, -1e-9})
	if err := WriteFrame(&wire, FrameState, 0, payload); err != nil {
		t.Fatal(err)
	}

	var buf []byte
	f, buf, err := ReadFrame(&wire, buf)
	if err != nil || f.Kind != FrameM || f.Seq != 7 || !bytes.Equal(f.Payload, []byte{1, 2, 3}) {
		t.Fatalf("frame 1 = %+v, err %v", f, err)
	}
	f, buf, err = ReadFrame(&wire, buf)
	if err != nil || f.Kind != FrameZ || f.Seq != 8 || len(f.Payload) != 0 {
		t.Fatalf("frame 2 = %+v, err %v", f, err)
	}
	f, _, err = ReadFrame(&wire, buf)
	if err != nil || f.Kind != FrameState {
		t.Fatalf("frame 3 = %+v, err %v", f, err)
	}
	got := make([]float64, 2)
	if err := CopyF64s(got, f.Payload); err != nil {
		t.Fatal(err)
	}
	if got[0] != 3.25 || got[1] != -1e-9 {
		t.Fatalf("payload doubles = %v", got)
	}
}

// TestReadFrameErrors: corrupt streams error instead of panicking or
// allocating unbounded buffers.
func TestReadFrameErrors(t *testing.T) {
	cases := map[string][]byte{
		"empty":             {},
		"short-header":      {1, 2},
		"undersized-length": {3, 0, 0, 0, 1, 0, 0},
		"truncated-payload": {10, 0, 0, 0, 1, 0, 0, 0, 0},
		"oversized-length":  {0, 0, 0, 255, 1, 2, 3, 4, 5},
	}
	for name, data := range cases {
		if _, _, err := ReadFrame(bytes.NewReader(data), nil); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// TestMessagedPeerDelivery exercises the non-shared (cross-process
// shaped) path directly: two workers on separate graph replicas,
// connected by an in-process duplex, must deliver posted m-blocks into
// the owner's inbox row and remote z into Z.
func TestMessagedPeerDelivery(t *testing.T) {
	build := func() *graph.Graph { return testGraph(t, 2, 2) } // functions 0,1 share variable 1
	g0, g1 := build(), build()
	p, err := graph.NewPartition(g0, 2, graph.StrategyBalanced)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.BoundaryVars) != 1 || p.BoundaryVars[0] != 1 {
		t.Fatalf("unexpected boundary %v", p.BoundaryVars)
	}
	owner := p.VarPart[1]
	man := NewManifest(g0, &p, 2)

	c0, c1 := net.Pipe()
	ex0, err := NewPeer(g0, man, 0, []io.ReadWriteCloser{nil, c0})
	if err != nil {
		t.Fatal(err)
	}
	ex1, err := NewPeer(g1, man, 1, []io.ReadWriteCloser{c1, nil})
	if err != nil {
		t.Fatal(err)
	}
	defer ex0.Close()

	// Each worker sets x + u over its own edges, exchanges, and the
	// owner must see the remote contribution at the right row slot.
	fillXU(g0, 0, 2, 100) // worker 0 owns function 0 (edges 0,1)
	fillXU(g1, 2, 4, 200) // worker 1 owns function 1 (edges 2,3)

	done := make(chan struct{})
	go func() {
		defer close(done)
		ex1.Mailbox().Post(1)
		ex1.GatherM(1)
		// Owner computes z for variable 1; stand in with a sentinel.
		if owner == 1 {
			g1.Z[2], g1.Z[3] = 42, 43
		}
		ex1.ScatterZ(1)
	}()
	ex0.Mailbox().Post(0)
	ex0.GatherM(0)
	if owner == 0 {
		g0.Z[2], g0.Z[3] = 42, 43
	}
	ex0.ScatterZ(0)
	<-done

	otherG, ownerEx := g1, ex0
	if owner == 1 {
		otherG, ownerEx = g0, ex1
	}
	// The owner gathered the remote worker's m-blocks for the boundary
	// edges it does not own, packed in manifest order in its inbox row.
	row := ownerEx.Mailbox().Row(1-owner, owner)
	for idx, e := range man.MEdges[(1-owner)*2+owner] {
		for i := 0; i < 2; i++ {
			want := 0.0
			if owner == 0 {
				want = 200 + float64(int(e)*2+i)
			} else {
				want = 100 + float64(int(e)*2+i)
			}
			if got := row[idx*2+i]; got != want {
				t.Fatalf("owner inbox row[%d] = %g, want %g", idx*2+i, got, want)
			}
		}
	}
	// The non-owner received the owner's z for the boundary variable.
	if otherG.Z[2] != 42 || otherG.Z[3] != 43 {
		t.Fatalf("non-owner Z = %v, want sentinel", otherG.Z[2:4])
	}

	st := ex0.Stats()
	if st.Rounds != 1 || st.BytesMoved == 0 {
		t.Fatalf("worker-0 stats %+v", st)
	}
	if st.PredictedWords != int(graph.CutCost(g0, &p)) {
		t.Fatalf("predicted words %d != cut cost %g", st.PredictedWords, graph.CutCost(g0, &p))
	}
}

// TestLocalIsBarrier: the local exchanger is bound to no graph or plan
// and reports no traffic; a Begin never waits, and each Finish (like
// each single-call form) is one barrier crossing, so what a worker
// wrote before it is visible to its peer after it.
func TestLocalIsBarrier(t *testing.T) {
	l := NewLocal(1)
	l.GatherM(0)
	l.ScatterZ(0)
	if st := l.Stats(); st != (Stats{}) {
		t.Fatalf("local stats %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l = NewLocal(2)
	const rounds = 200
	var posted, combined [2]int // written by their worker, read by the peer
	run := func(w int) {
		for r := 1; r <= rounds; r++ {
			posted[w] = r
			l.BeginGatherM(w) // alone at the sync point: must not block
			l.FinishGatherM(w)
			if got := posted[1-w]; got != r {
				t.Errorf("worker %d round %d: peer's post reads %d after FinishGatherM", w, r, got)
			}
			combined[w] = r
			l.BeginScatterZ(w)
			l.FinishScatterZ(w)
			if got := combined[1-w]; got != r {
				t.Errorf("worker %d round %d: peer's z reads %d after FinishScatterZ", w, r, got)
			}
			// The next round's post must not overtake the peer's read of
			// this one: the single-call forms are the same two crossings.
			l.GatherM(w)
			l.ScatterZ(w)
		}
	}
	done := make(chan struct{})
	go func() { defer close(done); run(1) }()
	run(0)
	<-done
	if st := l.Stats(); st != (Stats{}) {
		t.Fatalf("local stats %+v after %d rounds", st, rounds)
	}
}
