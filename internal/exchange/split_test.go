package exchange

import (
	"io"
	"net"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
)

// twoPeers stands up the cross-process-shaped pair from
// TestMessagedPeerDelivery: two graph replicas over an in-process
// duplex, block-partitioned so variable 1 is the single boundary.
func twoPeers(t *testing.T) (g0, g1 *graph.Graph, ex0, ex1 *Messaged, p graph.Partition) {
	t.Helper()
	g0, g1 = testGraph(t, 2, 2), testGraph(t, 2, 2)
	p, err := graph.NewPartition(g0, 2, graph.StrategyBlock)
	if err != nil {
		t.Fatal(err)
	}
	man := NewManifest(g0, &p, 2)
	c0, c1 := net.Pipe()
	if ex0, err = NewPeer(g0, man, 0, []io.ReadWriteCloser{nil, c0}); err != nil {
		t.Fatal(err)
	}
	if ex1, err = NewPeer(g1, man, 1, []io.ReadWriteCloser{c1, nil}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ex0.Close() })
	return g0, g1, ex0, ex1, p
}

// fillXU sets x + u of edges [lo, hi) of a d = 2 graph to base plus the
// element's flat index — the m-block Mailbox.Post will form for them.
func fillXU(g *graph.Graph, lo, hi int, base float64) {
	for i := lo * 2; i < hi*2; i++ {
		g.X[i], g.U[i] = base, float64(i)
	}
}

// TestSplitSyncDelivery pins the Begin/Finish contract: the two
// halves with compute between them deliver exactly what the single-call
// form does — remote m-blocks into the owner's inbox row, the owner's z
// into the peer's Z — while the "interior compute" runs between send
// and receive.
func TestSplitSyncDelivery(t *testing.T) {
	g0, g1, ex0, ex1, p := twoPeers(t)
	owner := p.VarPart[1]
	fillXU(g0, 0, 2, 100)
	fillXU(g1, 2, 4, 200)

	var interior atomic.Int64
	run := func(g *graph.Graph, ex *Messaged, w int) {
		ex.Mailbox().Post(w)
		ex.BeginGatherM(w)
		interior.Add(1) // stands in for rest-x + interior-z work
		ex.FinishGatherM(w)
		if owner == w {
			g.Z[2], g.Z[3] = 42, 43
		}
		ex.BeginScatterZ(w)
		interior.Add(1) // stands in for local-z u/n work
		ex.FinishScatterZ(w)
	}
	done := make(chan struct{})
	go func() { defer close(done); run(g1, ex1, 1) }()
	run(g0, ex0, 0)
	<-done
	if interior.Load() != 4 {
		t.Fatalf("interior compute ran %d times, want 4", interior.Load())
	}

	ownerEx, otherG := ex0, g1
	if owner == 1 {
		ownerEx, otherG = ex1, g0
	}
	row := ownerEx.Mailbox().Row(1-owner, owner)
	for idx, e := range ex0.man.MEdges[(1-owner)*2+owner] {
		for i := 0; i < 2; i++ {
			want := 100 + float64(int(e)*2+i)
			if owner == 0 {
				want = 200 + float64(int(e)*2+i)
			}
			if got := row[idx*2+i]; got != want {
				t.Fatalf("owner inbox row[%d] = %g, want %g", idx*2+i, got, want)
			}
		}
	}
	if otherG.Z[2] != 42 || otherG.Z[3] != 43 {
		t.Fatalf("non-owner Z = %v, want sentinel", otherG.Z[2:4])
	}
	if st := ex0.Stats(); st.Rounds != 1 || st.DeltaFrames != 0 || st.DenseFrames != st.Frames {
		t.Fatalf("worker-0 stats %+v", st)
	}
}

// TestMessagedDeltaSkipsUnchangedBlocks pins the delta mode's byte
// accounting and exactness at threshold 0: the first round primes with
// dense frames, a round that repeats the same values ships bitmap-only
// delta frames (zero payload doubles), and a changed round delivers
// the new values exactly.
func TestMessagedDeltaSkipsUnchangedBlocks(t *testing.T) {
	g0, g1, ex0, ex1, p := twoPeers(t)
	owner := p.VarPart[1]
	ex0.EnableDelta(0)
	ex1.EnableDelta(0)

	round := func(mBase, z float64) {
		fillXU(g0, 0, 2, mBase)
		fillXU(g1, 2, 4, 100+mBase)
		done := make(chan struct{})
		go func() {
			defer close(done)
			ex1.Mailbox().Post(1)
			ex1.GatherM(1)
			if owner == 1 {
				g1.Z[2], g1.Z[3] = z, z+1
			}
			ex1.ScatterZ(1)
		}()
		ex0.Mailbox().Post(0)
		ex0.GatherM(0)
		if owner == 0 {
			g0.Z[2], g0.Z[3] = z, z+1
		}
		ex0.ScatterZ(0)
		<-done
	}

	// Each peer counts only its own outbound traffic; the pair together
	// must respect the manifest-wide bounds.
	sum := func() Stats {
		a, b := ex0.Stats(), ex1.Stats()
		a.BytesMoved += b.BytesMoved
		a.Frames += b.Frames
		a.DenseFrames += b.DenseFrames
		a.DeltaFrames += b.DeltaFrames
		return a
	}

	round(10, 42)
	st1 := sum()
	if st1.DenseFrames != st1.Frames || st1.DeltaFrames != 0 {
		t.Fatalf("priming round stats %+v, want all dense", st1)
	}
	if st1.BytesMoved != int64(st1.PredictedWords)*8 {
		t.Fatalf("priming round moved %d bytes, want dense %d", st1.BytesMoved, st1.PredictedWords*8)
	}

	round(10, 42) // identical values: every block suppressed
	st2 := sum()
	if st2.BytesMoved != st1.BytesMoved {
		t.Fatalf("unchanged round moved %d payload bytes", st2.BytesMoved-st1.BytesMoved)
	}
	if st2.DeltaFrames == 0 || st2.DenseFrames != st1.DenseFrames {
		t.Fatalf("unchanged round stats %+v", st2)
	}
	if st2.DenseFrames+st2.DeltaFrames != st2.Frames {
		t.Fatalf("frame counters disagree: %+v", st2)
	}

	round(20, 77) // changed values must land exactly
	otherG := g1
	if owner == 1 {
		otherG = g0
	}
	if otherG.Z[2] != 77 || otherG.Z[3] != 78 {
		t.Fatalf("non-owner Z = %v after changed round, want [77 78]", otherG.Z[2:4])
	}
	st3 := sum()
	if st3.BytesMoved <= st2.BytesMoved {
		t.Fatal("changed round moved no payload bytes")
	}
	if st3.BytesMoved-st2.BytesMoved > int64(st3.PredictedWords)*8 {
		t.Fatalf("changed round moved %d bytes, above the dense bound %d",
			st3.BytesMoved-st2.BytesMoved, st3.PredictedWords*8)
	}
}
