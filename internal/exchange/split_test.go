package exchange

import (
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
)

// twoPeers stands up the cross-process-shaped pair from
// TestMessagedPeerDelivery: two graph replicas over an in-process
// duplex, partitioned so variable 1 is the single boundary.
func twoPeers(t *testing.T) (g0, g1 *graph.Graph, ex0, ex1 *Messaged, p graph.Partition) {
	t.Helper()
	g0, g1 = testGraph(t, 2, 2), testGraph(t, 2, 2)
	p, err := graph.NewPartition(g0, 2, graph.StrategyBalanced)
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
	if st := ex0.Stats(); st.Rounds != 1 {
		t.Fatalf("worker-0 stats %+v", st)
	}
}

// TestWaitingCountsJoinedSendsOnly: a send still in flight on the send
// goroutine is no wait while its worker computes — over a socket whose
// buffer is full it may stay in flight for a whole slow block — and
// becomes a wait on that peer, counted from then, once the worker joins
// it. net.Pipe has no buffer, so the send is in flight until the owner
// reads it.
func TestWaitingCountsJoinedSendsOnly(t *testing.T) {
	_, _, ex0, ex1, p := twoPeers(t)
	owner := p.VarPart[1]
	sender, from := ex0, 0
	ownerEx := ex1
	if owner == 0 {
		sender, from, ownerEx = ex1, 1, ex0
	}
	sender.Mailbox().Post(from)
	sender.BeginGatherM(from)
	time.Sleep(30 * time.Millisecond) // interior compute
	if peer, waited := sender.Waiting(from); peer != -1 || waited != 0 {
		t.Fatalf("computing with a send in flight: waiting on peer %d for %v, want none", peer, waited)
	}
	joined := time.Now()
	done := make(chan struct{})
	go func() { defer close(done); sender.FinishGatherM(from) }()
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		peer, waited := sender.Waiting(from)
		if peer == owner && waited >= 10*time.Millisecond {
			if waited > time.Since(joined) {
				t.Fatalf("joined %v ago, but the wait counts %v: from the send, not the join", time.Since(joined), waited)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("joined a blocked send: waiting on peer %d for %v, want peer %d", peer, waited, owner)
		}
	}
	ownerEx.Mailbox().Post(owner)
	ownerEx.GatherM(owner)
	<-done
	if peer, _ := sender.Waiting(from); peer != -1 {
		t.Fatalf("after the round's M phase: waiting on peer %d, want none", peer)
	}
}
