package shard

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/admm"
	"repro/internal/exchange"
	"repro/internal/faultnet"
	"repro/internal/graph"
	"repro/internal/lasso"
	"repro/internal/prox"
)

// awaitIdle demands every worker at addrs answer a probe with no
// session running within bound.
func awaitIdle(t testing.TB, addrs []string, bound time.Duration) {
	t.Helper()
	for deadline := time.Now().Add(bound); ; time.Sleep(10 * time.Millisecond) {
		idle := true
		for _, h := range ProbeWorkers(context.Background(), addrs, bound) {
			idle = idle && h.Alive && !h.Busy
		}
		if idle {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("workers %v still in a session %v later", addrs, bound)
		}
	}
}

// TestRemoteSilentWorkerFailsFast: worker 1's control stream stalls
// after its second frame (Ready, then the first block's Up), so the
// second block of a checked mpc solve hears nothing from it — the stall
// a SIGSTOPped worker or a partition without RST makes. With no timeout
// key in the spec, the default liveness rule (shrunk here) fails the
// solve with a *WorkerError naming worker 1 within twice the bound, and
// worker 0 is back in its accept loop within the bound after that.
func TestRemoteSilentWorkerFailsFast(t *testing.T) {
	const bound = time.Second
	shrinkLiveness(t, bound/10, bound)
	builders := map[string]BuilderFunc{"mpc": buildMPC}
	w0, _ := startFaultWorker(t, builders, faultnet.Plans(), WorkerOptions{})
	w1, _ := startFaultWorker(t, builders, faultnet.PlanAt(0, faultnet.Plan{Out: faultnet.Cut{AfterFrames: 2, Stall: true}}), WorkerOptions{})
	problem := admm.ProblemRef{Workload: "mpc", Spec: []byte(`{"k":400}`)}
	g, err := buildMPC(problem.Spec)
	if err != nil {
		t.Fatal(err)
	}
	spec := admm.ExecutorSpec{Kind: admm.ExecSharded, Transport: admm.TransportSockets, Addrs: []string{w0, w1}, Problem: &problem}
	start := time.Now()
	done := make(chan error, 1)
	go func() {
		_, err := Solve(context.Background(), g, admm.SolveOptions{Executor: spec, MaxIter: 400, AbsTol: 1e-12, RelTol: 1e-12})
		done <- err
	}()
	select {
	case err = <-done:
	case <-time.After(10 * bound):
		t.Fatalf("the solve was still running %v after worker 1's control stream stalled", 10*bound)
	}
	var we *WorkerError
	if el := time.Since(start); !errors.As(err, &we) || we.Worker != 1 || el > 2*bound {
		t.Fatalf("after %v: got %v, want a *WorkerError naming worker 1 within %v", el, err, 2*bound)
	}
	awaitIdle(t, []string{w0}, bound)
}

// TestRemoteMeshStallFailsFast: worker 0 stops reading its mesh
// connection from worker 1 right after the hello, so both workers wait
// on each other from the first round on while both still send Ticks.
// The liveness rule fails the block with a *WorkerError within twice
// the bound, and closing the backend returns both workers to their
// accept loops.
func TestRemoteMeshStallFailsFast(t *testing.T) {
	const bound = time.Second
	shrinkLiveness(t, bound/10, bound)
	builders := chainBuilders(t, 48)
	// Worker 0 accepts the coordinator first, then worker 1's mesh dial.
	w0, _ := startFaultWorker(t, builders, faultnet.PlanAt(1, faultnet.Plan{In: faultnet.Cut{AfterFrames: 1, Stall: true}}), WorkerOptions{})
	w1, _ := startFaultWorker(t, builders, faultnet.Plans(), WorkerOptions{})
	g := chainGraph(t, 48)
	r, err := NewRemote(context.Background(), chainSpec([]string{w0, w1}), g)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	done := make(chan error, 1)
	go func() {
		_, err := r.RunBlock(g, admm.Block{Iters: 10})
		done <- err
	}()
	select {
	case err = <-done:
	case <-time.After(10 * bound):
		t.Fatalf("the block was still running %v after the mesh stalled", 10*bound)
	}
	var we *WorkerError
	if el := time.Since(start); !errors.As(err, &we) || we.Phase != PhaseCollect || el > 2*bound {
		t.Fatalf("after %v: got %v, want a collect-phase *WorkerError within %v", el, err, 2*bound)
	}
	r.Close()
	awaitIdle(t, []string{w0, w1}, bound)
}

// TestRemoteHandshakeMeshStallFailsFast: worker 1's mesh hello to
// worker 0 stalls on its way in, so worker 0 waits on peer 1 for its
// mesh while worker 1, its hello sent, has answered Ready. Worker 0's
// Ticks say so, and the all-waiting half of the liveness rule (shrunk
// here) fails the handshake with a *WorkerError within twice the
// bound; the hang-up returns both workers to their accept loops within
// one more bound.
func TestRemoteHandshakeMeshStallFailsFast(t *testing.T) {
	const bound = 300 * time.Millisecond
	shrinkLiveness(t, bound/10, bound)
	builders := chainBuilders(t, 48)
	// Worker 0 accepts the coordinator first, then worker 1's mesh dial.
	w0, _ := startFaultWorker(t, builders, faultnet.PlanAt(1, faultnet.Plan{In: faultnet.Cut{AfterBytes: 1, Stall: true}}), WorkerOptions{})
	w1, _ := startFaultWorker(t, builders, faultnet.Plans(), WorkerOptions{})
	start := time.Now()
	_, err := NewRemote(context.Background(), chainSpec([]string{w0, w1}), chainGraph(t, 48))
	var we *WorkerError
	if el := time.Since(start); !errors.As(err, &we) || we.Phase != PhaseHandshake || we.Config || el > 2*bound ||
		!strings.Contains(err.Error(), "waited on a mesh peer") {
		t.Fatalf("after %v: got %v, want a handshake-phase *WorkerError by the all-waiting rule within %v", el, err, 2*bound)
	}
	awaitIdle(t, []string{w0, w1}, bound)
}

// TestRemoteSlowBuildDoesNotTrip: worker 1's builder takes three
// (shrunk) bounds. Worker 1 ticks through its build and worker 0
// through its wait for worker 1's mesh hello, so the handshake holds,
// and the solve matches Serial bit for bit in one attempt.
func TestRemoteSlowBuildDoesNotTrip(t *testing.T) {
	const bound = 300 * time.Millisecond
	shrinkLiveness(t, bound/10, bound)
	slow := map[string]BuilderFunc{"chain": func([]byte) (*graph.Graph, error) {
		time.Sleep(3 * bound)
		return chainGraph(t, 48), nil
	}}
	addrs := append(startTestWorkers(t, 1, chainBuilders(t, 48)), startTestWorkers(t, 1, slow)...)
	g := chainGraph(t, 48)
	start := time.Now()
	out, err := Solve(context.Background(), g, admm.SolveOptions{Executor: chainSpec(addrs), MaxIter: 40})
	if err != nil || out.Attempts != 1 {
		t.Fatalf("a slow build: %v (trail %+v), want the first attempt to finish", err, out.Recovery)
	}
	if el := time.Since(start); el < 3*bound {
		t.Fatalf("the solve took %v, want at least %v", el, 3*bound)
	}
	ref := chainGraph(t, 48)
	if _, err := admm.Solve(ref, admm.SolveOptions{MaxIter: 40}); err != nil {
		t.Fatal(err)
	}
	for i := range ref.Z {
		if ref.Z[i] != g.Z[i] {
			t.Fatalf("slow-build solve diverged from serial at Z[%d]", i)
		}
	}
}

// sleepyOp is an operator whose next Eval first sleeps for whatever
// *sleep holds, once.
type sleepyOp struct {
	graph.Op
	sleep *atomic.Int64
}

func (o sleepyOp) Eval(x, n, rho []float64, d int) {
	time.Sleep(time.Duration(o.sleep.Swap(0)))
	o.Op.Eval(x, n, rho, d)
}

// TestRemoteSlowBlockDoesNotTrip: one operator sleeps through 3.5 times
// the (shrunk) bound, so one block lasts longer than three bounds while
// the other worker waits on it; the Ticks keep the block alive and the
// solve matches Serial bit for bit. So does a 2000-iteration lasso
// solve in one block, with no timeout key in its spec.
func TestRemoteSlowBlockDoesNotTrip(t *testing.T) {
	const bound = 300 * time.Millisecond
	shrinkLiveness(t, bound/10, bound)
	const n = 48
	var sleep atomic.Int64
	// chainGraph's shape, with its first function sleepy.
	builders := map[string]BuilderFunc{"chain": func([]byte) (*graph.Graph, error) {
		g := graph.New(2)
		for i := 0; i+1 < n; i++ {
			var op graph.Op = prox.Consensus{Dim: 2}
			if i == 0 {
				op = sleepyOp{op, &sleep}
			}
			g.AddNode(op, i, i+1)
		}
		for i := range n {
			g.AddNode(prox.SquaredNorm{C: 0.5, Dim: 2}, i)
		}
		if err := g.Finalize(); err != nil {
			return nil, err
		}
		g.SetUniformParams(1, 1)
		return g, nil
	}}
	g := chainGraph(t, n)
	r, err := NewRemote(context.Background(), chainSpec(startTestWorkers(t, 2, builders)), g)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	sleep.Store(int64(7 * bound / 2))
	var nanos [admm.NumPhases]int64
	start := time.Now()
	if _, err := r.RunBlock(g, admm.Block{Iters: 20}); err != nil {
		t.Fatalf("a slow block failed: %v", err)
	}
	if el := time.Since(start); el < 3*bound {
		t.Fatalf("the block took %v, want at least %v", el, 3*bound)
	}
	ref := chainGraph(t, n)
	admm.NewSerialFused().Iterate(ref, 20, &nanos)
	for i := range ref.Z {
		if ref.Z[i] != g.Z[i] {
			t.Fatalf("slow block diverged from serial at Z[%d]", i)
		}
	}

	problem := admm.ProblemRef{Workload: "lasso", Spec: []byte(`{"m":256,"blocks":4}`)}
	buildLasso := func(spec []byte) (*graph.Graph, error) {
		s := lasso.Spec{M: 256, Blocks: 4}
		p, err := lasso.FromSpec(s)
		if err != nil {
			return nil, err
		}
		return p.Graph, nil
	}
	addrs := startTestWorkers(t, 2, map[string]BuilderFunc{"lasso": buildLasso})
	solve := func(spec admm.ExecutorSpec) *graph.Graph {
		g, err := buildLasso(problem.Spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Solve(context.Background(), g, admm.SolveOptions{Executor: spec, MaxIter: 2000}); err != nil {
			t.Fatalf("%s lasso: %v", spec.Kind, err)
		}
		return g
	}
	got := solve(admm.ExecutorSpec{Kind: admm.ExecSharded, Transport: admm.TransportSockets, Addrs: addrs, Problem: &problem})
	want := solve(admm.ExecutorSpec{Kind: admm.ExecSerial})
	for i := range want.Z {
		if got.Z[i] != want.Z[i] {
			t.Fatalf("lasso diverged from serial at Z[%d]", i)
		}
	}
}

// ringGraph is a ring of n variables of dimension d: a consensus
// function between each pair of neighbours, then a squared norm on each
// variable. Function slow, if there is one, is a sleepyOp on sleep.
func ringGraph(t testing.TB, n, d, slow int, sleep *atomic.Int64) *graph.Graph {
	g := graph.New(d)
	f := 0
	add := func(op graph.Op, vars ...int) {
		if f == slow {
			op = sleepyOp{op, sleep}
		}
		g.AddNode(op, vars...)
		f++
	}
	for i := range n {
		add(prox.Consensus{Dim: d}, i, (i+1)%n)
	}
	for i := range n {
		add(prox.SquaredNorm{C: 0.5, Dim: d}, i)
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	g.SetUniformParams(1, 1)
	g.InitRandom(-1, 1, rand.New(rand.NewSource(1)))
	return g
}

// TestRemoteSlowBlockBigFramesDoesNotTrip: three workers on a ring,
// every pair linked, with 256 KiB boundary frames — more than a unix
// socket's buffer holds — and worker slow computing through 3.5 bounds
// right after it has sent its m-frames. Its sends stay in flight on
// full buffers while it computes and its peers wait on one another
// behind them, but a send in flight is no wait while its worker
// computes, so the block runs to its end, bit-equal to Serial. The
// slow block is the session's first, so its silence clock also spans
// every worker's install of the multi-MB state push, under the same
// shrunk bound: a worker ticks while it installs.
func TestRemoteSlowBlockBigFramesDoesNotTrip(t *testing.T) {
	const bound = 300 * time.Millisecond
	const n, d, shards, iters = 6, 1 << 15, 3, 3
	p, err := newPlan(ringGraph(t, n, d, -1, nil), shards, false)
	if err != nil {
		t.Fatal(err)
	}
	for slow := range shards {
		t.Run(fmt.Sprintf("slow-%d", slow), func(t *testing.T) {
			if len(p.local[slow].xAfter) == 0 {
				t.Fatalf("worker %d computes nothing after sending its m-frames", slow)
			}
			f := p.local[slow].xAfter[0].Lo
			shrinkLiveness(t, bound/10, bound)
			var sleep atomic.Int64
			builders := map[string]BuilderFunc{"ring": func([]byte) (*graph.Graph, error) { return ringGraph(t, n, d, f, &sleep), nil }}
			spec := admm.ExecutorSpec{Kind: admm.ExecSharded, Transport: admm.TransportSockets, Addrs: startTestWorkers(t, shards, builders),
				Problem: &admm.ProblemRef{Workload: "ring", Spec: []byte(`{}`)}}
			g := ringGraph(t, n, d, -1, nil)
			r, err := NewRemote(context.Background(), spec, g)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			var nanos [admm.NumPhases]int64
			sleep.Store(int64(7 * bound / 2))
			start := time.Now()
			if _, err := r.RunBlock(g, admm.Block{Iters: iters}); err != nil {
				t.Fatalf("a slow block failed: %v", err)
			}
			if el := time.Since(start); el < 3*bound {
				t.Fatalf("the block took %v, want at least %v", el, 3*bound)
			}
			ref := ringGraph(t, n, d, -1, nil)
			admm.NewSerialFused().Iterate(ref, iters, &nanos)
			for i := range ref.Z {
				if ref.Z[i] != g.Z[i] {
					t.Fatalf("slow block diverged from serial at Z[%d]", i)
				}
			}
		})
	}
}

// TestRemoteSlowUpDoesNotTrip: the bound is on silence, not on frame
// size. An Up that takes three bounds to arrive, a piece every quarter
// bound, is collected; one whose bytes pause for twice the bound fails
// the collect. The same holds for a control write: a frame the reader
// drains over three bounds is written, and one it stops draining fails.
func TestRemoteSlowUpDoesNotTrip(t *testing.T) {
	const bound = 100 * time.Millisecond
	g, err := buildMPC([]byte(`{"k":8}`))
	if err != nil {
		t.Fatal(err)
	}
	r := plannedRemote(t, g, 2)
	zPrev := make([]float64, len(g.Z))
	up := exchange.AppendFrame(nil, exchange.FrameUp, 0, goldenUp(upWords(&r.plan.local[0], g.D(), true)*8, 0))
	const pieces = 12
	for _, pause := range []time.Duration{0, 2 * bound} {
		coord, worker := net.Pipe()
		r.conns = []net.Conn{coord, nil}
		go func() {
			defer worker.Close()
			for k := range pieces {
				time.Sleep(bound / 4)
				if k == pieces/2 {
					time.Sleep(pause)
				}
				if _, err := worker.Write(up[k*len(up)/pieces : (k+1)*len(up)/pieces]); err != nil {
					return
				}
			}
		}()
		start := time.Now()
		payload, err := r.collect(0, exchange.FrameUp, &blockWatch{r: r, phase: PhaseCollect, bound: bound, progress: start, stuck: make([]time.Duration, 2)})
		if err == nil {
			err = installUp(&r.reps[0], g, &r.plan.local[0], payload, zPrev)
		}
		coord.Close()
		if pause == 0 && (err != nil || time.Since(start) < 3*bound) {
			t.Fatalf("an Up arriving over %v: %v, want it collected after at least %v", time.Since(start), err, 3*bound)
		}
		if pause > 0 && !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("an Up whose bytes pause for %v: %v, want a deadline error", pause, err)
		}
	}

	for _, stop := range []bool{false, true} {
		writer, reader := net.Pipe()
		go func() {
			defer reader.Close()
			buf := make([]byte, (len(up)+pieces-1)/pieces)
			for k := 0; ; k++ {
				time.Sleep(bound / 4)
				if stop && k == pieces/2 {
					time.Sleep(2 * bound)
				}
				if _, err := reader.Read(buf); err != nil {
					return
				}
			}
		}()
		start := time.Now()
		n, err := liveConn{writer, bound}.Write(up)
		writer.Close()
		if !stop && (err != nil || n != len(up) || time.Since(start) < 3*bound) {
			t.Fatalf("a write drained over %v: %d of %d bytes, %v; want all of it", time.Since(start), n, len(up), err)
		}
		if stop && !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("a write whose reader stops for %v: %d bytes, %v; want a deadline error", 2*bound, n, err)
		}
	}
}

// TestBlockWatchRule pins the all-waiting half of the liveness rule on
// its own: a block fails, naming the longest waiter, only once every
// worker still in it reports a wait of the bound; a computing worker
// holds the verdict off; and a wait counts only from the block's start
// or its last Up, whichever is later.
func TestBlockWatchRule(t *testing.T) {
	const bound = time.Second
	watch := func(started time.Duration) *blockWatch {
		r := &Remote{shards: 3, addrs: []string{"w0", "w1", "w2"}}
		return &blockWatch{r: r, phase: PhaseCollect, bound: bound, progress: time.Now().Add(-started), stuck: make([]time.Duration, 3)}
	}
	w := watch(5 * time.Second)
	w.report(0, 1, 3*time.Second)
	w.report(1, -1, 4*time.Second) // computing: its wait does not count
	w.report(2, 0, 2*time.Second)
	if w.verdict != nil {
		t.Fatalf("a computing worker did not hold the verdict off: %v", w.verdict)
	}
	w.report(1, 2, 4*time.Second)
	var we *WorkerError
	if !errors.As(w.verdict, &we) || we.Worker != 1 || we.Phase != PhaseCollect {
		t.Fatalf("every worker waiting the bound: got %v, want a collect-phase verdict naming worker 1, the longest", w.verdict)
	}

	w = watch(5 * time.Second)
	w.finished(2)
	w.report(0, 1, 3*time.Second)
	w.report(1, 0, 3*time.Second)
	if w.verdict != nil {
		t.Fatalf("waits from before worker 2's Up counted: %v", w.verdict)
	}
	w = watch(bound / 2)
	w.report(0, 1, 3*time.Second)
	if w.stuck[0] >= bound {
		t.Fatalf("a wait longer than the block counted as %v", w.stuck[0])
	}
}

// TestRemoteRefusesTamperedUpHeader: worker 0's Up carries a statistics
// header no worker sends — a negative block time, sync wait or
// boundary-z word in its first block, or a cumulative counter (bytes
// moved, wire bytes, frames) below its first block's in the second.
// The block fails with a collect-phase *WorkerError naming worker 0,
// worker 0's slice of the coordinator's graph keeps the state it had,
// and Stats never sees the word.
func TestRemoteRefusesTamperedUpHeader(t *testing.T) {
	builders := chainBuilders(t, 48)
	for word := range upStatsWords {
		cumulative := word >= upStatsWords-3
		t.Run(fmt.Sprintf("word-%d", word), func(t *testing.T) {
			var ups atomic.Int32
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			tl := &tamperListener{ln, func(frame []byte) []byte {
				if frame[4] != exchange.FrameUp {
					return frame
				}
				block := ups.Add(1) - 1
				if cumulative != (block == 1) {
					return frame
				}
				out := append([]byte(nil), frame...)
				v := int64(-1) // a block word below zero
				if cumulative {
					v = 0 // a counter back to zero
				}
				binary.LittleEndian.PutUint64(out[9+8*word:], uint64(v))
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
			defer r.Close()
			if cumulative {
				if _, err := r.RunBlock(g, admm.Block{Iters: 10}); err != nil {
					t.Fatal(err)
				}
			}
			before, stats := append([]float64(nil), g.Z...), r.Stats()
			_, err = r.RunBlock(g, admm.Block{Iters: 10})
			var we *WorkerError
			if !errors.As(err, &we) || we.Worker != 0 || we.Phase != PhaseCollect || !strings.Contains(err.Error(), "up header") {
				t.Fatalf("a tampered header word %d: got %v, want a collect-phase *WorkerError naming worker 0", word, err)
			}
			d := g.D()
			for _, v := range r.plan.local[0].owned {
				for i := v * d; i < (v+1)*d; i++ {
					if g.Z[i] != before[i] {
						t.Fatalf("worker 0's Z[%d] changed after a refused Up", i)
					}
				}
			}
			if after := r.Stats(); after.Iterations != stats.Iterations || after.Workers[0] != stats.Workers[0] {
				t.Fatalf("Stats moved after a refused Up: %+v -> %+v", stats, after)
			}
		})
	}
}

// TestTickPayloadChecked: a Tick must be exactly two words, name a peer
// in -1..shards-1 other than its sender, and carry a wait that is not
// negative.
func TestTickPayloadChecked(t *testing.T) {
	const self, shards = 1, 3
	for _, tc := range []struct {
		payload []byte
		ok      bool
	}{
		{appendTick(nil, -1, 0), true},
		{appendTick(nil, 0, time.Second), true},
		{appendTick(nil, 2, 0), true},
		{appendTick(nil, self, 0), false},
		{appendTick(nil, -2, 0), false},
		{appendTick(nil, shards, 0), false},
		{appendTick(nil, 0, -1), false},
		{appendTick(nil, 0, 0)[:15], false},
		{append(appendTick(nil, 0, 0), 0), false},
		{nil, false},
	} {
		peer, waited, err := decodeTick(tc.payload, self, shards)
		if (err == nil) != tc.ok {
			t.Errorf("tick %x: peer %d, waited %v, err %v; want ok=%t", tc.payload, peer, waited, err, tc.ok)
		}
	}
}

// goldenUps reads the Up lengths each worker sent in
// testdata/session.golden.
func goldenUps(tb testing.TB) [][]int {
	tb.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "session.golden"))
	if err != nil {
		tb.Fatal(err)
	}
	var ups [][]int
	up := regexp.MustCompile(`^up +Up\(\d+\) (\d+) `)
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "worker ") {
			ups = append(ups, nil)
		}
		if m := up.FindStringSubmatch(line); m != nil {
			n, _ := strconv.Atoi(m[1])
			ups[len(ups)-1] = append(ups[len(ups)-1], n)
		}
	}
	return ups
}

// goldenUp builds the payload of a worker's block-th Up with a header
// a worker could send: positive block times, counters growing by block.
func goldenUp(n, block int) []byte {
	p := make([]byte, n)
	for i := range upStatsWords {
		binary.LittleEndian.PutUint64(p[8*i:], uint64(1000*(block+1)+i))
	}
	return p
}

// FuzzRemoteCollect feeds one worker's side of a session — any bytes,
// seeded with the Up frames of testdata/session.golden, Ticks, an Err,
// and headers a worker never sends — to Remote.collect against the
// golden's real plan (mpc k=8, two workers, zPrev captured), one
// collect per block until the input runs out or a collect refuses it.
// It must not panic, every collect must return, the heap may grow by at
// most 16 bytes per input byte plus 256 KiB, and the Stats counters
// every accepted block leaves must be non-negative and monotone. The
// first input byte picks the worker.
func FuzzRemoteCollect(f *testing.F) {
	for w, ups := range goldenUps(f) {
		var stream []byte
		for b, n := range ups {
			stream = exchange.AppendFrame(stream, exchange.FrameTick, 0, appendTick(nil, 1-w, time.Duration(b)))
			stream = exchange.AppendFrame(stream, exchange.FrameUp, 0, goldenUp(n, b))
		}
		f.Add(append([]byte{byte(w)}, stream...))
		up := goldenUp(ups[0], 0)
		binary.LittleEndian.PutUint64(up[8*int(admm.NumPhases):], 1<<63) // a negative sync wait
		f.Add(append([]byte{byte(w)}, exchange.AppendFrame(nil, exchange.FrameUp, 0, up)...))
		back := exchange.AppendFrame(nil, exchange.FrameUp, 0, goldenUp(ups[0], 1))
		f.Add(append([]byte{byte(w)}, exchange.AppendFrame(back, exchange.FrameUp, 0, goldenUp(ups[0], 0))...))
		f.Add(append([]byte{byte(w)}, exchange.AppendFrame(nil, exchange.FrameTick, 0, appendTick(nil, w, 0))...))
		f.Add(append([]byte{byte(w)}, exchange.AppendFrame(nil, exchange.FrameErr, 0, []byte("boom"))...))
	}
	f.Add([]byte{0, 0, 0, 0, 0x10}) // a header declaring MaxFrameLen
	problem := []byte(`{"k":8}`)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		w, stream := int(data[0]%2), data[1:]
		// The fuzzing engine allocates on other goroutines of this
		// process, so a run is charged the smaller of two.
		grown := uint64(1 << 62)
		for range 2 {
			g, err := buildMPC(problem)
			if err != nil {
				t.Fatal(err)
			}
			r := plannedRemote(t, g, 2)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			collectAll(t, r, w, stream)
			runtime.ReadMemStats(&after)
			grown = min(grown, after.TotalAlloc-before.TotalAlloc)
		}
		if limit := 16*uint64(len(data)) + 256<<10; grown > limit {
			t.Fatalf("collecting %d bytes allocated %d, want at most %d", len(data), grown, limit)
		}
	})
}

// plannedRemote is a Remote as NewRemote plans it for shards workers,
// before any handshake.
func plannedRemote(t *testing.T, g *graph.Graph, shards int) *Remote {
	p, err := newPlan(g, shards, false)
	if err != nil {
		t.Fatal(err)
	}
	r := &Remote{shards: shards, addrs: make([]string, shards), g: g, plan: p,
		bufs: make([][]byte, shards), reps: make([]blockReport, shards)}
	r.stats = p.shapeStats(admm.TransportSockets)
	return r
}

// collectAll runs worker w's collects over stream until one fails,
// checking the Stats each accepted block leaves.
func collectAll(t *testing.T, r *Remote, w int, stream []byte) {
	var ends [2]net.Conn
	r.conns = make([]net.Conn, r.shards)
	for i := range r.conns {
		r.conns[i], ends[i] = net.Pipe()
		defer r.conns[i].Close()
		defer ends[i].Close()
	}
	go func() {
		ends[w].Write(stream)
		ends[w].Close()
	}()
	zPrev := make([]float64, len(r.g.Z))
	var nanos, prevNanos [admm.NumPhases]int64
	prev := r.Stats()
	for {
		done := make(chan error, 1)
		watch := &blockWatch{r: r, phase: PhaseCollect, bound: time.Second, progress: time.Now(), stuck: make([]time.Duration, r.shards)}
		go func() {
			payload, err := r.collect(w, exchange.FrameUp, watch)
			if err == nil {
				err = installUp(&r.reps[w], r.g, &r.plan.local[w], payload, zPrev)
			}
			done <- err
		}()
		var err error
		select {
		case err = <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("collect did not return")
		}
		if err != nil {
			return
		}
		// RunBlock's fold of the reports into Stats.
		for p, v := range r.stats.endBlock(1, r.reps, exchange.Stats{Rounds: r.stats.Iterations + 1}) {
			nanos[p] += v
		}
		s := r.Stats()
		for p, v := range nanos {
			if v < prevNanos[p] {
				t.Fatalf("phase %d went from %d to %d ns", p, prevNanos[p], v)
			}
		}
		prevNanos = nanos
		straggles := int64(0)
		for i, v := range s.Workers {
			old := prev.Workers[i]
			for p := range v.PhaseNanos {
				if v.PhaseNanos[p] < old.PhaseNanos[p] {
					t.Fatalf("worker %d phase %d went from %d to %d ns", i, p, old.PhaseNanos[p], v.PhaseNanos[p])
				}
			}
			if v.SyncWait < old.SyncWait || v.BoundaryZ < old.BoundaryZ || v.Straggles < old.Straggles {
				t.Fatalf("worker %d went from %+v to %+v", i, old, v)
			}
			straggles += v.Straggles
		}
		if straggles != s.Iterations {
			t.Fatalf("%d straggles after %d one-iteration blocks, want one per block", straggles, s.Iterations)
		}
		if s.SyncWaitNanos != s.Workers[0].SyncWait || s.BoundaryZNanos != s.Workers[0].BoundaryZ ||
			s.ExchangeFrames < prev.ExchangeFrames || s.Iterations != prev.Iterations+1 ||
			s.BytesPerIter < 0 || s.WireBytesPerIter < 0 {
			t.Fatalf("Stats went from %+v to %+v", prev, s)
		}
		prev = s
	}
}
