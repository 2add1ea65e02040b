package exchange

import (
	"bytes"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/prox"
)

// pipeReader reports what the goroutine inside bufferedPipe.Read is
// doing, read from the goroutine dump so the tests wait on the event
// itself and never on a sleep: "" (nobody is reading), "parked" (blocked
// in cond.Wait) or "spinning" (anywhere else in Read).
func pipeReader() string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	state := ""
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if !bytes.Contains(g, []byte("bufferedPipe).Read")) {
			continue
		}
		if bytes.Contains(g, []byte("sync.(*Cond).Wait")) {
			return "parked"
		}
		state = "spinning"
	}
	return state
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

type readResult struct {
	data string
	err  error
}

func readAsync(p *bufferedPipe) <-chan readResult {
	out := make(chan readResult, 1)
	go func() {
		b := make([]byte, 16)
		n, err := p.Read(b)
		out <- readResult{string(b[:n]), err}
	}()
	return out
}

// TestPipeReadSpinsBeforeParking: a reader that arrives before the
// writer yield-spins, and when the write lands inside the spin budget it
// returns the bytes without ever parking. On one P the schedule is
// forced: the reader can only burn a yield by handing the P to this
// goroutine, which needs two turns to see it and write — far inside the
// budget — and a reader that parked on arrival (the old pipe) would
// show as parked the first time this goroutine looks.
func TestPipeReadSpinsBeforeParking(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p := newBufferedPipe()
	got := readAsync(p)
	var seen string
	waitFor(t, "the reader to enter Read", func() bool {
		seen = pipeReader()
		return seen != ""
	})
	if seen != "spinning" {
		t.Fatalf("reader is %s on arrival, want spinning", seen)
	}
	if _, err := p.Write([]byte("frame")); err != nil {
		t.Fatal(err)
	}
	if r := <-got; r.err != nil || r.data != "frame" {
		t.Fatalf("read %q, %v", r.data, r.err)
	}
}

// TestPipeReadParksThenWakes: a reader that outlasts the spin budget
// gets off the CPU, and both a Write and a Close (EOF) wake it.
func TestPipeReadParksThenWakes(t *testing.T) {
	for _, wake := range []string{"write", "close"} {
		p := newBufferedPipe()
		got := readAsync(p)
		waitFor(t, "the reader to park", func() bool { return pipeReader() == "parked" })
		if wake == "write" {
			if _, err := p.Write([]byte("late")); err != nil {
				t.Fatal(err)
			}
			if r := <-got; r.err != nil || r.data != "late" {
				t.Fatalf("woken by write: read %q, %v", r.data, r.err)
			}
		} else {
			p.Close()
			if r := <-got; r.err != io.EOF || r.data != "" {
				t.Fatalf("woken by close: read %q, %v, want EOF", r.data, r.err)
			}
		}
		waitFor(t, "the reader to leave Read", func() bool { return pipeReader() == "" })
	}
}

// TestPipeCloseReleasesEveryReader: Close reaches readers wherever they
// are in the wait — still spinning or already parked — unread bytes are
// delivered before EOF, and nobody is left spinning afterwards.
func TestPipeCloseReleasesEveryReader(t *testing.T) {
	p := newBufferedPipe()
	var results []<-chan readResult
	for i := 0; i < 4; i++ {
		results = append(results, readAsync(p))
	}
	waitFor(t, "a reader to park", func() bool { return pipeReader() == "parked" })
	// Two more arrive and are closed on mid-spin.
	results = append(results, readAsync(p), readAsync(p))
	p.Close()
	for i, r := range results {
		if got := <-r; got.err != io.EOF {
			t.Fatalf("reader %d: read %q, %v, want EOF", i, got.data, got.err)
		}
	}
	waitFor(t, "every reader to leave Read", func() bool { return pipeReader() == "" })

	q := newBufferedPipe()
	if _, err := q.Write([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	q.Close()
	if r := <-readAsync(q); r.err != nil || r.data != "tail" {
		t.Fatalf("closed pipe with unread bytes: read %q, %v", r.data, r.err)
	}
	if r := <-readAsync(q); r.err != io.EOF {
		t.Fatalf("drained closed pipe: read %q, %v, want EOF", r.data, r.err)
	}
	if _, err := q.Write([]byte("x")); err != io.ErrClosedPipe {
		t.Fatalf("write after close: %v, want ErrClosedPipe", err)
	}
}

// BenchmarkLoopbackRound is one iteration's worth of loopback exchange
// on a 2-shard star whose hub is the boundary (m-blocks flow to the
// owner, z flows back): GatherM and ScatterZ, each after some tens of
// microseconds of private compute as in a sharded iteration, both
// workers running. The compute is part of the measurement on purpose:
// with nothing between the crossings the two goroutines hand one P back
// and forth and a parked reader resumes without a futex wake, which no
// real iteration gets. ns/op is the whole round, so compare runs — the
// wait policy of bufferedPipe.Read is the difference (parking on every
// empty read costs about 70 us a round more than sched.SpinThenPark here).
func BenchmarkLoopbackRound(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	g := graph.New(4)
	for i := 0; i < 16; i++ {
		g.AddNode(prox.Identity{}, 0)
	}
	if err := g.Finalize(); err != nil {
		b.Fatal(err)
	}
	p, err := graph.NewPartition(g, 2, graph.StrategyBalanced)
	if err != nil {
		b.Fatal(err)
	}
	ex := NewLoopback(g, NewManifest(g, &p, 2), true)
	defer ex.Close()
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			work := make([]float64, 32768)
			compute := func() {
				for i := range work {
					work[i] = work[i]*0.5 + 1
				}
			}
			for i := 0; i < b.N; i++ {
				compute()
				ex.GatherM(w)
				compute()
				ex.ScatterZ(w)
			}
		}(w)
	}
	wg.Wait()
}
