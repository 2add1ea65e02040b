package fleet_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/fleet"
	"repro/internal/shard"
)

// fakeClock is the injected registry clock: time moves only when the
// test says so, making every LastProbe/LastChange stamp deterministic.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
	return c.t
}

// scriptProbe replays scripted per-round health results; rounds beyond
// the script repeat the last one.
type scriptProbe struct {
	mu     sync.Mutex
	rounds [][]shard.WorkerHealth
	next   int
}

func (s *scriptProbe) probe(ctx context.Context, addrs []string, timeout time.Duration) []shard.WorkerHealth {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := s.next
	if i >= len(s.rounds) {
		i = len(s.rounds) - 1
	}
	s.next++
	return s.rounds[i]
}

// round builds one scripted probe result; a non-empty err marks the
// worker down with that failure.
func round(addrs []string, errs ...string) []shard.WorkerHealth {
	out := make([]shard.WorkerHealth, len(addrs))
	for i, addr := range addrs {
		out[i] = shard.WorkerHealth{Addr: addr, Alive: errs[i] == "", Err: errs[i]}
	}
	return out
}

func states(ws []fleet.Worker) []fleet.State {
	out := make([]fleet.State, len(ws))
	for i, w := range ws {
		out[i] = w.State
	}
	return out
}

// TestRegistryStateMachine drives every transition of the worker
// lifecycle with an injected clock and scripted probe results — no
// network, no sleeps: joining→healthy on first contact,
// healthy→suspect on a failed probe, suspect→dead at the DeadAfter
// streak, and dead→healthy on recovery.
func TestRegistryStateMachine(t *testing.T) {
	addrs := []string{"hostA:1", "hostB:1"}
	probe := &scriptProbe{rounds: [][]shard.WorkerHealth{
		round(addrs, "", ""),                          // 1: both up
		round(addrs, "probe: connection refused", ""), // 2: A refused
		round(addrs, "probe: i/o timeout", ""),        // 3: A times out
		round(addrs, "probe: connection refused", ""), // 4: A still down
		round(addrs, "probe: connection refused", ""), // 5: A stays dead
		round(addrs, "", ""),                          // 6: A recovers
	}}
	clk := newFakeClock()
	r, err := fleet.New(fleet.Config{
		Addrs: addrs, DeadAfter: 3, Now: clk.Now, Probe: probe.probe,
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Before any probe: everything is joining and nothing is leasable.
	for _, w := range r.Snapshot() {
		if w.State != fleet.StateJoining {
			t.Fatalf("pre-probe state %q, want joining", w.State)
		}
	}
	if l := r.Acquire(2); l != nil {
		t.Fatalf("leased %v from an unprobed fleet", l.Addrs)
	}

	step := func(wantA, wantB fleet.State, wantFailsA int) []fleet.Worker {
		t.Helper()
		now := clk.Advance(2 * time.Second)
		ws := r.ProbeOnce(ctx)
		if got := states(ws); got[0] != wantA || got[1] != wantB {
			t.Fatalf("states %v, want [%s %s]", got, wantA, wantB)
		}
		if ws[0].Fails != wantFailsA {
			t.Fatalf("worker A fail streak %d, want %d", ws[0].Fails, wantFailsA)
		}
		if !ws[0].LastProbe.Equal(now) || !ws[1].LastProbe.Equal(now) {
			t.Fatalf("LastProbe not stamped with the injected clock: %v vs %v", ws[0].LastProbe, now)
		}
		return ws
	}

	step(fleet.StateHealthy, fleet.StateHealthy, 0) // round 1: joining → healthy
	ws := step(fleet.StateSuspect, fleet.StateHealthy, 1)
	if ws[0].LastErr == "" {
		t.Fatal("suspect worker lost its probe error")
	}
	suspectAt := ws[0].LastChange
	ws = step(fleet.StateSuspect, fleet.StateHealthy, 2) // round 3: still suspect
	if !ws[0].LastChange.Equal(suspectAt) {
		t.Fatal("LastChange moved without a state transition")
	}
	ws = step(fleet.StateDead, fleet.StateHealthy, 3) // round 4: streak hits DeadAfter
	if !ws[0].LastChange.After(suspectAt) {
		t.Fatal("dead transition did not restamp LastChange")
	}
	step(fleet.StateDead, fleet.StateHealthy, 4)         // round 5: dead stays dead
	ws = step(fleet.StateHealthy, fleet.StateHealthy, 0) // round 6: rejoin
	if ws[0].LastErr != "" {
		t.Fatal("rejoined worker kept a stale probe error")
	}

	st := r.Stats()
	if st.Rounds != 6 {
		t.Fatalf("probe rounds %d, want 6", st.Rounds)
	}
	if st.States[fleet.StateHealthy] != 2 {
		t.Fatalf("healthy count %d, want 2 (%v)", st.States[fleet.StateHealthy], st.States)
	}
}

// TestRegistryJoiningToDead: a worker that never answers moves joining
// → dead after DeadAfter probes without ever passing through suspect
// (suspect means "was healthy"), and is never leasable.
func TestRegistryJoiningToDead(t *testing.T) {
	addrs := []string{"gone:1"}
	probe := &scriptProbe{rounds: [][]shard.WorkerHealth{
		round(addrs, "probe: connection refused"),
	}}
	clk := newFakeClock()
	r, err := fleet.New(fleet.Config{Addrs: addrs, DeadAfter: 2, Now: clk.Now, Probe: probe.probe})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if ws := r.ProbeOnce(ctx); ws[0].State != fleet.StateJoining || ws[0].Fails != 1 {
		t.Fatalf("after one failure: %s fails=%d, want joining fails=1", ws[0].State, ws[0].Fails)
	}
	if ws := r.ProbeOnce(ctx); ws[0].State != fleet.StateDead {
		t.Fatalf("after DeadAfter failures: %s, want dead", ws[0].State)
	}
	if l := r.Acquire(1); l != nil {
		t.Fatalf("leased a dead worker: %v", l.Addrs)
	}
}

// TestRegistryLeases pins the lease accounting: least-loaded-first
// selection, the MaxInFlight cap, exhaustion, release idempotence, and
// that suspect workers take no new leases.
func TestRegistryLeases(t *testing.T) {
	addrs := []string{"a:1", "b:1", "c:1"}
	probe := &scriptProbe{rounds: [][]shard.WorkerHealth{
		round(addrs, "", "", ""),
		round(addrs, "probe: connection refused", "", ""),
	}}
	r, err := fleet.New(fleet.Config{Addrs: addrs, MaxInFlight: 2, Now: newFakeClock().Now, Probe: probe.probe})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	r.ProbeOnce(ctx)

	expect := func(l *fleet.Lease, want ...string) {
		t.Helper()
		if l == nil {
			t.Fatalf("lease refused, want %v", want)
		}
		if len(l.Addrs) != len(want) {
			t.Fatalf("leased %v, want %v", l.Addrs, want)
		}
		for i := range want {
			if l.Addrs[i] != want[i] {
				t.Fatalf("leased %v, want %v", l.Addrs, want)
			}
		}
	}
	l1 := r.Acquire(2)
	expect(l1, "a:1", "b:1") // all idle: registration order
	l2 := r.Acquire(2)
	expect(l2, "c:1", "a:1") // c idle beats a/b at one in-flight
	l3 := r.Acquire(3)
	expect(l3, "b:1", "c:1") // a is at the cap
	if l := r.Acquire(1); l != nil {
		t.Fatalf("leased %v from a saturated fleet", l.Addrs)
	}

	l1.Release()
	l1.Release() // idempotent
	var nilLease *fleet.Lease
	nilLease.Release() // nil-safe
	l2.Release()
	l3.Release()
	total := uint64(0)
	for _, w := range r.Snapshot() {
		if w.InFlight != 0 {
			t.Fatalf("worker %s still shows %d in flight after release", w.Addr, w.InFlight)
		}
		total += w.Solves
	}
	if total != 6 {
		t.Fatalf("solves_total %d, want 6 (three leases over two workers each)", total)
	}

	// Round 2 marks a suspect: it must take no new leases.
	r.ProbeOnce(ctx)
	expect(r.Acquire(3), "b:1", "c:1")
}

// TestRegistryProbesScriptedListeners runs the real probe protocol
// against faultnet-scripted listeners: a healthy worker, one whose
// first connections are refused (dead, then rejoin once the script
// lets a connection through), and one that accepts and stalls without
// ever answering (probe timeout). Rounds are driven by ProbeOnce — no
// interval sleeps.
func TestRegistryProbesScriptedListeners(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string, script faultnet.Script) string {
		addr := "unix:" + dir + "/" + name + ".sock"
		ln, err := shard.ListenAddr(addr)
		if err != nil {
			t.Fatal(err)
		}
		fln := faultnet.WrapListener(ln, script)
		t.Cleanup(func() { fln.Close() })
		go shard.ServeWorker(fln, shard.WorkerOptions{})
		return addr
	}
	stallAll := func(int) faultnet.Plan {
		// The worker reads one byte of the ping and then the stream goes
		// silent: the probe's only way out is its deadline.
		return faultnet.Plan{In: faultnet.Cut{AfterBytes: 1, Stall: true}}
	}
	addrs := []string{
		mk("ok", nil),
		mk("refuse", faultnet.Plans(faultnet.Plan{Refuse: true}, faultnet.Plan{Refuse: true})),
		mk("stall", stallAll),
	}
	r, err := fleet.New(fleet.Config{
		Addrs: addrs, DeadAfter: 2, ProbeTimeout: 250 * time.Millisecond,
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	ws := r.ProbeOnce(ctx)
	if got := states(ws); got[0] != fleet.StateHealthy || got[1] != fleet.StateJoining || got[2] != fleet.StateJoining {
		t.Fatalf("round 1 states %v, want [healthy joining joining]", got)
	}
	if ws[1].LastErr == "" || ws[2].LastErr == "" {
		t.Fatalf("failed probes carried no error: %+v", ws[1:])
	}
	ws = r.ProbeOnce(ctx)
	if got := states(ws); got[1] != fleet.StateDead || got[2] != fleet.StateDead {
		t.Fatalf("round 2 states %v, want refused and stalled workers dead", got)
	}
	// Round 3: the refuse script is exhausted, so that worker's next
	// connection reaches the accept loop and it rejoins; the staller
	// stays dead.
	ws = r.ProbeOnce(ctx)
	if got := states(ws); got[0] != fleet.StateHealthy || got[1] != fleet.StateHealthy || got[2] != fleet.StateDead {
		t.Fatalf("round 3 states %v, want [healthy healthy dead]", got)
	}
}

// TestRegistryRun: the probe loop fires immediately and then on every
// tick until the context is cancelled.
func TestRegistryRun(t *testing.T) {
	addrs := []string{"a:1"}
	fired := make(chan struct{}, 16)
	probe := func(ctx context.Context, a []string, timeout time.Duration) []shard.WorkerHealth {
		select {
		case fired <- struct{}{}:
		default:
		}
		return round(addrs, "")
	}
	r, err := fleet.New(fleet.Config{
		Addrs: addrs, ProbeInterval: 5 * time.Millisecond, Now: newFakeClock().Now, Probe: probe,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		r.Run(ctx)
		close(done)
	}()
	for i := 0; i < 3; i++ {
		select {
		case <-fired:
		case <-time.After(10 * time.Second):
			t.Fatal("probe loop stalled")
		}
	}
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not exit on cancel")
	}
	if st := r.Stats(); st.Rounds < 3 {
		t.Fatalf("probe rounds %d, want >= 3", st.Rounds)
	}
}

// TestRegistryConfigErrors: an empty address list is rejected at
// construction, and so is one that names a worker twice — as the same
// string or as two spellings of one endpoint.
func TestRegistryConfigErrors(t *testing.T) {
	if _, err := fleet.New(fleet.Config{}); err == nil {
		t.Fatal("New accepted an empty fleet")
	}
	for _, addrs := range [][]string{
		{"a:1", "a:1"},
		{"tcp:127.0.0.1:9001", "127.0.0.1:9001"},
		{"unix:/a//b", "/a/b"},
	} {
		if _, err := fleet.New(fleet.Config{Addrs: addrs}); err == nil {
			t.Errorf("New accepted %q, which names one worker twice", addrs)
		}
	}
}
