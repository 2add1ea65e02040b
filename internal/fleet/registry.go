// Package fleet promotes a set of paradmm-shardworker processes from
// per-solve dial targets into a long-lived serve fleet. A Registry
// tracks each worker through a probe-driven state machine (joining →
// healthy → suspect → dead, and back on recovery) and leases each
// worker's one session slot (maxInFlight), so concurrent solves never
// oversubscribe a worker; each solve dials its leased workers on
// demand. The admission planner (planner.go) consults the registry's
// live load and the auto policy's rule (admm.ShardingPays) to route
// each solve local, remote, or shed.
package fleet

import (
	"context"
	"errors"
	"sort"
	"sync"
	"time"

	"repro/internal/admm"
	"repro/internal/shard"
)

// State is a registry worker's lifecycle position.
type State string

const (
	// StateJoining: registered but never yet seen alive. A joining
	// worker takes no traffic; it either proves itself (→ healthy) or
	// exhausts DeadAfter probes (→ dead).
	StateJoining State = "joining"
	// StateHealthy: the last probe answered. Only healthy workers are
	// leased to solves.
	StateHealthy State = "healthy"
	// StateSuspect: healthy until the most recent probe(s) failed, but
	// not yet past the DeadAfter threshold. Suspect workers take no new
	// leases; in-flight solves are left to the failover layer.
	StateSuspect State = "suspect"
	// StateDead: DeadAfter consecutive probes failed. A dead worker
	// stays registered and keeps being probed — one successful probe
	// rejoins it as healthy.
	StateDead State = "dead"
)

// ProbeFunc is the health-probe dependency, shard.ProbeWorkers-shaped.
// Tests inject scripted probes to drive the state machine without a
// network.
type ProbeFunc func(ctx context.Context, addrs []string, timeout time.Duration) []shard.WorkerHealth

// Config parameterizes a Registry. The zero value of every field has a
// usable default except Addrs, which is required.
type Config struct {
	// Addrs are the worker control endpoints ("host:port" or
	// "unix:/path"), fixed for the registry's lifetime.
	Addrs []string
	// ProbeInterval is Run's period between probe rounds (default 2s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds each worker's probe end-to-end (default 1s).
	ProbeTimeout time.Duration
	// DeadAfter is the consecutive-failure count that moves a worker
	// (joining or suspect) to dead (default 3).
	DeadAfter int
	// Now is the clock (default time.Now). Tests inject a fake clock so
	// state timestamps are deterministic.
	Now func() time.Time
	// Probe is the health prober (default shard.ProbeWorkers).
	Probe ProbeFunc
	// Logf, when set, receives state-transition log lines.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 3
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Probe == nil {
		c.Probe = shard.ProbeWorkers
	}
	return c
}

// maxInFlight is every worker's lease cap: a shardworker runs one
// session at a time, queues one opener and refuses the rest as busy, so
// a second lease on a worker would only queue behind the first.
const maxInFlight = 1

var errNoAddrs = errors.New("fleet: registry needs at least one worker address")

type dupAddrError struct{ addr string }

func (e *dupAddrError) Error() string {
	return "fleet: duplicate worker address " + e.addr
}

// Worker is one endpoint's registry snapshot.
type Worker struct {
	Addr  string `json:"addr"`
	State State  `json:"state"`
	// Fails is the current consecutive probe-failure streak.
	Fails int `json:"consecutive_failures,omitempty"`
	// InFlight is the worker's live leased-solve count, at most
	// maxInFlight — the planner's load signal (never probe RTT, which
	// says how fast the accept loop answered, not whether a session slot
	// is free).
	InFlight int `json:"in_flight"`
	// Solves counts leases released against this worker.
	Solves uint64 `json:"solves_total"`
	// Busy/Sessions/RTT mirror the last successful probe.
	Busy     bool          `json:"busy,omitempty"`
	Sessions int           `json:"sessions,omitempty"`
	RTT      time.Duration `json:"rtt_ns,omitempty"`
	// LastErr is the last failed probe's description.
	LastErr string `json:"last_err,omitempty"`
	// LastProbe / LastChange are registry-clock timestamps of the most
	// recent probe and state transition.
	LastProbe  time.Time `json:"last_probe"`
	LastChange time.Time `json:"last_change"`
}

// Stats aggregates the registry for metrics export.
type Stats struct {
	Rounds   uint64        `json:"probe_rounds"`
	States   map[State]int `json:"states"`
	InFlight int           `json:"in_flight"`
	Solves   uint64        `json:"solves_total"`
}

// Registry tracks a fixed worker set through probe rounds and lease
// traffic. All methods are safe for concurrent use.
type Registry struct {
	cfg Config

	mu      sync.Mutex
	workers []*Worker
	rounds  uint64
}

// New builds a registry over the configured addresses; every worker
// starts joining. Two spellings of one endpoint (admm.EndpointKey) are
// one worker and refused. New never dials — call ProbeOnce or Run to
// discover the fleet.
func New(cfg Config) (*Registry, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Addrs) == 0 {
		return nil, errNoAddrs
	}
	seen := make(map[string]bool, len(cfg.Addrs))
	r := &Registry{cfg: cfg}
	now := cfg.Now()
	for _, addr := range cfg.Addrs {
		key := admm.EndpointKey(addr)
		if seen[key] {
			return nil, &dupAddrError{addr}
		}
		seen[key] = true
		r.workers = append(r.workers, &Worker{
			Addr: addr, State: StateJoining, LastChange: now,
		})
	}
	return r, nil
}

// ProbeOnce runs one probe round and applies the state machine:
//
//	any     + ok   → healthy (fail streak reset)
//	healthy + fail → suspect
//	suspect + fail → suspect until the streak reaches DeadAfter → dead
//	joining + fail → joining until the streak reaches DeadAfter → dead
//	dead    + fail → dead
//
// The returned slice is the post-round snapshot. Deterministic given an
// injected Probe and Now.
func (r *Registry) ProbeOnce(ctx context.Context) []Worker {
	health := r.cfg.Probe(ctx, r.cfg.Addrs, r.cfg.ProbeTimeout)
	now := r.cfg.Now()

	r.mu.Lock()
	r.rounds++
	for i, w := range r.workers {
		h := health[i]
		w.LastProbe = now
		if h.Alive {
			w.Fails, w.LastErr = 0, ""
			w.Busy, w.Sessions, w.RTT = h.Busy, h.Sessions, h.RTT
			if w.State != StateHealthy {
				r.transition(w, StateHealthy, now)
			}
			continue
		}
		w.Fails++
		w.LastErr = h.Err
		w.Busy = false
		switch w.State {
		case StateHealthy:
			// With DeadAfter <= 1 there is no grace round: the worker is
			// declared dead within the probe interval that saw it fail.
			if w.Fails >= r.cfg.DeadAfter {
				r.transition(w, StateDead, now)
			} else {
				r.transition(w, StateSuspect, now)
			}
		case StateSuspect, StateJoining:
			if w.Fails >= r.cfg.DeadAfter {
				r.transition(w, StateDead, now)
			}
		}
	}
	snap := r.snapshotLocked()
	r.mu.Unlock()
	return snap
}

// Run probes immediately, then on every ProbeInterval tick until ctx is
// cancelled.
func (r *Registry) Run(ctx context.Context) {
	r.ProbeOnce(ctx)
	t := time.NewTicker(r.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			r.ProbeOnce(ctx)
		}
	}
}

// Snapshot returns the current per-worker view, indexed like
// Config.Addrs.
func (r *Registry) Snapshot() []Worker {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.snapshotLocked()
}

// Stats aggregates the snapshot for metrics.
func (r *Registry) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := Stats{Rounds: r.rounds, States: map[State]int{}}
	for _, w := range r.workers {
		st.States[w.State]++
		st.InFlight += w.InFlight
		st.Solves += w.Solves
	}
	return st
}

func (r *Registry) snapshotLocked() []Worker {
	out := make([]Worker, len(r.workers))
	for i, w := range r.workers {
		out[i] = *w
	}
	return out
}

func (r *Registry) transition(w *Worker, to State, now time.Time) {
	if r.cfg.Logf != nil {
		r.cfg.Logf("fleet: worker %s: %s -> %s (fails=%d)", w.Addr, w.State, to, w.Fails)
	}
	w.State = to
	w.LastChange = now
}

// Lease is a claim on the session slot of one or more healthy workers.
// Release returns the slots; a Lease must be released exactly once
// (further calls are no-ops) and a nil Lease releases safely.
type Lease struct {
	// Addrs are the leased worker endpoints, least-loaded first.
	Addrs []string

	r        *Registry
	released bool
}

// Acquire leases up to want session slots from distinct healthy
// workers, preferring the least-loaded (live in-flight count, ties by
// registration order). It returns nil when no healthy worker has a
// free slot; callers decide whether a short lease is worth keeping.
func (r *Registry) Acquire(want int) *Lease {
	if want <= 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var avail []*Worker
	for _, w := range r.workers {
		if w.State == StateHealthy && w.InFlight < maxInFlight {
			avail = append(avail, w)
		}
	}
	if len(avail) == 0 {
		return nil
	}
	sort.SliceStable(avail, func(i, j int) bool { return avail[i].InFlight < avail[j].InFlight })
	if len(avail) > want {
		avail = avail[:want]
	}
	l := &Lease{r: r}
	for _, w := range avail {
		w.InFlight++
		l.Addrs = append(l.Addrs, w.Addr)
	}
	return l
}

// Release returns the lease's slots and counts one solve per worker.
func (l *Lease) Release() {
	if l == nil {
		return
	}
	l.r.mu.Lock()
	defer l.r.mu.Unlock()
	if l.released {
		return
	}
	l.released = true
	for _, addr := range l.Addrs {
		for _, w := range l.r.workers {
			if w.Addr == addr {
				if w.InFlight > 0 {
					w.InFlight--
				}
				w.Solves++
				break
			}
		}
	}
}
