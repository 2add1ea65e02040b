package shard

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/exchange"
)

// WorkerHealth is one worker endpoint's probe result.
type WorkerHealth struct {
	// Addr is the worker's control endpoint as given to the probe.
	Addr string `json:"addr"`
	// Alive reports whether the endpoint answered a FramePing with a
	// well-formed FramePong inside the probe deadline.
	Alive bool `json:"alive"`
	// Busy reports whether the worker had a session running when probed
	// (a busy worker is alive — it still answers probes from its accept
	// loop — but a new handshake against it would be refused until the
	// session ends).
	Busy bool `json:"busy,omitempty"`
	// Sessions is the worker's completed-session count since it started.
	Sessions int `json:"sessions,omitempty"`
	// RTT is the probe round-trip: dial through pong.
	RTT time.Duration `json:"rtt_ns,omitempty"`
	// Err is the failure description when Alive is false.
	Err string `json:"err,omitempty"`
}

// ProbeWorkers health-checks worker endpoints in parallel by speaking
// the probe protocol: dial, send FramePing, read FramePong. The probe
// rides the control port but never opens a session, so it is safe
// against a worker that is mid-solve for another coordinator (the
// accept loop answers pings concurrently). timeout bounds each probe
// end-to-end (<= 0 falls back to the liveness bound); ctx cancellation
// aborts in-flight probes early. The result is indexed like addrs.
func ProbeWorkers(ctx context.Context, addrs []string, timeout time.Duration) []WorkerHealth {
	if timeout <= 0 {
		timeout = time.Duration(liveBound.Load())
	}
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]WorkerHealth, len(addrs))
	var wg sync.WaitGroup
	for i, addr := range addrs {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			out[i] = probeWorker(ctx, addr, timeout)
		}(i, addr)
	}
	wg.Wait()
	return out
}

func probeWorker(ctx context.Context, addr string, timeout time.Duration) WorkerHealth {
	h := WorkerHealth{Addr: addr}
	start := time.Now()
	fail := func(err error) WorkerHealth {
		h.Alive = false
		h.Err = (&WorkerError{Addr: addr, Phase: PhaseProbe, Err: err}).Error()
		return h
	}
	// The whole exchange, dial included, shares one absolute deadline; a
	// ctx watchdog closes the connection to interrupt a probe that
	// should stop early.
	ctx, cancel := context.WithDeadline(ctx, start.Add(timeout))
	defer cancel()
	conn, err := DialAddr(ctx, addr)
	if err != nil {
		return fail(err)
	}
	defer conn.Close()
	conn.SetDeadline(start.Add(timeout))
	watch := make(chan struct{})
	defer close(watch)
	go func() {
		select {
		case <-ctx.Done():
			conn.Close()
		case <-watch:
		}
	}()
	if err := exchange.WriteFrame(conn, exchange.FramePing, 0, nil); err != nil {
		return fail(err)
	}
	f, _, err := exchange.ReadFrame(conn, nil)
	if err != nil {
		return fail(err)
	}
	if f.Kind != exchange.FramePong {
		return fail(fmt.Errorf("unexpected probe reply kind %d", f.Kind))
	}
	var pong wirePong
	if err := decodeJSONFrame(f, &pong); err != nil {
		return fail(err)
	}
	h.Alive = true
	h.Busy = pong.Active
	h.Sessions = pong.Sessions
	h.RTT = time.Since(start)
	return h
}
