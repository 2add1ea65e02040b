// Cross-process transport integration: a coordinator in this process
// drives real shard-worker processes over unix sockets — the same
// harness shape as the rest of integration_test.go, plus a TestMain
// re-exec hook so the worker processes are this very test binary (no
// toolchain invocation inside the test). CI runs this file's tests as a
// dedicated job; they also run in the ordinary `go test ./...` sweep.
package repro_test

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"testing"
	"time"

	"repro/internal/admm"
	"repro/internal/graph"
	"repro/internal/lasso"
	"repro/internal/mpc"
	"repro/internal/shard"
	"repro/internal/workload"
)

// Environment hooks for the re-exec'd worker role.
const (
	workerListenEnv   = "REPRO_SHARDWORKER_LISTEN"
	workerSessionsEnv = "REPRO_SHARDWORKER_SESSIONS"
)

// TestMain turns the test binary into a shard worker when the listen
// hook is set, so TestCrossProcessShardedSockets can spawn real worker
// processes without building anything.
func TestMain(m *testing.M) {
	if addr := os.Getenv(workerListenEnv); addr != "" {
		sessions, _ := strconv.Atoi(os.Getenv(workerSessionsEnv))
		ln, err := shard.ListenAddr(addr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "shardworker:", err)
			os.Exit(1)
		}
		err = shard.ServeWorker(ln, shard.WorkerOptions{
			Builders:    workload.Builders(),
			MaxSessions: sessions,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			},
		})
		ln.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "shardworker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// spawnWorkers starts one worker process per addr and returns after
// every control socket accepts connections.
func spawnWorkers(t *testing.T, addrs []string, sessions int) {
	t.Helper()
	for _, addr := range addrs {
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(),
			workerListenEnv+"="+addr,
			workerSessionsEnv+"="+strconv.Itoa(sessions),
		)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("spawn worker %s: %v", addr, err)
		}
		t.Cleanup(func() {
			cmd.Process.Kill()
			cmd.Wait()
		})
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, addr := range addrs {
		for {
			conn, err := shard.DialAddr(context.Background(), addr)
			if err == nil {
				conn.Close()
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("worker %s never came up: %v", addr, err)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
}

// TestCrossProcessShardedSockets runs a coordinator against two real
// worker processes over unix sockets and demands bit-identical iterates
// to Serial — on a fixed-iteration MPC solve, on a residual-checked
// lasso solve (multiple iteration blocks, so the per-block parameter
// refresh and owned-state upload paths are exercised, and the
// coordinator's residuals are computed from worker-uploaded state) and
// on a wider lasso star. The lasso star is
// the hub case: each worker re-derives the balanced partition on its
// own, must arrive at the same creation-order split with the
// hub as the one boundary variable (the handshake compares manifest
// digests), and the owner combines m-blocks that crossed a real socket.
func TestCrossProcessShardedSockets(t *testing.T) {
	dir := t.TempDir()
	addrs := []string{
		"unix:" + dir + "/w0.sock",
		"unix:" + dir + "/w1.sock",
	}
	// Three solves below = three coordinator sessions per worker.
	spawnWorkers(t, addrs, 3)

	solves := []struct {
		name     string
		workload string
		spec     any
		build    func() (*graph.Graph, error)
		tol      float64
		hub      bool // a consensus star: the hub is the only boundary variable
	}{
		{
			name:     "mpc-fused",
			workload: "mpc",
			spec:     mpc.Spec{K: 40},
			build: func() (*graph.Graph, error) {
				p, err := mpc.FromSpec(mpc.Spec{K: 40})
				if err != nil {
					return nil, err
				}
				p.Graph.InitZero()
				return p.Graph, nil
			},
		},
		{
			name:     "lasso-residual-checked",
			workload: "lasso",
			spec:     lasso.Spec{M: 48, Lambda: 0.3},
			build: func() (*graph.Graph, error) {
				p, err := lasso.FromSpec(lasso.Spec{M: 48, Lambda: 0.3})
				if err != nil {
					return nil, err
				}
				p.Graph.InitZero()
				return p.Graph, nil
			},
			tol: 1e-9,
			hub: true,
		},
		{
			name:     "lasso-hub-fused",
			workload: "lasso",
			spec:     lasso.Spec{M: 72, Blocks: 8, Lambda: 0.3},
			build: func() (*graph.Graph, error) {
				p, err := lasso.FromSpec(lasso.Spec{M: 72, Blocks: 8, Lambda: 0.3})
				if err != nil {
					return nil, err
				}
				p.Graph.InitZero()
				return p.Graph, nil
			},
			hub: true,
		},
	}
	for _, sv := range solves {
		t.Run(sv.name, func(t *testing.T) {
			opts := admm.Options{MaxIter: 300}
			if sv.tol > 0 {
				opts.AbsTol, opts.RelTol, opts.CheckEvery = sv.tol, sv.tol, 25
			}

			ref, err := sv.build()
			if err != nil {
				t.Fatal(err)
			}
			refOpts := opts
			refOpts.Backend = admm.NewSerial()
			refRes, err := admm.Run(ref, refOpts)
			if err != nil {
				t.Fatal(err)
			}

			g, err := sv.build()
			if err != nil {
				t.Fatal(err)
			}
			raw, err := json.Marshal(sv.spec)
			if err != nil {
				t.Fatal(err)
			}
			spec := admm.ExecutorSpec{
				Kind:      admm.ExecSharded,
				Shards:    2,
				Transport: admm.TransportSockets,
				Addrs:     addrs,
				Problem:   &admm.ProblemRef{Workload: sv.workload, Spec: raw},
			}
			backend, err := spec.NewBackend(g)
			if err != nil {
				t.Fatal(err)
			}
			remOpts := opts
			remOpts.Backend = backend
			res, err := admm.Run(g, remOpts)
			backend.Close()
			if err != nil {
				t.Fatal(err)
			}
			if res.Iterations != refRes.Iterations {
				t.Fatalf("remote ran %d iterations, serial %d", res.Iterations, refRes.Iterations)
			}
			for i := range ref.Z {
				if ref.Z[i] != g.Z[i] {
					t.Fatalf("diverged from serial at Z[%d]: %g vs %g", i, g.Z[i], ref.Z[i])
				}
			}
			for i := range ref.X {
				if ref.X[i] != g.X[i] || ref.U[i] != g.U[i] || ref.N[i] != g.N[i] {
					t.Fatalf("uploaded edge state diverged at %d", i)
				}
			}
			st := backend.(shard.StatsReporter).Stats()
			if st.Transport != admm.TransportSockets {
				t.Fatalf("stats transport %q", st.Transport)
			}
			if st.BoundaryVars > 0 && st.BytesPerIter <= 0 {
				t.Fatalf("no exchange bytes recorded: %+v", st)
			}
			if sv.hub && (st.BoundaryVars != 1 || st.BoundaryEdges != g.NumEdges() || st.BytesPerIter != 8*st.CutCost) {
				t.Fatalf("hub split: %d boundary vars / %d of %d edges, %.0f bytes/iter vs %.0f priced",
					st.BoundaryVars, st.BoundaryEdges, g.NumEdges(), st.BytesPerIter, 8*st.CutCost)
			}
			// Every worker's Up frames carry its own loop times.
			if len(st.Workers) != 2 {
				t.Fatalf("stats for %d workers, want 2", len(st.Workers))
			}
			for i, w := range st.Workers {
				if w.SyncWait <= 0 || w.PhaseNanos[admm.PhaseX] <= 0 || w.PhaseNanos[admm.PhaseZ] <= 0 || w.PhaseNanos[admm.PhaseU] <= 0 {
					t.Fatalf("worker %d reports %+v, want its sync wait and x, z and u times", i, w)
				}
			}
		})
	}
}
