package repro_test

import (
	"testing"

	"repro/internal/admm"
	"repro/internal/gpusim"
)

// TestFusedSolvesNeverAllocateM pins the lazy M array. A graph that only
// the fused schedule runs on — serial, sharded over the local barrier or
// over loopback sockets — never holds M, and still reproduces the
// five-phase oracle bit for bit. The five-phase consumers allocate M on
// first use (one zeroed NumEdges*D array): the oracle itself, TWA and the
// simulated GPU, which must all match the oracle bit for bit, and Async,
// whose randomized schedule TestAsyncConformance compares by objective.
func TestFusedSolvesNeverAllocateM(t *testing.T) {
	const iters = 200
	fused := []struct {
		name string
		spec admm.ExecutorSpec
	}{
		{"serial-fused", admm.ExecutorSpec{Kind: admm.ExecSerial}},
		{"sharded-2", admm.ExecutorSpec{Kind: admm.ExecSharded, Shards: 2}},
		{"sharded-2-sockets", admm.ExecutorSpec{Kind: admm.ExecSharded, Shards: 2, Transport: admm.TransportSockets}},
	}
	fivePhase := []struct {
		name  string
		make  func() admm.Backend
		exact bool
	}{
		{"serial", admm.NewSerial, true},
		{"twa", func() admm.Backend { return admm.NewTWA() }, true},
		{"gpusim", func() admm.Backend { return gpusim.NewBackend(nil) }, true},
		{"async", func() admm.Backend { return admm.NewAsync(1) }, false},
	}
	for _, wname := range []string{"mpc", "svm"} {
		build := confWorkloads[wname]
		t.Run(wname, func(t *testing.T) {
			ref := confRun(t, build(t), admm.NewSerial(), iters)
			same := func(t *testing.T, got []float64) {
				t.Helper()
				for i := range ref {
					if ref[i] != got[i] {
						t.Fatalf("diverged from serial at Z[%d]: %g vs %g", i, got[i], ref[i])
					}
				}
			}
			for _, f := range fused {
				t.Run(f.name, func(t *testing.T) {
					inst := build(t)
					backend, err := f.spec.NewBackend(inst.g)
					if err != nil {
						t.Fatal(err)
					}
					same(t, confRun(t, inst, backend, iters))
					if inst.g.M != nil {
						t.Fatalf("a %s solve allocated M (%d doubles)", f.name, len(inst.g.M))
					}
				})
			}
			for _, b := range fivePhase {
				t.Run(b.name, func(t *testing.T) {
					inst := build(t)
					if inst.g.M != nil {
						t.Fatal("the build allocated M")
					}
					got := confRun(t, inst, b.make(), iters)
					if want := inst.g.NumEdges() * inst.g.D(); len(inst.g.M) != want {
						t.Fatalf("after a %s solve M holds %d doubles, want %d", b.name, len(inst.g.M), want)
					}
					if b.exact {
						same(t, got)
					}
				})
			}
		})
	}
}
