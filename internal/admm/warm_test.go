package admm_test

import (
	"math"
	"testing"

	"repro/internal/admm"
	"repro/internal/lasso"
)

// TestWarmStateRoundTrip pins the seam's core contract: capture after a
// solve, apply to a zeroed same-shape graph, and continuing the solve on
// the copy produces bit-identical iterates to continuing the original —
// x/u/z restored exactly, the derived n recomputed to the value the
// n-update left (it runs last, over the final z and u), and M free to
// differ because every schedule overwrites or ignores it before reading.
func TestWarmStateRoundTrip(t *testing.T) {
	build := func() *lasso.Problem {
		p, err := lasso.FromSpec(lasso.Spec{M: 32, Lambda: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		p.Graph.InitZero()
		return p
	}
	src := build()
	if _, err := admm.Solve(src.Graph, admm.SolveOptions{MaxIter: 200}); err != nil {
		t.Fatal(err)
	}

	var ws admm.WarmState
	ws.Capture(src.Graph)
	if !ws.Captured() {
		t.Fatal("Capture left state empty")
	}

	dst := build()
	if err := ws.Apply(dst.Graph); err != nil {
		t.Fatal(err)
	}
	for name, pair := range map[string][2][]float64{
		"X": {src.Graph.X, dst.Graph.X},
		"U": {src.Graph.U, dst.Graph.U},
		"Z": {src.Graph.Z, dst.Graph.Z},
		"N": {src.Graph.N, dst.Graph.N},
	} {
		for i := range pair[0] {
			if pair[0][i] != pair[1][i] {
				t.Fatalf("%s[%d] = %g after Apply, want %g", name, i, pair[1][i], pair[0][i])
			}
		}
	}

	// Continuing both graphs must now walk the same trajectory exactly.
	for _, g := range []*lasso.Problem{src, dst} {
		if _, err := admm.Solve(g.Graph, admm.SolveOptions{MaxIter: 50}); err != nil {
			t.Fatal(err)
		}
	}
	for i := range src.Graph.Z {
		if src.Graph.Z[i] != dst.Graph.Z[i] {
			t.Fatalf("trajectories diverged after warm apply: Z[%d] %g vs %g",
				i, dst.Graph.Z[i], src.Graph.Z[i])
		}
	}
}

// TestWarmStartConvergesFaster pins the point of the seam: a solve
// warm-started from a converged same-shape solution stops in strictly
// fewer iterations than the cold solve that produced it.
func TestWarmStartConvergesFaster(t *testing.T) {
	build := func() *lasso.Problem {
		p, err := lasso.FromSpec(lasso.Spec{M: 48, Lambda: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		p.Graph.InitZero()
		return p
	}
	opts := admm.SolveOptions{MaxIter: 5000, AbsTol: 1e-6, RelTol: 1e-6}

	cold := build()
	coldRes, err := admm.Solve(cold.Graph, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !coldRes.Converged {
		t.Fatalf("cold solve did not converge in %d iterations", coldRes.Iterations)
	}
	if coldRes.Iterations <= 10 {
		t.Fatalf("cold solve converged in %d iterations — too easy to pin the warm-start win", coldRes.Iterations)
	}

	var ws admm.WarmState
	ws.Capture(cold.Graph)

	warm := build()
	if err := ws.Apply(warm.Graph); err != nil {
		t.Fatal(err)
	}
	warmRes, err := admm.Solve(warm.Graph, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !warmRes.Converged {
		t.Fatalf("warm solve did not converge in %d iterations", warmRes.Iterations)
	}
	if warmRes.Iterations >= coldRes.Iterations {
		t.Fatalf("warm solve took %d iterations, cold took %d — warm start bought nothing",
			warmRes.Iterations, coldRes.Iterations)
	}
}

// TestWarmStateBinaryRoundTrip pins the (de)serialization seam the
// persistent solution store builds on: marshal, unmarshal into a fresh
// state, and the decoded snapshot must apply to a same-shape graph and
// continue the trajectory bit-identically to the original.
func TestWarmStateBinaryRoundTrip(t *testing.T) {
	build := func() *lasso.Problem {
		p, err := lasso.FromSpec(lasso.Spec{M: 24, Lambda: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		p.Graph.InitZero()
		return p
	}
	src := build()
	if _, err := admm.Solve(src.Graph, admm.SolveOptions{MaxIter: 150}); err != nil {
		t.Fatal(err)
	}
	var ws admm.WarmState
	ws.Capture(src.Graph)

	blob, err := ws.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var dec admm.WarmState
	if err := dec.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if e1, v1, d1 := ws.Shape(); true {
		if e2, v2, d2 := dec.Shape(); e1 != e2 || v1 != v2 || d1 != d2 {
			t.Fatalf("decoded shape (%d,%d,%d), want (%d,%d,%d)", e2, v2, d2, e1, v1, d1)
		}
	}
	dst := build()
	if err := dec.Apply(dst.Graph); err != nil {
		t.Fatal(err)
	}
	for _, g := range []*lasso.Problem{src, dst} {
		if _, err := admm.Solve(g.Graph, admm.SolveOptions{MaxIter: 40}); err != nil {
			t.Fatal(err)
		}
	}
	for i := range src.Graph.Z {
		if src.Graph.Z[i] != dst.Graph.Z[i] {
			t.Fatalf("trajectories diverged after binary round trip: Z[%d] %g vs %g",
				i, dst.Graph.Z[i], src.Graph.Z[i])
		}
	}
}

// TestWarmStateUnmarshalRejects pins the decoder's defenses: empty
// state marshal fails, and truncated, version-bumped, or
// length-inconsistent blobs are errors, never panics.
func TestWarmStateUnmarshalRejects(t *testing.T) {
	var empty admm.WarmState
	if _, err := empty.MarshalBinary(); err == nil {
		t.Fatal("marshal of an empty WarmState succeeded")
	}

	p, err := lasso.FromSpec(lasso.Spec{M: 16, Lambda: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	p.Graph.InitZero()
	var ws admm.WarmState
	ws.Capture(p.Graph)
	blob, err := ws.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	var dec admm.WarmState
	for name, bad := range map[string][]byte{
		"empty":       {},
		"short":       blob[:5],
		"truncated":   blob[:len(blob)-1],
		"extended":    append(append([]byte(nil), blob...), 0),
		"bad version": append([]byte{99}, blob[1:]...),
	} {
		if err := dec.UnmarshalBinary(bad); err == nil {
			t.Fatalf("%s blob decoded without error", name)
		}
	}
	// A shape header demanding more floats than the payload holds must
	// be rejected by the exact-length check.
	huge := append([]byte(nil), blob...)
	huge[1], huge[2], huge[3], huge[4] = 0xff, 0xff, 0xff, 0x0f
	if err := dec.UnmarshalBinary(huge); err == nil {
		t.Fatal("inflated shape header decoded without error")
	}
}

// TestWarmStateShapeMismatch pins the guard: applying a snapshot to a
// different shape must fail loudly, and applying an empty state must
// fail too.
func TestWarmStateShapeMismatch(t *testing.T) {
	small, err := lasso.FromSpec(lasso.Spec{M: 16, Lambda: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	big, err := lasso.FromSpec(lasso.Spec{M: 32, Lambda: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	var ws admm.WarmState
	if err := ws.Apply(small.Graph); err == nil {
		t.Fatal("Apply of an empty WarmState succeeded")
	}
	ws.Capture(small.Graph)
	if err := ws.Apply(big.Graph); err == nil {
		t.Fatal("Apply across mismatched shapes succeeded")
	}
	if err := ws.Apply(small.Graph); err != nil {
		t.Fatalf("Apply to the captured shape failed: %v", err)
	}
}

// TestWarmStateCaptureRejectsNonFinite pins the divergence guard: a NaN
// or Inf anywhere in x, u or z empties the snapshot — a previously
// captured good state included — and Capture says so.
func TestWarmStateCaptureRejectsNonFinite(t *testing.T) {
	p, err := lasso.FromSpec(lasso.Spec{M: 16, Lambda: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	g := p.Graph
	g.InitZero()
	var ws admm.WarmState
	poison := []struct {
		name string
		at   *float64
		v    float64
	}{
		{"x NaN", &g.X[1], math.NaN()},
		{"u +Inf", &g.U[len(g.U)-1], math.Inf(1)},
		{"z -Inf", &g.Z[0], math.Inf(-1)},
	}
	for _, c := range poison {
		if !ws.Capture(g) || !ws.Captured() {
			t.Fatalf("%s: Capture of a finite iterate reported failure", c.name)
		}
		old := *c.at
		*c.at = c.v
		if ws.Capture(g) {
			t.Fatalf("%s: Capture reported success", c.name)
		}
		if ws.Captured() {
			t.Fatalf("%s: snapshot still captured after a non-finite Capture", c.name)
		}
		if err := ws.Apply(g); err == nil {
			t.Fatalf("%s: Apply of the emptied snapshot succeeded", c.name)
		}
		if _, err := ws.MarshalBinary(); err == nil {
			t.Fatalf("%s: the emptied snapshot marshaled", c.name)
		}
		*c.at = old
	}
}
