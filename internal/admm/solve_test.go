package admm

import (
	"math"
	"strings"
	"testing"
)

func TestParseExecutor(t *testing.T) {
	tests := []struct {
		name    string
		want    ExecutorKind
		wantErr bool
	}{
		{"serial", ExecSerial, false},
		{"", ExecSerial, false},
		{"parallel-for", ExecParallelFor, false},
		{"parallel", ExecParallelFor, false},
		{"barrier", "", true},
		{"barrier-workers", "", true},
		{"async", ExecAsync, false},
		{"sharded", ExecSharded, false},
		{"  Serial ", ExecSerial, false},
		{"gpu", "", true},
		{"openmp", "", true},
	}
	for _, tc := range tests {
		spec, err := ParseExecutor(tc.name, 2)
		if (err != nil) != tc.wantErr {
			t.Errorf("ParseExecutor(%q) error = %v, wantErr %t", tc.name, err, tc.wantErr)
			continue
		}
		if err == nil && spec.Kind != tc.want {
			t.Errorf("ParseExecutor(%q) = %q, want %q", tc.name, spec.Kind, tc.want)
		}
	}
}

func TestExecutorSpecValidate(t *testing.T) {
	on, off := true, false
	bad := []ExecutorSpec{
		{Kind: "gpu"},
		{Kind: "barrier"},
		{Kind: ExecSerial, Workers: -1},
		{Kind: ExecParallelFor, Workers: MaxWorkers + 1},
		{Kind: ExecSerial, Dynamic: true},
		{Kind: ExecAsync, BalancedZ: true},
		// The five-phase reference schedule is the serial oracle's alone.
		{Kind: ExecParallelFor, Fused: &off},
		{Kind: ExecAsync, Fused: &off},
		{Kind: ExecSharded, Fused: &off},
		{Kind: ExecAuto, Fused: &off},
		{Kind: ExecSharded, Shards: -1},
		{Kind: ExecSharded, Shards: MaxShards + 1},
		{Kind: ExecSerial, Shards: 2},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", s)
		}
	}
	good := []ExecutorSpec{
		{},
		{Kind: ExecParallelFor, Workers: 8, Dynamic: true, BalancedZ: true},
		{Kind: ExecAsync, Seed: 3},
		{Kind: ExecSharded, Shards: 4},
		{Kind: ExecSharded},
		{Fused: &off},
		{Kind: ExecSerial, Fused: &off},
		{Kind: ExecParallelFor, Fused: &on},
	}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", s, err)
		}
	}
}

// TestShardedNeedsLinking: this package does not import internal/shard,
// so the sharded factory is unregistered here and NewBackend must say
// how to link it rather than crash. (The real path is covered in
// internal/shard's tests and the root conformance suite.)
func TestShardedNeedsLinking(t *testing.T) {
	g := buildAveraging(t, []float64{1, 2})
	_, err := ExecutorSpec{Kind: ExecSharded}.NewBackend(g)
	if err == nil || !strings.Contains(err.Error(), "internal/shard") {
		t.Fatalf("NewBackend error = %v, want not-linked hint", err)
	}
}

// TestSolveExecutors runs the same consensus problem through every
// executor kind via the declarative entrypoint; all must reach the mean.
func TestSolveExecutors(t *testing.T) {
	off := false
	specs := []ExecutorSpec{
		{Kind: ExecSerial},
		{Kind: ExecSerial, Fused: &off},
		{Kind: ExecParallelFor, Workers: 2},
		{Kind: ExecParallelFor, Workers: 2, Dynamic: true},
		{Kind: ExecAsync, Seed: 5},
		{Kind: ExecAuto},
	}
	for _, spec := range specs {
		g := buildAveraging(t, []float64{1, 2, 6})
		res, err := Solve(g, SolveOptions{Executor: spec, MaxIter: 2000, AbsTol: 1e-9, RelTol: 1e-9})
		if err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		if !res.Converged {
			t.Errorf("%+v: did not converge: %+v", spec, res)
		}
		if got := g.Z[0]; math.Abs(got-3) > 1e-6 {
			t.Errorf("%+v: z = %g, want 3", spec, got)
		}
	}
}

// TestSolveBalancedZ exercises the degree-balanced z-partition path,
// which needs the graph at backend-construction time.
func TestSolveBalancedZ(t *testing.T) {
	g := buildAveraging(t, []float64{1, 2, 6, 7})
	spec := ExecutorSpec{Kind: ExecParallelFor, Workers: 2, BalancedZ: true}
	res, err := Solve(g, SolveOptions{Executor: spec, MaxIter: 2000, AbsTol: 1e-9, RelTol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Errorf("did not converge: %+v", res)
	}
	if got := g.Z[0]; math.Abs(got-4) > 1e-6 {
		t.Errorf("z = %g, want 4", got)
	}
	if _, err := spec.NewBackend(nil); err == nil {
		t.Errorf("NewBackend(nil) with balanced_z should fail")
	}
}

// TestSpecFusedDefault pins where the two schedules live: an unset Fused
// field selects the fused schedule, explicit false the five-phase
// reference — for kind serial, the one executor that has it — and
// NewSerial stays the reference for baseline measurements and as the
// conformance oracle.
func TestSpecFusedDefault(t *testing.T) {
	g := buildAveraging(t, []float64{1, 2})
	b, err := ExecutorSpec{Kind: ExecSerial}.NewBackend(g)
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "serial-fused" {
		t.Errorf("spec-built serial backend is %q, want fused default", b.Name())
	}
	off := false
	b, err = ExecutorSpec{Kind: ExecSerial, Fused: &off}.NewBackend(g)
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "serial" {
		t.Errorf("fused=false serial backend is %q", b.Name())
	}
	if _, err := (ExecutorSpec{Kind: ExecParallelFor, Workers: 2, Fused: &off}).NewBackend(g); err == nil {
		t.Error("fused=false parallel-for built a backend; the reference schedule is serial's alone")
	}
	if NewSerial().Name() != "serial" {
		t.Error("NewSerial must stay the unfused reference")
	}
}

func TestSolveRejectsBadSpec(t *testing.T) {
	g := buildAveraging(t, []float64{1, 2})
	if _, err := Solve(g, SolveOptions{Executor: ExecutorSpec{Kind: "gpu"}, MaxIter: 10}); err == nil {
		t.Fatal("Solve with unknown executor kind should fail")
	}
	if _, err := Solve(g, SolveOptions{}); err == nil {
		t.Fatal("Solve with MaxIter 0 should fail")
	}
}
