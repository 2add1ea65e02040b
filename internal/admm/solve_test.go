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
		{"sharded", ExecSharded, false},
		{"auto", ExecAuto, false},
		{"  Serial ", ExecSerial, false},
		// Retired kinds: the fork-join and async backends are library
		// types now, built directly, never named by a spec.
		{"parallel-for", "", true},
		{"parallel", "", true},
		{"async", "", true},
		{"barrier", "", true},
		{"barrier-workers", "", true},
		{"gpu", "", true},
		{"openmp", "", true},
	}
	for _, tc := range tests {
		spec, err := ParseExecutor(tc.name)
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
		// The five-phase reference schedule is the serial oracle's alone.
		{Kind: ExecSharded, Fused: &off},
		{Kind: ExecAuto, Fused: &off},
		{Kind: ExecSharded, Shards: -1},
		{Kind: ExecSharded, Shards: MaxShards + 1},
		{Kind: ExecSerial, Shards: 2},
		// Transport timeouts are bounded: ~24.8 days per handshake
		// attempt, and a count whose Duration overflows negative.
		{Kind: ExecSharded, DialTimeoutMS: MaxTransportTimeoutMS + 1},
		{Kind: ExecSharded, HandshakeTimeoutMS: 2147483647},
		{Kind: ExecSharded, FrameTimeoutMS: 10000000000000},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", s)
		}
	}
	for _, kind := range []ExecutorKind{"parallel-for", "parallel", "async"} {
		if err := (ExecutorSpec{Kind: kind}).Validate(); err == nil || !strings.Contains(err.Error(), `"`+string(kind)+`"`) {
			t.Errorf("Validate(kind %q) = %v, want an error naming the kind", kind, err)
		}
	}
	good := []ExecutorSpec{
		{},
		{Kind: ExecSharded, Shards: 4},
		{Kind: ExecSharded},
		{Kind: ExecSharded, Fused: &on},
		{Kind: ExecAuto},
		{Fused: &off},
		{Kind: ExecSerial, Fused: &off},
		{Kind: ExecSharded, DialTimeoutMS: MaxTransportTimeoutMS, HandshakeTimeoutMS: MaxTransportTimeoutMS, FrameTimeoutMS: MaxTransportTimeoutMS},
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

// TestSolveBalancedZ exercises the degree-balanced z-partition path of
// the fork-join backend, which needs the graph before its first
// iteration; no spec names it, so the backend goes through Run.
func TestSolveBalancedZ(t *testing.T) {
	g := buildAveraging(t, []float64{1, 2, 6, 7})
	b := NewParallelFor(2)
	b.PrepareBalancedZ(g)
	res, err := Run(g, Options{MaxIter: 2000, Backend: b, AbsTol: 1e-9, RelTol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Errorf("did not converge: %+v", res)
	}
	if got := g.Z[0]; math.Abs(got-4) > 1e-6 {
		t.Errorf("z = %g, want 4", got)
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
	if _, err := (ExecutorSpec{Kind: ExecAuto, Fused: &off}).NewBackend(g); err == nil {
		t.Error("fused=false auto built a backend; the reference schedule is serial's alone")
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

// TestEndpointKey: spellings of one worker endpoint share a key, and
// endpoints that reach different processes do not.
func TestEndpointKey(t *testing.T) {
	for _, c := range []struct {
		a, b string
		same bool
	}{
		{"127.0.0.1:9001", "tcp:127.0.0.1:9001", true},
		{"unix:/run/w.sock", "/run/w.sock", true},
		{"unix:/a//b", "/a/b", true},
		{"/a/./b/../c", "unix:/a/c", true},
		{"127.0.0.1:9001", "127.0.0.1:9002", false},
		{"unix:h:9001", "tcp:h:9001", false},
		{"localhost:9001", "127.0.0.1:9001", false}, // host names are not resolved
	} {
		t.Run(c.a+"|"+c.b, func(t *testing.T) {
			ka, kb := EndpointKey(c.a), EndpointKey(c.b)
			if (ka == kb) != c.same {
				t.Fatalf("keys %q and %q: same = %v, want %v", ka, kb, ka == kb, c.same)
			}
		})
	}
}
