package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// identOp is a trivial prox (f = 0): x = n on every component.
type identOp struct{}

func (identOp) Eval(x, n, rho []float64, d int) { copy(x, n) }
func (identOp) Work(deg, d int) Work {
	return Work{Flops: float64(deg * d), MemWords: float64(2 * deg * d)}
}

// paperGraph builds the Figure 1 example: f1(w1,w2,w3), f2(w1,w4,w5),
// f3(w2,w5), f4(w5).
func paperGraph(t testing.TB, d int) *Graph {
	t.Helper()
	g := New(d)
	g.AddNode(identOp{}, 0, 1, 2)
	g.AddNode(identOp{}, 0, 3, 4)
	g.AddNode(identOp{}, 1, 4)
	g.AddNode(identOp{}, 4)
	if err := g.Finalize(); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	return g
}

func TestPaperFigure1Shape(t *testing.T) {
	g := paperGraph(t, 2)
	if g.NumFunctions() != 4 || g.NumVariables() != 5 || g.NumEdges() != 9 {
		t.Fatalf("shape F=%d V=%d E=%d, want 4/5/9", g.NumFunctions(), g.NumVariables(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Edge order matches creation order: the paper's Gpu_graph.x layout
	// [x(1,1) x(1,2) x(1,3) x(2,1) x(2,4) x(2,5) x(3,2) x(3,5) x(4,5)].
	wantVars := []int{0, 1, 2, 0, 3, 4, 1, 4, 4}
	for e, want := range wantVars {
		if got := g.EdgeVar(e); got != want {
			t.Errorf("EdgeVar(%d) = %d, want %d", e, got, want)
		}
	}
	// Variable degrees: w1:2 w2:2 w3:1 w4:1 w5:3.
	wantDeg := []int{2, 2, 1, 1, 3}
	for b, want := range wantDeg {
		if got := g.VarDegree(b); got != want {
			t.Errorf("VarDegree(%d) = %d, want %d", b, got, want)
		}
	}
	lo, hi := g.FuncEdges(1)
	if lo != 3 || hi != 6 {
		t.Errorf("FuncEdges(1) = [%d,%d), want [3,6)", lo, hi)
	}
	if g.FuncDegree(3) != 1 {
		t.Errorf("FuncDegree(3) = %d", g.FuncDegree(3))
	}
}

func TestStats(t *testing.T) {
	g := paperGraph(t, 3)
	s := g.Stats()
	if s.Functions != 4 || s.Variables != 5 || s.Edges != 9 || s.D != 3 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MaxFuncDegree != 3 || s.MaxVarDegree != 3 {
		t.Fatalf("degrees = %+v", s)
	}
	if s.Elements != 4+5+27 {
		t.Fatalf("Elements = %d", s.Elements)
	}
	if s.MeanFuncDegree != 9.0/4 || s.MeanVarDegree != 9.0/5 {
		t.Fatalf("means = %+v", s)
	}
}

func TestVarEdgesInverse(t *testing.T) {
	g := paperGraph(t, 1)
	for b := 0; b < g.NumVariables(); b++ {
		for _, e := range g.VarEdges(b) {
			if g.EdgeVar(e) != b {
				t.Fatalf("VarEdges(%d) contains edge %d of variable %d", b, e, g.EdgeVar(e))
			}
		}
	}
}

func TestAddNodePanics(t *testing.T) {
	cases := []struct {
		name string
		f    func()
	}{
		{"nil op", func() { New(1).AddNode(nil, 0) }},
		{"no vars", func() { New(1).AddNode(identOp{}) }},
		{"negative var", func() { New(1).AddNode(identOp{}, -1) }},
		{"duplicate var", func() { New(1).AddNode(identOp{}, 2, 2) }},
		{"bad dims", func() { New(0) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			c.f()
		})
	}
}

func TestAddAfterFinalizePanics(t *testing.T) {
	g := paperGraph(t, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.AddNode(identOp{}, 0)
}

func TestFinalizeErrors(t *testing.T) {
	if err := New(1).Finalize(); err == nil {
		t.Fatal("expected error for empty graph")
	}
	// Variable 1 referenced implicitly creates var 0..1, but var 0 has no
	// edge if only index 1 is used... actually referencing only index 1
	// leaves variable 0 with no edges.
	g := New(1)
	g.AddNode(identOp{}, 1)
	if err := g.Finalize(); err == nil {
		t.Fatal("expected isolated-variable error")
	}
	g2 := paperGraph(t, 1)
	if err := g2.Finalize(); err == nil {
		t.Fatal("expected double-finalize error")
	}
}

func TestSetUniformParams(t *testing.T) {
	g := paperGraph(t, 1)
	g.SetUniformParams(2.5, 0.9)
	for e := 0; e < g.NumEdges(); e++ {
		if g.Rho[e] != 2.5 || g.Alpha[e] != 0.9 {
			t.Fatalf("edge %d params = %g, %g", e, g.Rho[e], g.Alpha[e])
		}
	}
	for _, bad := range []func(){
		func() { g.SetUniformParams(0, 1) },
		func() { g.SetUniformParams(1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for nonpositive param")
				}
			}()
			bad()
		}()
	}
}

func TestInitRandomAndZero(t *testing.T) {
	g := paperGraph(t, 2)
	g.InitRandom(-1, 1, rand.New(rand.NewSource(1)))
	anyNonZero := false
	for _, v := range g.X {
		if v < -1 || v > 1 {
			t.Fatalf("InitRandom out of bounds: %g", v)
		}
		if v != 0 {
			anyNonZero = true
		}
	}
	if !anyNonZero {
		t.Fatal("InitRandom produced all zeros")
	}
	g.InitZero()
	for _, arr := range [][]float64{g.X, g.M, g.U, g.N, g.Z} {
		for _, v := range arr {
			if v != 0 {
				t.Fatal("InitZero left nonzero state")
			}
		}
	}
}

func TestInitRandomDeterministicDefault(t *testing.T) {
	g1 := paperGraph(t, 2)
	g2 := paperGraph(t, 2)
	g1.InitRandom(0, 1, nil)
	g2.InitRandom(0, 1, nil)
	for i := range g1.X {
		if g1.X[i] != g2.X[i] {
			t.Fatal("nil-rng initialization not deterministic")
		}
	}
}

func TestEdgeAndVarBlocks(t *testing.T) {
	g := paperGraph(t, 3)
	blk := g.EdgeBlock(g.X, 2)
	if len(blk) != 3 {
		t.Fatalf("EdgeBlock len = %d", len(blk))
	}
	blk[0] = 7
	if g.X[6] != 7 {
		t.Fatal("EdgeBlock does not alias X")
	}
	zb := g.VarBlock(g.Z, 4)
	zb[2] = 9
	if g.Z[14] != 9 {
		t.Fatal("VarBlock does not alias Z")
	}
}

func TestVarDegreeHistogram(t *testing.T) {
	g := paperGraph(t, 1)
	h := g.VarDegreeHistogram()
	// degrees: 2,2,1,1,3 -> {1:2, 2:2, 3:1} sorted by degree.
	want := [][2]int{{1, 2}, {2, 2}, {3, 1}}
	if len(h) != len(want) {
		t.Fatalf("histogram = %v", h)
	}
	for i := range want {
		if h[i] != want[i] {
			t.Fatalf("histogram[%d] = %v, want %v", i, h[i], want[i])
		}
	}
}

func TestReadSolution(t *testing.T) {
	g := paperGraph(t, 2)
	g.Z[8], g.Z[9] = 1.5, -2.5 // variable 4
	got := g.ReadSolution(4, nil)
	if got[0] != 1.5 || got[1] != -2.5 {
		t.Fatalf("ReadSolution = %v", got)
	}
	dst := make([]float64, 2)
	if out := g.ReadSolution(4, dst); &out[0] != &dst[0] {
		t.Fatal("ReadSolution ignored provided buffer")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	g := paperGraph(t, 2)
	g.SetUniformParams(1.5, 0.8)
	g.EnsureM() // so the image carries a nonzero M
	g.InitRandom(-2, 2, rand.New(rand.NewSource(5)))
	img := g.Encode()
	if len(img) != g.EncodedSize() {
		t.Fatalf("EncodedSize = %d, len(image) = %d", g.EncodedSize(), len(img))
	}
	ops := make([]Op, g.NumFunctions())
	for i := range ops {
		ops[i] = identOp{}
	}
	g2, err := Decode(img, ops)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumFunctions() != g.NumFunctions() || g2.NumEdges() != g.NumEdges() || g2.NumVariables() != g.NumVariables() || g2.D() != g.D() {
		t.Fatal("decoded shape mismatch")
	}
	check := func(name string, a, b []float64) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s length mismatch", name)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s[%d] = %g, want %g", name, i, b[i], a[i])
			}
		}
	}
	check("Rho", g.Rho, g2.Rho)
	check("Alpha", g.Alpha, g2.Alpha)
	check("X", g.X, g2.X)
	check("M", g.M, g2.M)
	check("U", g.U, g2.U)
	check("N", g.N, g2.N)
	check("Z", g.Z, g2.Z)
	if err := g2.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestEncodeDecodeWithoutM: a graph no five-phase consumer touched has
// no M; its image has the usual layout with a zero M section, and it
// decodes to a graph that has no M either.
func TestEncodeDecodeWithoutM(t *testing.T) {
	g := paperGraph(t, 3)
	g.InitRandom(-1, 1, rand.New(rand.NewSource(8)))
	img := g.Encode()
	if g.M != nil {
		t.Fatal("Encode allocated M")
	}
	if len(img) != g.EncodedSize() {
		t.Fatalf("EncodedSize = %d, len(image) = %d", g.EncodedSize(), len(img))
	}
	ops := make([]Op, g.NumFunctions())
	for i := range ops {
		ops[i] = identOp{}
	}
	g2, err := Decode(img, ops)
	if err != nil {
		t.Fatal(err)
	}
	if g2.M != nil {
		t.Fatal("an image with a zero M section decoded to an allocated M")
	}
	for name, pair := range map[string][2][]float64{
		"Rho": {g.Rho, g2.Rho}, "Alpha": {g.Alpha, g2.Alpha},
		"X": {g.X, g2.X}, "U": {g.U, g2.U}, "N": {g.N, g2.N}, "Z": {g.Z, g2.Z},
	} {
		a, b := pair[0], pair[1]
		if len(a) != len(b) {
			t.Fatalf("%s: %d values decoded, want %d", name, len(b), len(a))
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s[%d] = %g, want %g", name, i, b[i], a[i])
			}
		}
	}
	if again := g2.Encode(); string(again) != string(img) {
		t.Fatal("re-encoding the decoded graph changed the image")
	}
}

// TestEnsureMIsLazy: Finalize leaves M absent, EnsureM allocates it once,
// zeroed, and Bytes prices it only from then on; the whole-state helpers
// treat an absent M as empty and leave it absent.
func TestEnsureMIsLazy(t *testing.T) {
	g := paperGraph(t, 2)
	if g.M != nil {
		t.Fatal("Finalize allocated M")
	}
	g.InitZero()
	g.RestoreState(g.SaveState())
	if g.M != nil {
		t.Fatal("InitZero or SaveState/RestoreState allocated M")
	}
	before := g.Bytes()
	m := g.EnsureM()
	if len(m) != g.NumEdges()*g.D() {
		t.Fatalf("EnsureM returned %d doubles, want %d", len(m), g.NumEdges()*g.D())
	}
	for _, v := range m {
		if v != 0 {
			t.Fatal("EnsureM did not zero M")
		}
	}
	if got, want := g.Bytes()-before, int64(8*len(m)); got != want {
		t.Fatalf("Bytes grew by %d on EnsureM, want %d", got, want)
	}
	m[0] = 7
	if again := g.EnsureM(); &again[0] != &m[0] || again[0] != 7 {
		t.Fatal("a second EnsureM reallocated M")
	}
}

// TestInitRandomSameStateWithoutM: InitRandom draws M's values whether or
// not M exists, so X, U, N and Z get the same bits either way.
func TestInitRandomSameStateWithoutM(t *testing.T) {
	lazy, full := paperGraph(t, 2), paperGraph(t, 2)
	full.EnsureM()
	lazy.InitRandom(-1, 1, rand.New(rand.NewSource(3)))
	full.InitRandom(-1, 1, rand.New(rand.NewSource(3)))
	if lazy.M != nil {
		t.Fatal("InitRandom allocated M")
	}
	for name, pair := range map[string][2][]float64{
		"X": {lazy.X, full.X}, "U": {lazy.U, full.U}, "N": {lazy.N, full.N}, "Z": {lazy.Z, full.Z},
	} {
		for i := range pair[0] {
			if math.Float64bits(pair[0][i]) != math.Float64bits(pair[1][i]) {
				t.Fatalf("%s[%d] = %g without M, %g with it", name, i, pair[0][i], pair[1][i])
			}
		}
	}
	nonzero := false
	for _, v := range full.M {
		if v < -1 || v > 1 {
			t.Fatalf("InitRandom drew M value %g outside [-1, 1]", v)
		}
		nonzero = nonzero || v != 0
	}
	if !nonzero {
		t.Fatal("InitRandom left an allocated M at zero")
	}
}

func TestDecodeErrors(t *testing.T) {
	g := paperGraph(t, 1)
	img := g.Encode()
	ops := make([]Op, g.NumFunctions())
	for i := range ops {
		ops[i] = identOp{}
	}
	if _, err := Decode(nil, ops); err == nil {
		t.Fatal("expected error on empty image")
	}
	bad := append([]byte(nil), img...)
	bad[0] ^= 0xff
	if _, err := Decode(bad, ops); err == nil {
		t.Fatal("expected bad-magic error")
	}
	if _, err := Decode(img, ops[:1]); err == nil {
		t.Fatal("expected op-count error")
	}
	if _, err := Decode(img[:len(img)-8], ops); err == nil {
		t.Fatal("expected truncated-image error")
	}
}

// Property: for any random bipartite topology, Finalize + Validate agree
// and the CSR inverts edgeVar.
func TestRandomTopologyCSRProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nV := 1 + rng.Intn(20)
		g := New(1 + rng.Intn(4))
		nF := 1 + rng.Intn(30)
		for a := 0; a < nF; a++ {
			deg := 1 + rng.Intn(4)
			if deg > nV {
				deg = nV
			}
			perm := rng.Perm(nV)[:deg]
			g.AddNode(identOp{}, perm...)
		}
		if err := g.Finalize(); err != nil {
			// Isolated variables are legitimately rejected.
			return true
		}
		if err := g.Validate(); err != nil {
			return false
		}
		total := 0
		for b := 0; b < g.NumVariables(); b++ {
			total += g.VarDegree(b)
		}
		return total == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: encode/decode is the identity on all state arrays.
func TestEncodeDecodeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New(1 + rng.Intn(3))
		nV := 1 + rng.Intn(8)
		for a := 0; a < 1+rng.Intn(10); a++ {
			deg := 1 + rng.Intn(3)
			if deg > nV {
				deg = nV
			}
			g.AddNode(identOp{}, rng.Perm(nV)[:deg]...)
		}
		if err := g.Finalize(); err != nil {
			return true
		}
		g.InitRandom(-10, 10, rng)
		ops := make([]Op, g.NumFunctions())
		for i := range ops {
			ops[i] = identOp{}
		}
		g2, err := Decode(g.Encode(), ops)
		if err != nil {
			return false
		}
		for i := range g.X {
			if g.X[i] != g2.X[i] || g.N[i] != g2.N[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
