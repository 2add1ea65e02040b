package graph

import (
	"reflect"
	"testing"
)

// runOpValue is a comparable operator that implements RunEvaluator;
// nodes holding equal values may share a run.
type runOpValue struct{ K int }

func (runOpValue) Eval(x, n, rho []float64, d int)           { copy(x, n) }
func (runOpValue) EvalRun(x, n, rho []float64, d, count int) { copy(x, n) }
func (runOpValue) Work(deg, d int) Work                      { return Work{} }

// runOpSlice implements RunEvaluator on a type == cannot compare: two
// interface values holding it make == panic.
type runOpSlice struct{ W []float64 }

func (runOpSlice) Eval(x, n, rho []float64, d int)           { copy(x, n) }
func (runOpSlice) EvalRun(x, n, rho []float64, d, count int) { copy(x, n) }
func (runOpSlice) Work(deg, d int) Work                      { return Work{} }

// runOpBox is comparable as a type, but a value whose Op holds a slice
// is not: == on two such values panics too.
type runOpBox struct{ Op Op }

func (runOpBox) Eval(x, n, rho []float64, d int)           { copy(x, n) }
func (runOpBox) EvalRun(x, n, rho []float64, d, count int) { copy(x, n) }
func (runOpBox) Work(deg, d int) Work                      { return Work{} }

// runNode is one function node of a run-table test graph: its operator
// and its degree.
type runNode struct {
	op  Op
	deg int
}

// runGraph builds and finalizes a graph of the given nodes, each on its
// own fresh variables.
func runGraph(t *testing.T, nodes []runNode) *Graph {
	t.Helper()
	g := New(2)
	v := 0
	for _, nd := range nodes {
		vars := make([]int, nd.deg)
		for k := range vars {
			vars[k] = v
			v++
		}
		g.AddNode(nd.op, vars...)
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	return g
}

// spans returns the [Lo, Hi) ranges of g's run table.
func spans(g *Graph) [][2]int {
	var out [][2]int
	for _, r := range g.Runs() {
		out = append(out, [2]int{r.Lo, r.Hi})
	}
	return out
}

// TestRunTableBoundaries: a run ends where the operator value changes,
// where the degree changes and at a node whose operator lacks
// RunEvaluator; single nodes are not runs; each run carries its
// operator.
func TestRunTableBoundaries(t *testing.T) {
	a, b := runOpValue{K: 1}, runOpValue{K: 2}
	g := runGraph(t, []runNode{
		{a, 2}, {a, 2}, {a, 2}, // 0-3: one run
		{b, 2}, {b, 2}, // 3-5: the value changed
		{b, 3}, {b, 3}, // 5-7: the degree changed
		{identOp{}, 3}, // 7: no RunEvaluator
		{b, 3}, {b, 3}, // 8-10: a run after it
		{a, 3},                 // 10: alone
		{identOp{}, 3},         // 11
		{identOp{}, 3},         // 12: equal but no RunEvaluator
		{b, 1}, {b, 1}, {b, 1}, // 13-16: a run at the end
	})
	want := [][2]int{{0, 3}, {3, 5}, {5, 7}, {8, 10}, {13, 16}}
	if got := spans(g); !reflect.DeepEqual(got, want) {
		t.Fatalf("runs %v, want %v", got, want)
	}
	for _, r := range g.Runs() {
		if r.Op.(Op) != g.Op(r.Lo) {
			t.Errorf("run [%d, %d) carries %v, node %d holds %v", r.Lo, r.Hi, r.Op, r.Lo, g.Op(r.Lo))
		}
	}
}

// TestRunTableNonComparableOps: Finalize never compares operators whose
// value == cannot compare, whether the type itself holds a slice or a
// comparable type holds one behind an interface; such nodes are never
// in a run, and a comparable box next to them still is.
func TestRunTableNonComparableOps(t *testing.T) {
	s := runOpSlice{W: []float64{1}}
	box := runOpBox{Op: s}
	plain := runOpBox{Op: identOp{}}
	var g *Graph
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Finalize panicked: %v", r)
			}
		}()
		g = runGraph(t, []runNode{{s, 2}, {s, 2}, {box, 2}, {box, 2}, {plain, 2}, {plain, 2}, {s, 2}})
	}()
	if got, want := spans(g), [][2]int{{4, 6}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("runs %v, want %v", got, want)
	}
}

// TestRunTableEmptyAndPriced: a graph with no two neighbouring nodes
// that qualify carries an empty table, and Bytes prices a table's
// capacity at four words per run.
func TestRunTableEmptyAndPriced(t *testing.T) {
	if runs := paperGraph(t, 2).Runs(); len(runs) != 0 {
		t.Fatalf("identOp graph has runs %v", runs)
	}
	alt := runGraph(t, []runNode{{runOpValue{K: 1}, 2}, {runOpValue{K: 2}, 2}, {runOpValue{K: 1}, 2}})
	if runs := alt.Runs(); len(runs) != 0 {
		t.Fatalf("alternating operators have runs %v", runs)
	}
	g := runGraph(t, []runNode{{runOpValue{}, 2}, {runOpValue{}, 2}})
	if len(g.Runs()) != 1 {
		t.Fatalf("runs %v, want one", spans(g))
	}
	before := g.Bytes()
	table := g.runs
	g.runs = nil
	if got, want := before-g.Bytes(), int64(32*cap(table)); got != want || want == 0 {
		t.Fatalf("Bytes counts the run table as %d bytes, want %d", got, want)
	}
}
