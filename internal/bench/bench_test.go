package bench

import (
	"bytes"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func TestTableBasics(t *testing.T) {
	tb := NewTable("demo", "a", "b")
	tb.AddRow("1", "2")
	tb.AddNote("hello %d", 7)
	var buf bytes.Buffer
	if err := tb.WriteASCII(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== demo ==", "a", "b", "1", "2", "note: hello 7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ASCII output missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "1,2") {
		t.Fatalf("CSV output wrong:\n%s", buf.String())
	}
}

func TestTableRowMismatchPanics(t *testing.T) {
	tb := NewTable("demo", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tb.AddRow("only-one")
}

func TestCellFormatters(t *testing.T) {
	if Cell(0) != "0" {
		t.Error("Cell(0)")
	}
	if Cell(0.5) != "0.500" {
		t.Errorf("Cell(0.5) = %s", Cell(0.5))
	}
	if Cell(123456) != "1.23e+05" {
		t.Errorf("Cell(123456) = %s", Cell(123456))
	}
	if CellX(2.345) != "2.3x" {
		t.Errorf("CellX = %s", CellX(2.345))
	}
	if CellPct(0.505) != "51%" && CellPct(0.505) != "50%" {
		t.Errorf("CellPct = %s", CellPct(0.505))
	}
	if CellInt(7) != "7" {
		t.Error("CellInt")
	}
}

// paperIDs is the whole registry: the paper's figures and tables plus
// the ablations of its future-work list. Throughput sweeps live in
// benchmark/ (BENCHMARK.json), not here.
var paperIDs = []string{
	"abl-adaptive-rho", "abl-async", "abl-balanced-z", "abl-devices",
	"abl-multigpu", "abl-openmp-strategy", "abl-twa",
	"fig10", "fig11", "fig13", "fig14", "fig5", "fig7", "fig8",
	"tab-breakdown", "tab-copy-times", "tab-ntb-mpc", "tab-ntb-packing",
	"tab-packing-reference", "tab-svm-dim",
}

func TestRegistryLookup(t *testing.T) {
	if _, err := Lookup("fig7"); err != nil {
		t.Fatal(err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("expected unknown-id error")
	}
	var got []string
	for _, e := range Experiments() {
		got = append(got, e.ID)
	}
	if !reflect.DeepEqual(got, paperIDs) {
		t.Fatalf("Experiments() = %q, want exactly the sorted paper registry %q", got, paperIDs)
	}
}

// quickRuns holds each experiment's Quick-scale, seed-1 tables so the
// sweep below and the per-figure shape tests share one run per
// `go test` (tests in this package do not run in parallel).
var quickRuns = map[string][]*Table{}

func quickTables(t *testing.T, id string) []*Table {
	t.Helper()
	if tables, ok := quickRuns[id]; ok {
		return tables
	}
	e, err := Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	tables, err := e.Run(Scale{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	quickRuns[id] = tables
	return tables
}

// TestAllExperimentsRunQuick executes every registered experiment at
// Quick scale and sanity-checks the output tables.
func TestAllExperimentsRunQuick(t *testing.T) {
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables := quickTables(t, e.ID)
			if len(tables) == 0 {
				t.Fatal("no tables")
			}
			for _, tb := range tables {
				if len(tb.Rows) == 0 {
					t.Fatalf("table %q has no rows", tb.Title)
				}
				var buf bytes.Buffer
				if err := tb.WriteASCII(&buf); err != nil {
					t.Fatal(err)
				}
				if err := tb.WriteCSV(&buf); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// parseX extracts the float from a "12.3x" cell.
func parseX(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "x"), 64)
	if err != nil {
		t.Fatalf("bad speedup cell %q: %v", cell, err)
	}
	return v
}

func TestFig7ShapesHold(t *testing.T) {
	tables := quickTables(t, "fig7")
	left, right := tables[0], tables[1]
	// Combined speedup grows with N.
	first := parseX(t, left.Rows[0][4])
	last := parseX(t, left.Rows[len(left.Rows)-1][4])
	if last <= first {
		t.Fatalf("combined speedup did not grow with N: %g -> %g", first, last)
	}
	if last < 8 || last > 30 {
		t.Fatalf("large-N combined speedup %.1f outside the paper's band", last)
	}
	// x-update is the hardest to accelerate at the largest N.
	lastRow := right.Rows[len(right.Rows)-1]
	x := parseX(t, lastRow[1])
	for c := 2; c <= 5; c++ {
		if parseX(t, lastRow[c]) < x {
			t.Fatalf("x-update (%.1fx) is not the slowest phase: %v", x, lastRow)
		}
	}
}

func TestFig8CoreSweepPeaksBelowGPU(t *testing.T) {
	tables := quickTables(t, "fig8")
	left, right := tables[0], tables[1]
	// Multi-CPU combined < GPU combined at the largest size (paper:
	// "substantially less than ... with a GPU").
	lastRow := left.Rows[len(left.Rows)-1]
	if mc, gp := parseX(t, lastRow[3]), parseX(t, lastRow[4]); mc >= gp {
		t.Fatalf("multi-CPU %.1fx not below GPU %.1fx", mc, gp)
	}
	// Core sweep: speedup at 32 cores <= peak (saturation/degradation).
	var peak, at32 float64
	for _, row := range right.Rows {
		v := parseX(t, row[1])
		if v > peak {
			peak = v
		}
		if row[0] == "32" {
			at32 = v
		}
	}
	if at32 > peak {
		t.Fatal("impossible: 32-core above peak")
	}
	if peak < 3 || peak > 14 {
		t.Fatalf("multi-core peak %.1f outside the paper's 5-9x band (with slack)", peak)
	}
}

func TestNtbPackingPrefers32(t *testing.T) {
	tables := quickTables(t, "tab-ntb-packing")
	rows := tables[0].Rows
	byNtb := map[string]float64{}
	for _, r := range rows {
		byNtb[r[0]] = parseX(t, r[2])
	}
	if byNtb["32"] < byNtb["1"] {
		t.Fatalf("ntb=32 (%.1fx) worse than ntb=1 (%.1fx)", byNtb["32"], byNtb["1"])
	}
	if byNtb["32"] < byNtb["1024"] {
		t.Fatalf("ntb=32 (%.1fx) worse than ntb=1024 (%.1fx)", byNtb["32"], byNtb["1024"])
	}
}

func TestNtbMPCGrowsWithK(t *testing.T) {
	tables := quickTables(t, "tab-ntb-mpc")
	rows := tables[0].Rows
	first, _ := strconv.Atoi(rows[0][2])
	last, _ := strconv.Atoi(rows[len(rows)-1][2])
	if first > last {
		t.Fatalf("optimal ntb shrank with K: %d -> %d", first, last)
	}
	// Small K must prefer a small ntb (undersubscribed SMs).
	if first > 32 {
		t.Fatalf("K=200 optimal ntb = %d, expected small", first)
	}
}

func TestBalancedZAblationShowsGain(t *testing.T) {
	tables := quickTables(t, "abl-balanced-z")
	for _, row := range tables[0].Rows {
		contig, _ := strconv.ParseFloat(row[1], 64)
		bal, _ := strconv.ParseFloat(row[2], 64)
		if bal > contig+1e-9 {
			t.Fatalf("balanced grouping worse than contiguous at %s cores: %v", row[0], row)
		}
	}
}

func TestAdaptiveRhoAblationBeatsFixed(t *testing.T) {
	tables := quickTables(t, "abl-adaptive-rho")
	rows := tables[0].Rows
	fixed, _ := strconv.Atoi(rows[0][1])
	adaptive, _ := strconv.Atoi(rows[1][1])
	if rows[1][2] != "true" {
		t.Fatal("adaptive run did not converge")
	}
	if adaptive >= fixed {
		t.Fatalf("adaptive (%d) not faster than badly-tuned fixed (%d)", adaptive, fixed)
	}
}

func TestRunAndWrite(t *testing.T) {
	var buf bytes.Buffer
	if err := RunAndWrite("fig5", Scale{}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Gurobi") {
		t.Fatal("fig5 output missing solver rows")
	}
	if err := RunAndWrite("nope", Scale{}, &buf); err == nil {
		t.Fatal("expected error for unknown id")
	}
}
