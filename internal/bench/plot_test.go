package bench

import (
	"bytes"
	"strings"
	"testing"
)

func TestChartRendersSeries(t *testing.T) {
	c := NewChart("demo", "size", "speedup")
	c.AddSeries("combined", []float64{1, 2, 3}, []float64{1, 4, 9})
	c.AddSeries("x-update", []float64{1, 2, 3}, []float64{1, 2, 3})
	var buf bytes.Buffer
	if err := c.WriteASCII(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"-- demo --", "* = combined", "o = x-update", "x: size, y: speedup", "9.0"} {
		if !strings.Contains(out, want) {
			t.Fatalf("chart missing %q:\n%s", want, out)
		}
	}
	// Marker characters must appear in the grid.
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Fatal("markers not plotted")
	}
}

func TestChartEmpty(t *testing.T) {
	c := NewChart("empty", "x", "y")
	var buf bytes.Buffer
	if err := c.WriteASCII(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "(no data)") {
		t.Fatalf("empty chart output: %s", buf.String())
	}
}

func TestChartDegenerateRanges(t *testing.T) {
	// Single point: x and y spans are zero; must not divide by zero.
	c := NewChart("point", "x", "y")
	c.AddSeries("s", []float64{5}, []float64{2})
	out := c.String()
	if !strings.Contains(out, "-- point --") {
		t.Fatalf("degenerate chart failed:\n%s", out)
	}
}

func TestChartSeriesLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewChart("bad", "x", "y").AddSeries("s", []float64{1, 2}, []float64{1})
}

func TestChartMonotoneSeriesTopRightMarker(t *testing.T) {
	// A rising series must place a marker in the last column near the top.
	c := NewChart("rise", "x", "y")
	c.AddSeries("s", []float64{0, 1, 2, 3}, []float64{0, 1, 2, 3})
	lines := strings.Split(c.String(), "\n")
	// Find the first grid line (starts after the title), top row holds
	// the maximum.
	for _, ln := range lines {
		if strings.Contains(ln, "|") && strings.Contains(ln, "*") {
			if !strings.HasSuffix(strings.TrimRight(ln, " "), "*") {
				t.Fatalf("top marker not in final column: %q", ln)
			}
			break
		}
	}
}

func TestAttachChart(t *testing.T) {
	tb := NewTable("t", "a")
	tb.AddRow("1")
	c := NewChart("inline", "x", "y")
	c.AddSeries("s", []float64{1, 2}, []float64{1, 2})
	AttachChart(tb, c)
	var buf bytes.Buffer
	if err := tb.WriteASCII(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "-- inline --") {
		t.Fatal("attached chart not rendered with table")
	}
}

func TestGPUFigureCarriesChart(t *testing.T) {
	tables := quickTables(t, "fig10")
	found := false
	for _, n := range tables[0].Notes {
		if strings.Contains(n, "(curve)") {
			found = true
		}
	}
	if !found {
		t.Fatal("fig10 left table has no chart note")
	}
}
