package bulk

import (
	"bytes"
	"context"
	"flag"
	"os"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/stream.golden from the current output")

// goldenInput is the golden stream's input: a generated mixed stream
// followed by testdata/odd.jsonl, hand-written lines that take the
// envelope codec's uncommon paths — an executor object, escaped, HTML
// and non-ASCII ids, case-folded and duplicate keys, nulls, max_iter
// 1.0, a trailing brace, trailing text, unknown fields, padded
// whitespace, -0, an out-of-range float, a brace inside a spec string
// and CRLF endings.
func goldenInput(t testing.TB) []byte {
	t.Helper()
	var in bytes.Buffer
	if err := Generate(&in, 600, 11); err != nil {
		t.Fatal(err)
	}
	odd, err := os.ReadFile("testdata/odd.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	in.Write(odd)
	return in.Bytes()
}

// TestStreamGolden pins the output bytes of a stream at 1 and 2
// workers against testdata/stream.golden. Run with -update to rewrite
// the file; the codec must never need that.
func TestStreamGolden(t *testing.T) {
	in := goldenInput(t)
	for _, workers := range []int{1, 2} {
		var out bytes.Buffer
		if _, err := Run(context.Background(), bytes.NewReader(in), &out, Options{Workers: workers}); err != nil {
			t.Fatal(err)
		}
		if *updateGolden && workers == 1 {
			if err := os.WriteFile("testdata/stream.golden", out.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile("testdata/stream.golden")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			got := bytes.Split(out.Bytes(), []byte("\n"))
			exp := bytes.Split(want, []byte("\n"))
			for i := range min(len(got), len(exp)) {
				if !bytes.Equal(got[i], exp[i]) {
					t.Fatalf("workers %d: output line %d differs from the golden:\n got %s\nwant %s", workers, i, got[i], exp[i])
				}
			}
			t.Fatalf("workers %d: output has %d lines, golden %d", workers, len(got), len(exp))
		}
	}
}
