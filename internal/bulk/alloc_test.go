package bulk

import (
	"bytes"
	"context"
	"runtime/debug"
	"testing"

	"repro/internal/store"
)

// TestCodecAllocs pins the per-record codec on the generated stream:
// every well-formed line and every solved record takes the direct path,
// so the fuzzers' agreement checks cover the bytes a real stream
// carries; DecodeLine, the scan of a well-formed line in place with
// copies of its id, workload and spec, allocates only those three (the
// pipeline's admission copies only the id, and takes the workload and
// spec from its memo); and encoding a solved record into a warmed pool
// allocates nothing.
func TestCodecAllocs(t *testing.T) {
	var in, out bytes.Buffer
	if err := Generate(&in, 300, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), bytes.NewReader(in.Bytes()), &out, Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}

	var lines [][]byte
	for _, line := range bytes.SplitAfter(in.Bytes(), []byte("\n")) {
		if _, err := decodeJSON(line); err == nil {
			if e, ok := scanLine(line); !ok || !e.validSpec() {
				t.Fatalf("well-formed line %q missed the direct scan", line)
			}
			lines = append(lines, line)
		}
	}
	var solved []Result
	for _, res := range decodeResults(t, out.Bytes()) {
		if res.Error != "" {
			continue
		}
		// Unvetted, the encoder checks every string and the order of
		// the metric names, so this also pins what vetting takes on
		// trust for every workload the generator sends.
		direct, ok := appendResult(nil, &res, false)
		if !ok {
			t.Fatalf("solved record %+v missed the direct encoder", res)
		}
		if vetted, _ := appendResult(nil, &res, true); !bytes.Equal(vetted, direct) {
			t.Fatalf("vetted encode %q, unvetted %q", vetted, direct)
		}
		solved = append(solved, res)
	}
	if raceEnabled {
		t.Skip("race mode makes sync.Pool drop items at random; steady-state alloc counts are meaningless")
	}
	i := 0
	if allocs := testing.AllocsPerRun(len(lines), func() {
		DecodeLine(lines[i%len(lines)])
		i++
	}); allocs > 3 {
		t.Fatalf("DecodeLine allocates %.1f objects per well-formed line, want <= 3", allocs)
	}

	for _, res := range solved {
		scratchPool.Put(encode(&res, true))
	}
	i = 0
	if allocs := testing.AllocsPerRun(len(solved), func() {
		scratchPool.Put(encode(&solved[i%len(solved)], true))
		i++
	}); allocs > 0 {
		t.Fatalf("encode allocates %.1f objects per solved record into a warmed pool, want 0", allocs)
	}
}

// warmRecords is the length of the generated stream TestWarmStreamAllocs
// and BenchmarkWarmStream run.
const warmRecords = 6000

// warmStream returns one Run over Generate(warmRecords, 1) at two
// workers through a solution store of its own: the first call fills the
// store, and every later one is warm.
func warmStream(tb testing.TB) func() {
	var in bytes.Buffer
	if err := Generate(&in, warmRecords, 1); err != nil {
		tb.Fatal(err)
	}
	st, err := store.Open(store.Options{Dir: tb.TempDir()})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { st.Close() })
	var out bytes.Buffer
	return func() {
		out.Reset()
		if _, err := Run(context.Background(), bytes.NewReader(in.Bytes()), &out, Options{Workers: 2, Store: st}); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestWarmStreamAllocs pins the steady-state cost of a warm record: a
// whole Run over a generated stream whose every shape is seeded from
// the solution store allocates little more than each record's id, the
// one string an output record takes from its line.
func TestWarmStreamAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode makes sync.Pool drop items at random; steady-state alloc counts are meaningless")
	}
	run := warmStream(t)
	// AllocsPerRun's warm-up run fills the store and the encode pool.
	// The pool then grows only when a run holds more records in flight
	// than any before it, which the mean over several runs spreads out.
	// A collection empties a sync.Pool of the buffers idle at the time,
	// so whether one falls inside a measured run would decide a share of
	// the count; with the collector off, the count is the code's own.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	perRecord := testing.AllocsPerRun(5, run) / warmRecords
	t.Logf("a warm Run allocates %.2f objects per record", perRecord)
	if perRecord > 1.5 {
		t.Fatalf("a warm Run allocates %.2f objects per record, want <= 1.5", perRecord)
	}
}

// BenchmarkWarmStream runs the stream TestWarmStreamAllocs pins and
// reports records/s along with the allocations of a whole Run.
func BenchmarkWarmStream(b *testing.B) {
	run := warmStream(b)
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		run()
	}
	b.ReportMetric(float64(warmRecords*b.N)/b.Elapsed().Seconds(), "records/s")
}
