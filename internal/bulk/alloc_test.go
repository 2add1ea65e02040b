package bulk

import (
	"bytes"
	"context"
	"testing"
)

// TestCodecAllocs pins the per-record codec on the generated stream:
// every well-formed line and every solved record takes the direct path,
// so the fuzzers' agreement checks cover the bytes a real stream
// carries; decoding a well-formed line allocates only the request's id,
// workload and spec; and encoding a solved record into a warmed pool
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
			if _, ok := scanLine(line); !ok {
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
		if _, ok := new(encodeScratch).appendResult(nil, &res); !ok {
			t.Fatalf("solved record %+v missed the direct encoder", res)
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

	p := newTestPipeline()
	for _, res := range solved {
		p.scratch.Put(p.encode(res))
	}
	i = 0
	if allocs := testing.AllocsPerRun(len(solved), func() {
		p.scratch.Put(p.encode(solved[i%len(solved)]))
		i++
	}); allocs > 0 {
		t.Fatalf("encode allocates %.1f objects per solved record into a warmed pool, want 0", allocs)
	}
}
