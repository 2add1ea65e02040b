package workload

import (
	"encoding/json"
	"runtime"
	"testing"
)

// TestProblemBytesTracksHeap checks the graph cache's price against the
// heap: Bytes must be within 1.5x of what one build keeps alive, measured
// as the HeapAlloc delta of n builds held at once. The shapes are the
// ten serve-mixed shapes (eight repeated, two medium) and the three
// solver shapes of the benchmark. The two large solver shapes also carry
// a ceiling on that heap: an mpc build holds no M array, 24-byte
// dynamics clones and one stage-cost box (12.6 MiB when it held all
// three), and a lasso build aliases its blocks' rows of A (8.7 MiB when
// it copied them).
func TestProblemBytesTracksHeap(t *testing.T) {
	const mib = 1 << 20
	cases := []struct {
		workload, spec string
		n              int
		maxHeap        float64 // bytes per build; 0 means no ceiling
	}{
		{"lasso", `{"m":32,"lambda":0.3,"seed":11}`, 200, 0},
		{"lasso", `{"m":48,"lambda":0.3,"seed":12}`, 200, 0},
		{"svm", `{"n":24,"dim":2,"seed":13}`, 200, 0},
		{"svm", `{"n":40,"dim":2,"seed":14}`, 200, 0},
		{"mpc", `{"k":8,"q0":[0,0,0.08,0]}`, 200, 0},
		{"mpc", `{"k":8,"q0":[0,0,0.12,0]}`, 200, 0},
		{"mpc", `{"k":16,"q0":[0,0,0.12,0]}`, 200, 0},
		{"packing", `{"n":4,"seed":15}`, 200, 0},
		{"mpc", `{"k":100,"q0":[0,0,0.1,0]}`, 50, 0},
		{"svm", `{"n":200,"dim":2,"seed":17}`, 50, 0},
		{"lasso", `{"m":2048,"p":128,"blocks":32,"seed":1}`, 2, 7 * mib},
		{"packing", `{"n":64,"seed":1}`, 4, 0},
		{"mpc", `{"k":16000,"q0":[0,0,0.1,0]}`, 2, 9.5 * mib},
	}
	for _, c := range cases {
		adm, err := Parse(c.workload, json.RawMessage(c.spec))
		if err != nil {
			t.Fatal(err)
		}
		probs := make([]Problem, c.n)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := range probs {
			if probs[i], err = adm.Build(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		heap := float64(after.HeapAlloc-before.HeapAlloc) / float64(c.n)
		priced := float64(probs[0].Bytes())
		runtime.KeepAlive(probs)
		t.Logf("%s %s: Bytes %.0f, heap %.0f per build (%.2fx)", c.workload, c.spec, priced, heap, heap/priced)
		if priced < heap/1.5 || priced > heap*1.5 {
			t.Errorf("%s %s: Bytes() = %.0f, heap per build %.0f: not within 1.5x", c.workload, c.spec, priced, heap)
		}
		if c.maxHeap > 0 && heap > c.maxHeap {
			t.Errorf("%s %s: heap per build %.2f MiB, ceiling %.2f MiB", c.workload, c.spec, heap/mib, c.maxHeap/mib)
		}
	}
}
