package workload

import (
	"encoding/json"
	"runtime"
	"testing"
)

// TestProblemBytesTracksHeap checks the graph cache's price against the
// heap: Bytes must be within 2x of what one build keeps alive, measured
// as the HeapAlloc delta of n builds held at once. The shapes are the
// ten serve-mixed shapes (eight repeated, two medium) and the three
// solver shapes of the benchmark.
func TestProblemBytesTracksHeap(t *testing.T) {
	cases := []struct {
		workload, spec string
		n              int
	}{
		{"lasso", `{"m":32,"lambda":0.3,"seed":11}`, 200},
		{"lasso", `{"m":48,"lambda":0.3,"seed":12}`, 200},
		{"svm", `{"n":24,"dim":2,"seed":13}`, 200},
		{"svm", `{"n":40,"dim":2,"seed":14}`, 200},
		{"mpc", `{"k":8,"q0":[0,0,0.08,0]}`, 200},
		{"mpc", `{"k":8,"q0":[0,0,0.12,0]}`, 200},
		{"mpc", `{"k":16,"q0":[0,0,0.12,0]}`, 200},
		{"packing", `{"n":4,"seed":15}`, 200},
		{"mpc", `{"k":100,"q0":[0,0,0.1,0]}`, 50},
		{"svm", `{"n":200,"dim":2,"seed":17}`, 50},
		{"lasso", `{"m":2048,"p":128,"blocks":32,"seed":1}`, 2},
		{"packing", `{"n":64,"seed":1}`, 4},
		{"mpc", `{"k":16000,"q0":[0,0,0.1,0]}`, 2},
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
		if priced < heap/2 || priced > heap*2 {
			t.Errorf("%s %s: Bytes() = %.0f, heap per build %.0f: not within 2x", c.workload, c.spec, priced, heap)
		}
	}
}
