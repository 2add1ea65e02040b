package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call the harness made into a layer. Spans of one op
// share Op; Parent is 0 for an op's root span. Attrs carries counts and
// program-reported times observed at the same boundary.
type span struct {
	ID      int                `json:"id"`
	Parent  int                `json:"parent"`
	Op      int                `json:"op"`
	Layer   string             `json:"layer"`
	Name    string             `json:"name"`
	StartNS int64              `json:"start_ns"`
	EndNS   int64              `json:"end_ns"`
	Attrs   map[string]float64 `json:"attrs,omitempty"`
}

// tracer holds the spans of a traced run in memory until it ends. All
// spans are recorded from the benchmark's own files, around calls into
// the repository's packages; nothing inside those packages is touched.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// at is a handle on one open span. A nil handle is an op that is not
// traced: every method is then a no-op, so workloads are written once.
type at struct {
	t  *tracer
	id int
}

// startOp opens the root span of a new op. In a traced run every second
// op is left untraced, so that the run itself yields the tracing
// overhead: the two kinds interleave under identical conditions.
func (t *tracer) startOp(layer, name string, traced bool) *at {
	if t == nil || !traced {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.open(0, t.ops, layer, name)
}

// open appends a span; the caller holds t.mu.
func (t *tracer) open(parent, op int, layer, name string) *at {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Layer: layer, Name: name,
		StartNS: time.Since(t.t0).Nanoseconds()})
	return &at{t: t, id: id}
}

// child opens a span under a.
func (a *at) child(layer, name string) *at {
	if a == nil {
		return nil
	}
	a.t.mu.Lock()
	defer a.t.mu.Unlock()
	return a.t.open(a.id, a.t.spans[a.id-1].Op, layer, name)
}

func (a *at) end() {
	if a == nil {
		return
	}
	now := time.Since(a.t.t0).Nanoseconds()
	a.t.mu.Lock()
	a.t.spans[a.id-1].EndNS = now
	a.t.mu.Unlock()
}

func (a *at) attr(key string, v float64) {
	if a == nil {
		return
	}
	a.t.mu.Lock()
	defer a.t.mu.Unlock()
	s := &a.t.spans[a.id-1]
	if s.Attrs == nil {
		s.Attrs = map[string]float64{}
	}
	s.Attrs[key] = v
}

// traceFile is what a traced run leaves behind for `benchmark report`.
type traceFile struct {
	Workload string `json:"workload"`
	Spans    []span `json:"spans"`
}

func (t *tracer) write(path, workload string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(traceFile{Workload: workload, Spans: t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
