package bulk

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/admm"
	"repro/internal/workload"
)

// Request is one input record of the bulk stream: a workload spec plus
// optional per-record solve controls. Unknown fields are admission
// errors (strict decode), matching the per-request serving envelope.
type Request struct {
	// ID is an optional caller-supplied correlation tag echoed on the
	// result record.
	ID string `json:"id,omitempty"`
	// Workload names the problem family (lasso | svm | mpc | packing).
	Workload string `json:"workload"`
	// Spec is the workload's raw spec object, validated by
	// internal/workload.Parse.
	Spec json.RawMessage `json:"spec"`
	// Executor optionally overrides the stream-level executor spec for
	// this record.
	Executor *admm.ExecutorSpec `json:"executor,omitempty"`
	// MaxIter/AbsTol/RelTol override the stream-level iteration budget
	// and stopping tolerances when non-zero.
	MaxIter int     `json:"max_iter,omitempty"`
	AbsTol  float64 `json:"abs_tol,omitempty"`
	RelTol  float64 `json:"rel_tol,omitempty"`
}

// Result is one output record. Records carry no wall-clock fields on
// purpose: the output stream is a pure function of the input stream and
// the pipeline options, so independent runs (and the CLI vs the serving
// endpoint) can be diffed byte-for-byte.
type Result struct {
	// Seq is the zero-based input record index; output order matches.
	Seq int `json:"seq"`
	// ID echoes the request's correlation tag.
	ID string `json:"id,omitempty"`
	// Workload/Shape identify what was solved: the canonical workload
	// name and the shape key the record was grouped (and warm-started)
	// under.
	Workload string `json:"workload,omitempty"`
	Shape    string `json:"shape,omitempty"`
	// Warm reports whether this solve started from the previous
	// solution of the same shape instead of a cold init.
	Warm bool `json:"warm,omitempty"`
	// Iterations/Converged report how the solve stopped.
	Iterations int  `json:"iterations,omitempty"`
	Converged  bool `json:"converged,omitempty"`
	// Metrics carries the workload's quality numbers, finite values only
	// (workload.Problem drops the rest: JSON cannot carry them).
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Error, when non-empty, marks a failed record; the other solve
	// fields are zero. Failures are per-record: the stream continues.
	Error string `json:"error,omitempty"`
}

// DecodeLine strictly decodes one JSONL input line into a Request.
// Unknown envelope fields are errors; spec-level validation is the
// workload admission layer's job.
func DecodeLine(line []byte) (Request, error) {
	var req Request
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return Request{}, fmt.Errorf("decode: %v", err)
	}
	// A second document on the same line is a framing error, not data.
	if dec.More() {
		return Request{}, fmt.Errorf("decode: trailing data after request object")
	}
	return req, nil
}

// validate checks the per-record executor and solve controls against
// the stream limits. It runs at admission so solve workers only ever
// see well-formed work.
func (r *Request) validate(maxIterLimit int) error {
	if r.Executor != nil {
		if err := r.Executor.Validate(); err != nil {
			return err
		}
	}
	return workload.CheckControls(r.MaxIter, maxIterLimit, r.AbsTol, r.RelTol)
}
