// Package bulk implements the streaming bulk solve pipeline: a stream
// of JSONL problem specs in, a stream of JSONL results out, with
// everything the per-request path pays per spec — parse, factor-graph
// construction, cold ADMM iterations, encode scratch — amortized across
// the stream.
//
// The pipeline has three stages (backpressure propagates from the
// writer back to the reader; a slow consumer slows admission instead of
// ballooning memory):
//
//	read   one goroutine splits the input into length-capped lines,
//	       decodes and admits each (strict JSONL envelope decode,
//	       internal/workload.Parse once per distinct spec: spec
//	       validation and size caps) and files it, in input order, on
//	       its shape's lane in the dispatcher
//	solve  any free worker takes the whole pending run of the next
//	       ready lane; a lane is held by one worker at a time and keeps
//	       one built problem, whose graph holds the shape's warm-start
//	       chain: the first record of a shape solves cold (or from the
//	       solution store's admm.WarmState), later records continue
//	       from the previous solution of that shape; each worker
//	       encodes its results with pooled scratch buffers
//	write  Run's goroutine restores input order and streams results out
//
// A chain leaves its lane only at hand-back, when the stream ends: a
// live chain is captured once for the solution store. A failed,
// panicked or diverged solve drops it, and the next record of the
// shape starts cold. Finiteness comes from the last residual check's
// sums of squares (admm.Result.Finite); a record without one is
// scanned.
//
// The per-record codec scans a canonical envelope and appends a plain
// result directly, and leaves every other line or record, and so every
// refusal text, to encoding/json, whose bytes both paths give exactly.
//
// At most 1024 records are in flight, read but not yet written, so the
// lanes' pending runs and the writer's reorder buffer stay bounded
// whatever the input.
//
// Per-record failures — malformed or over-long lines, unknown
// workloads, spec violations, solve errors (a lost shard worker under
// failover "none" included), even a panic inside a solve — are isolated
// into error records on the output stream; the pipeline keeps going.
// Every record's solve goes through workload.Solve, the path a
// /v1/solve request takes, so a record solves exactly as that request
// does, failover policy included. Output order always matches input order, and
// records carry no wall-clock fields, so two runs over the same stream
// (or the CLI and the serving endpoint fed the same body) produce
// byte-identical output.
//
// The pipeline is exposed two ways: cmd/paradmm-bulk (stdin → stdout)
// and POST /v1/bulk in internal/serve (chunked JSONL response). See
// docs/bulk.md for the record schema and warm-start semantics.
package bulk
