// Package bulk implements the streaming bulk solve pipeline: a stream
// of JSONL problem specs in, a stream of JSONL results out, with
// everything the per-request path pays per spec — parse, factor-graph
// construction, cold ADMM iterations, encode scratch — amortized across
// the stream.
//
// The pipeline has three stages connected by bounded channels
// (backpressure propagates from the writer back to the reader; a slow
// consumer slows admission instead of ballooning memory):
//
//	read   one goroutine splits the input into length-capped lines,
//	       decodes and admits each (strict JSONL envelope decode,
//	       internal/workload.Parse: spec validation and size caps) and
//	       routes it, in input order, to its shape's solve worker
//	solve  shape-affine workers hold one built problem per shape and a
//	       warm-start snapshot (admm.WarmState): the first record of a
//	       shape solves cold, later records warm-start from the previous
//	       solution of that shape; each worker encodes its own results
//	       with pooled scratch buffers
//	write  Run's goroutine restores input order and streams results out
//
// At most 1024 records are in flight, read but not yet written, so the
// writer's reorder buffer stays bounded whatever the input.
//
// Per-record failures — malformed or over-long lines, unknown
// workloads, spec violations, solve errors (a lost shard worker under
// failover "none" included), even a panic inside a solve — are isolated
// into error records on the output stream; the pipeline keeps going.
// Every record's solve goes through shard.Solve, so a record's failover
// policy is honored exactly as a /v1/solve request's is. Output order always matches input order, and
// records carry no wall-clock fields, so two runs over the same stream
// (or the CLI and the serving endpoint fed the same body) produce
// byte-identical output.
//
// The pipeline is exposed two ways: cmd/paradmm-bulk (stdin → stdout)
// and POST /v1/bulk in internal/serve (chunked JSONL response). See
// docs/bulk.md for the record schema and warm-start semantics.
package bulk
