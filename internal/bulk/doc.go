// Package bulk implements the streaming bulk solve pipeline: a stream
// of JSONL problem specs in, a stream of JSONL results out, with
// everything the per-request path pays per spec — parse, factor-graph
// construction, cold ADMM iterations, encode scratch — amortized across
// the stream.
//
// The pipeline is one stage: Run starts Options.Workers workers, its
// own goroutine among them, and each takes turns at whatever the stream
// needs next (backpressure propagates from the output back to the
// input; a slow consumer slows admission instead of ballooning memory):
//
//	read   one worker at a time holds the reader role: it splits the
//	       input into length-capped lines and decodes and admits up to
//	       64 of them (strict JSONL envelope decode,
//	       internal/workload.Parse once per distinct spec: spec
//	       validation and size caps), then files each, in input order,
//	       on its shape's lane in the dispatcher and gives the role back
//	solve  a free worker takes the whole pending run of the next ready
//	       lane; a lane is held by one worker at a time and keeps one
//	       built problem, whose graph holds the shape's warm-start
//	       chain: the first record of a shape solves cold (or from the
//	       solution store's admm.WarmState), later records continue
//	       from the previous solution of that shape; the worker encodes
//	       each result with a pooled scratch buffer
//	write  each encoded record takes its slot in a ring of 1024; the
//	       worker that fills the head slot writes that record and every
//	       consecutive one after it, so output keeps input order
//
// A free worker takes the reader role first while the window has room,
// so reading never waits behind a solve; but ahead of a ready lane only
// when a whole line is buffered or a waiting worker is there for every
// ready lane, so no ready lane waits on a worker sitting in a Read. There is no reader, writer or closer
// goroutine: every core the stream gets goes to a worker, and
// Stats.IdleNanos says how long the workers spent away from the
// stream's work, waiting for it or inside the input's Read or the
// output's Write.
//
// A chain leaves its lane only at hand-back, when the stream ends: a
// live chain is captured once for the solution store. A failed,
// panicked or diverged solve drops it, and the next record of the
// shape starts cold. Finiteness comes from the last residual check's
// sums of squares (admm.Result.Finite); a record without one is
// scanned.
//
// The per-record codec scans a canonical envelope in place and appends
// a plain result directly, and leaves every other line or record, and
// so every refusal text, to encoding/json, whose bytes both paths give
// exactly. A result's metrics are the workload's sorted list
// (workload.Problem.AppendMetrics, into storage the lane keeps), which
// the encoder writes in order; the encode buffers come from a pool that
// outlives the stream.
//
// The admission memo maps a line's raw workload name and spec bytes to
// the workload.Parse outcome, refusal included, with the name and a
// validated copy of the spec, for at most window distinct specs a
// stream. A canonical line looks it up with the bytes where they stand
// in the line; only a miss checks the spec with json.Valid and copies
// it, and a hit hands out the memo's name and spec. So a record of a
// known spec allocates only its id, and a warm record, whose solve,
// metrics and encode allocate nothing, costs little more.
//
// At most 1024 records are in flight, read but not yet written, so the
// lanes' pending runs and the commit ring stay bounded whatever the
// input. The first write error stops the stream at each worker's next
// record.
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
