package serve

import (
	"net/http"

	"repro/internal/bulk"
)

// handleBulk streams a JSONL request body through the bulk pipeline
// (internal/bulk) and writes the JSONL result stream back chunked, in
// input order, flushing per record. Concurrent streams are bounded by
// Config.BulkStreams — the same 429 backpressure contract as the solve
// pool's queue — and each stream's solves share the server's graph
// cache. Per-record failures become error records inside the stream;
// the response status is already 200 by the time they can happen.
func (s *Server) handleBulk(w http.ResponseWriter, r *http.Request) {
	select {
	case s.bulkSem <- struct{}{}:
		defer func() { <-s.bulkSem }()
	default:
		s.met.recordBulk(bulk.Stats{}, "rejected")
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: "bulk stream limit reached"})
		return
	}

	// Results stream back while the request body is still being read;
	// HTTP/1.1 needs full duplex opted in (HTTP/2 always has it, and
	// returns an error here that is safe to ignore).
	rc := http.NewResponseController(w)
	rc.EnableFullDuplex()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	// Push the headers out now: a client may wait for them before
	// sending (or while still sending) its request body, and the first
	// result record can be a long solve away.
	rc.Flush()

	s.met.bulkInflight.Add(1)
	defer s.met.bulkInflight.Add(-1)

	// Run joins the worker holding its reader role before returning, so
	// r.Body is never read after this handler returns. The join cannot
	// hang: the only thing that cancels r.Context() is the connection
	// going away, which also unblocks the in-flight Body.Read.
	opts := bulk.Options{Workers: s.cfg.BulkWorkers, Cache: s.cache}
	// Assign only when non-nil: a nil *store.Store stuffed into the
	// interface field would read as "store configured" to the pipeline.
	if s.cfg.Store != nil {
		opts.Store = s.cfg.Store
	}
	stats, err := bulk.Run(r.Context(), r.Body, flushWriter{w, rc}, opts)
	outcome := "ok"
	if err != nil {
		// Client gone or body unreadable mid-stream; whatever was
		// written stands.
		outcome = "aborted"
	}
	s.met.recordBulk(stats, outcome)
}

// flushWriter pushes each result record to the client as it is
// written, so a slow stream delivers results incrementally.
type flushWriter struct {
	w  http.ResponseWriter
	rc *http.ResponseController
}

func (f flushWriter) Write(b []byte) (int, error) {
	n, err := f.w.Write(b)
	if err == nil {
		f.rc.Flush()
	}
	return n, err
}
