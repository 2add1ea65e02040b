package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"strconv"
	"time"

	"repro/internal/bulk"
	"repro/internal/store"
)

// bulkWorkers is the solve-stage worker count: the reference box's cores.
const bulkWorkers = 2

// bulkState is an open solution store already seeded by one cold
// stream, plus the request stream every timed op replays.
type bulkState struct {
	dir       string
	st        *store.Store
	input     []byte
	records   [][]byte // input split into lines
	malformed int      // lines the generator broke on purpose
	coldSecs  float64
	out       bytes.Buffer
}

func newBulkState(b *bench) (*bulkState, error) {
	records := 6000
	if b.o.smoke {
		records = 300
	}
	s := &bulkState{}
	var in bytes.Buffer
	if err := bulk.Generate(&in, records, b.o.seed); err != nil {
		return nil, err
	}
	s.input = in.Bytes()
	s.records = splitLines(s.input)
	for _, line := range s.records {
		// Every well-formed generated record starts with its id.
		if !bytes.HasPrefix(line, []byte(`{"id":"r`)) {
			s.malformed++
		}
	}
	var err error
	if s.dir, err = b.tmpDir(); err != nil {
		return nil, err
	}
	if s.st, err = store.Open(store.Options{Dir: s.dir}); err != nil {
		return nil, err
	}
	t0 := time.Now()
	if _, ok, err := s.stream(nil); err != nil || !ok {
		s.close()
		return nil, fmt.Errorf("cold stream: answers ok = %v, %v", ok, err)
	}
	s.coldSecs = time.Since(t0).Seconds()
	return s, nil
}

func splitLines(text []byte) [][]byte {
	return bytes.Split(bytes.TrimSuffix(text, []byte("\n")), []byte("\n"))
}

func (s *bulkState) close() {
	if s == nil {
		return
	}
	s.st.Close()
	os.RemoveAll(s.dir)
}

// stream is one op: the whole request stream through the pipeline, then
// the store made durable. It checks result count, order and that
// exactly the deliberately malformed lines came back as errors.
func (s *bulkState) stream(op *at) (bulk.Stats, bool, error) {
	s.out.Reset()
	sp := op.child("bulk", "stream")
	stats, err := bulk.Run(context.Background(), bytes.NewReader(s.input), &s.out,
		bulk.Options{Workers: bulkWorkers, Store: s.st})
	sp.end()
	if err != nil {
		return stats, false, err
	}
	sp = op.child("store", "store_sync")
	err = s.st.Sync()
	sp.end()
	if err != nil {
		return stats, false, err
	}

	ok := int(stats.Results) == len(s.records) && int(stats.Errors) == s.malformed
	seq, errors := 0, 0
	for _, line := range splitLines(s.out.Bytes()) {
		prefix := strconv.AppendInt([]byte(`{"seq":`), int64(seq), 10)
		ok = ok && bytes.HasPrefix(line, append(prefix, ','))
		if bytes.Contains(line, []byte(`"error":"`)) {
			errors++
		}
		seq++
	}
	return stats, ok && seq == len(s.records) && errors == s.malformed, nil
}

// bulkWorkload is the body of bulk-warm: every chain starts from the
// store's solution and converges at its first residual check, so the
// per-record pipeline and the warm-start path are what is timed.
func bulkWorkload(b *bench) error {
	var s *bulkState
	defer func() { s.close() }()
	err := b.setUp(func() { s.close(); s = nil }, func() (err error) {
		s, err = newBulkState(b)
		return err
	})
	if err != nil {
		return err
	}

	var opMS []float64
	var traced []bool
	var total bulk.Stats
	speed := startSpeedMeter()
	w := b.window(3)
	streams := 0
	for ; w.more(streams); streams++ {
		op := b.tr.startOp("harness", "stream", streams%2 == 0)
		t0 := time.Now()
		stats, ok, err := s.stream(op)
		wall := time.Since(t0)
		op.end()
		if err != nil {
			return err
		}
		opMS, traced = append(opMS, ms(wall)*speed.factor()), append(traced, op != nil)
		b.count(ok)
		total.Solved += stats.Solved
		total.WarmStarts += stats.WarmStarts
		total.Iterations += stats.Iterations
		total.CacheHits += stats.CacheHits
		total.StoreHits += stats.StoreHits
		total.StoreSaves += stats.StoreSaves
	}

	b.set("op_ms_p50", median(opMS))
	recPerS := float64(len(s.records)) / (median(opMS) / 1e3)
	b.set("work_per_s", recPerS)
	if !b.o.trace {
		return nil
	}

	n := float64(streams)
	b.set("rec_per_s", recPerS)
	b.set("bulk.cold_rec_per_s", float64(len(s.records))/s.coldSecs)
	b.set("bulk.warm_share", ratio(float64(total.WarmStarts), float64(total.Solved)))
	b.set("bulk.iters_per_rec", ratio(float64(total.Iterations), float64(total.Solved)))
	b.set("bulk.cache_hits", float64(total.CacheHits)/n)
	b.set("bulk.out_b_per_rec", float64(s.out.Len())/float64(len(s.records)))
	b.set("store.hits", float64(total.StoreHits)/n)
	b.set("store.saves", float64(total.StoreSaves)/n)
	b.set("trace.overhead_share", traceOverhead(opMS, traced))
	return s.probeRecords(b)
}

// probeRecords times the envelope decode over the stream's own lines,
// then runs the graph and store probes on its first record's problem.
func (s *bulkState) probeRecords(b *bench) error {
	var first *bulk.Request
	b.set("bulk.decode_us", probe(b, "bulk", "decode", 1, func() {
		for _, line := range s.records {
			req, err := bulk.DecodeLine(line)
			if err == nil && first == nil {
				first = &req
			}
		}
	})/1e3/float64(len(s.records)))
	if first == nil {
		return fmt.Errorf("no well-formed record in the generated stream")
	}
	prob, err := buildProblem(first.Workload, string(first.Spec))
	if err != nil {
		return err
	}
	prob.Reset()
	return probeGraph(b, first.Workload, string(first.Spec), prob.FactorGraph())
}
