package bulk

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/admm"
	"repro/internal/graph"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/workload"
)

// Options configures one bulk pipeline run. The zero value is usable:
// GOMAXPROCS solve workers, serial executor, 1000-iteration budget.
type Options struct {
	// Workers is the solve-stage worker count (default GOMAXPROCS).
	// Records are routed to workers by shape key, so same-shape records
	// always solve sequentially in input order on one worker — that is
	// what makes warm-start chains deterministic.
	Workers int
	// Executor is the stream-level executor spec; a record's own
	// executor field replaces it wholesale for that record.
	Executor admm.ExecutorSpec
	// MaxIter is the default iteration budget for records that do not
	// set max_iter (default 1000). MaxIterLimit caps per-record
	// overrides (default 200000).
	MaxIter      int
	MaxIterLimit int
	// AbsTol/RelTol are the default stopping tolerances; a record's own
	// non-zero values override them.
	AbsTol, RelTol float64
	// Cache, when non-nil, is a shared graph cache (e.g. the serving
	// layer's): each shape is looked up there on first sight, and its
	// problem is returned to it when the run ends. Nil builds every
	// shape.
	Cache *graph.Cache[workload.Problem]
	// MaxLineBytes bounds one input line's payload, excluding the line
	// terminator (default 1 MiB). Longer lines become error records
	// without buffering the excess.
	MaxLineBytes int
	// Store, when non-nil, extends warm-start chains across runs: each
	// shape's chain is seeded from the store on first sight (a snapshot
	// whose shape does not match the built graph is rejected and the
	// solve runs cold), and each chain's final state is persisted when
	// the run ends. Chains that ended on a failed or panicked solve are
	// never persisted.
	Store SolutionStore
}

// SolutionStore is the persistence seam for warm-start chains; it is
// satisfied by *store.Store. Implementations must be safe for
// concurrent use — every solve worker calls Get.
type SolutionStore interface {
	Get(key string) (store.Snapshot, bool)
	Put(key string, snap store.Snapshot) error
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 1000
	}
	if o.MaxIterLimit <= 0 {
		o.MaxIterLimit = 200000
	}
	if o.MaxLineBytes <= 0 {
		o.MaxLineBytes = 1 << 20
	}
	return o
}

const (
	// window bounds the records in flight — read but not yet written —
	// and with them the writer's reorder buffer, whatever the input.
	window = 1024
	// queueDepth is each solve worker's queue length. A shallow queue
	// stalls the reader on one busy worker while another sits idle.
	queueDepth = 16
)

// Stats summarizes one pipeline run. Results/Errors count records
// actually written to the output; the solve counters count work
// performed, so on cancellation they can exceed the written records.
type Stats struct {
	// Lines is the number of non-blank input lines admitted.
	Lines uint64 `json:"lines"`
	// Results is the number of output records written; Errors of those
	// carried an error field.
	Results uint64 `json:"results"`
	Errors  uint64 `json:"errors"`
	// Solved counts successful solves; WarmStarts of those started from
	// a previous same-shape solution; Iterations is their total ADMM
	// iteration count.
	Solved     uint64 `json:"solved"`
	WarmStarts uint64 `json:"warm_starts"`
	Iterations uint64 `json:"iterations"`
	// CacheHits counts shapes bound from the graph cache instead of
	// built; Shapes is the number of distinct shape keys seen.
	CacheHits uint64 `json:"cache_hits"`
	Shapes    int    `json:"shapes"`
	// StoreHits counts shapes whose chain was seeded from the solution
	// store; StoreMisses counts first-sight lookups that found nothing
	// usable (absent, corrupt, or shape-mismatched); StoreSaves counts
	// chains persisted at stream end. All zero when Options.Store is nil.
	StoreHits   uint64 `json:"store_hits,omitempty"`
	StoreMisses uint64 `json:"store_misses,omitempty"`
	StoreSaves  uint64 `json:"store_saves,omitempty"`
}

// task is an admitted record on its way to its solve worker. When
// errMsg is set the record was refused and the worker only encodes the
// error.
type task struct {
	seq    int
	req    Request
	adm    workload.Admission
	errMsg string
}

// encoded is one rendered output record awaiting its turn at the
// writer. The scratch buffer returns to the pool after the write.
type encoded struct {
	seq   int
	isErr bool
	s     *encodeScratch
}

type encodeScratch struct {
	buf bytes.Buffer
	enc *json.Encoder
}

// shapeState is the per-shape solve state a worker carries across the
// stream: the built problem (checked out of the graph cache, if any)
// and the warm-start snapshot of its last solution. Shape-affine
// routing guarantees a single worker touches it.
type shapeState struct {
	prob workload.Problem
	warm admm.WarmState
	// storeChecked marks that the one-per-shape store lookup happened;
	// dirty marks that warm holds a snapshot from a successful solve
	// that the store does not have yet (cleared whenever a failed,
	// panicked or diverged solve resets the chain); iterations is the iteration
	// count of the solve that produced the snapshot.
	storeChecked bool
	dirty        bool
	iterations   int
}

type pipeline struct {
	ctx  context.Context
	opts Options

	scratch sync.Pool

	lines      atomic.Uint64
	results    atomic.Uint64
	errs       atomic.Uint64
	solved     atomic.Uint64
	warmStarts atomic.Uint64
	iterations atomic.Uint64
	cacheHits  atomic.Uint64

	storeHits   atomic.Uint64
	storeMisses atomic.Uint64
	storeSaves  atomic.Uint64
}

// send delivers v unless the context is done first.
func send[T any](ctx context.Context, ch chan<- T, v T) bool {
	select {
	case ch <- v:
		return true
	case <-ctx.Done():
		return false
	}
}

// Run streams JSONL requests from r through the staged pipeline and
// writes JSONL results to w in input order. Per-record failures become
// error records on the stream; Run itself only fails on input read
// errors, output write errors, or context cancellation. On
// cancellation all stages drain and every goroutine exits before Run
// returns — including the reader, so a canceled Run blocks until the
// in-flight r.Read returns. Callers whose cancellation does not also
// unblock r (net/http request bodies unblock on the connection
// teardown that cancels the request context; files and pipes with
// data never block) must arrange that themselves.
func Run(ctx context.Context, r io.Reader, w io.Writer, opts Options) (Stats, error) {
	p := &pipeline{ctx: ctx, opts: opts.withDefaults()}
	p.scratch.New = func() any {
		s := &encodeScratch{}
		s.enc = json.NewEncoder(&s.buf)
		return s
	}

	// The reader takes a token for each record it routes and the writer
	// returns it once the record is written.
	tokens := make(chan struct{}, window)
	queues := make([]chan *task, p.opts.Workers)
	shapes := make([]map[string]*shapeState, p.opts.Workers)
	// out's buffer lets a worker hand off a finished record and start
	// the next one while the writer is inside a Write.
	out := make(chan encoded, 16)

	var wg sync.WaitGroup
	for i := range queues {
		queues[i] = make(chan *task, queueDepth)
		shapes[i] = map[string]*shapeState{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.solve(queues[i], out, shapes[i])
		}()
	}
	go func() {
		wg.Wait()
		close(out)
	}()

	// The reader's error travels over a buffered channel so the
	// goroutine can deposit it and exit unconditionally; Run joins it
	// with a blocking receive once the downstream stages have unwound.
	readErrCh := make(chan error, 1)
	go func() {
		readErrCh <- p.read(r, queues, tokens)
		for _, q := range queues {
			close(q)
		}
	}()

	// write returns once out is closed, that is once every solve worker
	// has exited, so the shape maps are no longer touched and no graph
	// is still being solved when it is published to a shared cache
	// below. The reader join terminates too: once the context is done
	// its sends fall through to ctx.Done, and it deposits its error as
	// soon as the in-flight r.Read returns.
	writeErr := p.write(w, out, tokens)
	readErr := <-readErrCh

	// Persist each chain's final snapshot, then return built graphs to
	// the cache for the next stream (or the serving layer's other
	// handlers). Only dirty chains are written: a chain whose last solve
	// failed or panicked was reset and must not poison the store.
	nShapes := 0
	for _, m := range shapes {
		nShapes += len(m)
		for key, st := range m {
			if p.opts.Store != nil && st.dirty && st.warm.Captured() {
				if err := p.opts.Store.Put(key, store.Snapshot{Warm: st.warm, Iterations: st.iterations}); err == nil {
					p.storeSaves.Add(1)
				}
			}
			if st.prob != nil && p.opts.Cache != nil {
				p.opts.Cache.Put(key, st.prob)
			}
		}
	}

	stats := Stats{
		Lines:      p.lines.Load(),
		Results:    p.results.Load(),
		Errors:     p.errs.Load(),
		Solved:     p.solved.Load(),
		WarmStarts: p.warmStarts.Load(),
		Iterations: p.iterations.Load(),
		CacheHits:  p.cacheHits.Load(),
		Shapes:     nShapes,

		StoreHits:   p.storeHits.Load(),
		StoreMisses: p.storeMisses.Load(),
		StoreSaves:  p.storeSaves.Load(),
	}
	switch {
	case writeErr != nil:
		return stats, fmt.Errorf("bulk: write output: %w", writeErr)
	case readErr != nil:
		return stats, fmt.Errorf("bulk: read input: %w", readErr)
	default:
		return stats, ctx.Err()
	}
}

// read splits the input into length-capped lines, admits each non-blank
// line and routes it, in input order, to a solve worker: an admitted
// record to its shape's worker, a refused one (over-long, undecodable
// or inadmissible) to worker seq % Workers. Over-long lines are
// consumed, not buffered. Each record takes a token first, so the
// reader stalls while the window is full.
func (p *pipeline) read(r io.Reader, queues []chan *task, tokens chan<- struct{}) error {
	br := bufio.NewReaderSize(r, 64<<10)
	seq := 0
	for {
		if p.ctx.Err() != nil {
			return nil
		}
		line, tooLong, err := readLine(br, p.opts.MaxLineBytes)
		if tooLong || len(bytes.TrimSpace(line)) > 0 {
			p.lines.Add(1)
			t := p.admit(seq, line, tooLong)
			q := queues[seq%len(queues)]
			if t.errMsg == "" {
				q = queues[shapeWorker(t.adm.Key, len(queues))]
			}
			if !send(p.ctx, tokens, struct{}{}) || !send(p.ctx, q, t) {
				return nil
			}
			seq++
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// readLine reads up to and including the next newline, accumulating a
// payload of at most max bytes — the line terminator is not counted
// against the cap, so a payload of exactly max bytes is accepted. Past
// the cap it keeps consuming (so the stream stays framed) but stops
// buffering and reports tooLong.
func readLine(br *bufio.Reader, max int) (line []byte, tooLong bool, err error) {
	var buf []byte
	for {
		frag, e := br.ReadSlice('\n')
		if !tooLong {
			n := len(buf) + len(frag)
			if len(frag) > 0 && frag[len(frag)-1] == '\n' {
				n--
			}
			if n > max {
				tooLong = true
				buf = nil
			} else {
				buf = append(buf, frag...)
			}
		}
		if e == bufio.ErrBufferFull {
			continue
		}
		return buf, tooLong, e
	}
}

// admit turns one input line into a task: strict envelope decode,
// workload admission (spec validation + shape key), per-record control
// validation. A failure rides along as the task's error.
func (p *pipeline) admit(seq int, line []byte, tooLong bool) *task {
	t := &task{seq: seq}
	if tooLong {
		t.errMsg = fmt.Sprintf("line exceeds %d bytes", p.opts.MaxLineBytes)
		return t
	}
	req, err := DecodeLine(line)
	if err != nil {
		t.errMsg = err.Error()
		return t
	}
	t.req = req
	t.adm, err = workload.Parse(req.Workload, req.Spec)
	if err == nil {
		err = req.validate(p.opts.MaxIterLimit)
	}
	if err != nil {
		t.errMsg = err.Error()
	}
	return t
}

// shapeWorker routes a shape key to a solve worker (FNV-1a). All
// records of one shape land on one worker, in input order.
func shapeWorker(key string, n int) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return int(h % uint32(n))
}

// solve runs one worker's share of the stream: each record is solved
// (or keeps its admission error), encoded, and handed to the writer.
// shapes holds the state of every shape routed to this worker.
func (p *pipeline) solve(in <-chan *task, out chan<- encoded, shapes map[string]*shapeState) {
	for {
		var t *task
		var ok bool
		select {
		case t, ok = <-in:
			if !ok {
				return
			}
		case <-p.ctx.Done():
			return
		}
		res := Result{Seq: t.seq, ID: t.req.ID, Workload: t.adm.Workload, Error: t.errMsg}
		if t.errMsg == "" {
			st := shapes[t.adm.Key]
			if st == nil {
				st = &shapeState{}
				shapes[t.adm.Key] = st
			}
			res = p.solveOne(st, t)
		}
		e := p.encode(res)
		if !send(p.ctx, out, e) {
			p.scratch.Put(e.s)
			return
		}
	}
}

// solveOne solves one record on its shape's state: bind the shape's
// problem (cache hit or build), warm-start from the shape's previous
// solution when one exists, solve, capture the new solution.
func (p *pipeline) solveOne(st *shapeState, t *task) (res Result) {
	res = Result{Seq: t.seq, ID: t.req.ID, Workload: t.adm.Workload, Shape: t.adm.Key}
	defer func() {
		// Crash guard: a panic while solving one record (a bug in an
		// operator or a backend) must not take the stream down. Solve
		// failures, a lost shard worker included, arrive as errors.
		if r := recover(); r != nil {
			// A panic mid-solve leaves the graph in an unknown state: the
			// chain's snapshot can no longer be trusted, so the next record
			// of this shape starts cold and the poisoned chain is never
			// persisted.
			st.warm = admm.WarmState{}
			st.dirty = false
			res = Result{Seq: t.seq, ID: t.req.ID, Workload: t.adm.Workload, Shape: t.adm.Key,
				Error: fmt.Sprintf("solve panic: %v", r)}
		}
	}()

	if st.prob == nil && p.opts.Cache != nil {
		if prob, hit := p.opts.Cache.Get(t.adm.Key); hit {
			st.prob = prob
			p.cacheHits.Add(1)
		}
	}
	if st.prob == nil {
		prob, err := t.adm.Build()
		if err != nil {
			res.Error = err.Error()
			return res
		}
		st.prob = prob
	}

	spec := p.opts.Executor
	if t.req.Executor != nil {
		spec = *t.req.Executor
	}
	if len(spec.Addrs) > 0 {
		spec.Problem = &admm.ProblemRef{Workload: t.adm.Workload, Spec: append([]byte(nil), t.req.Spec...)}
	}
	sopts := admm.SolveOptions{
		Executor: spec,
		MaxIter:  p.opts.MaxIter,
		AbsTol:   p.opts.AbsTol,
		RelTol:   p.opts.RelTol,
		OnIteration: func(int, float64, float64) bool {
			return p.ctx.Err() == nil
		},
	}
	if t.req.MaxIter > 0 {
		sopts.MaxIter = t.req.MaxIter
	}
	if t.req.AbsTol > 0 {
		sopts.AbsTol = t.req.AbsTol
	}
	if t.req.RelTol > 0 {
		sopts.RelTol = t.req.RelTol
	}

	g := st.prob.FactorGraph()

	// First record of a shape: try to seed the chain from the solution
	// store. Apply's shape guard vets the snapshot against the built
	// graph, so a stale or corrupt entry (wrong shape for its key) is
	// rejected and the record solves cold — the store can cost
	// iterations, never correctness.
	if p.opts.Store != nil && !st.storeChecked {
		st.storeChecked = true
		if !st.warm.Captured() {
			if snap, ok := p.opts.Store.Get(t.adm.Key); ok && snap.Warm.Apply(g) == nil {
				st.warm = snap.Warm
				p.storeHits.Add(1)
			} else {
				p.storeMisses.Add(1)
			}
		}
	}

	warm := st.warm.Captured()
	if warm {
		sopts.Warm = &st.warm
	} else {
		st.prob.Reset()
	}

	out, err := shard.Solve(p.ctx, g, sopts)
	if err != nil {
		// The graph's state is suspect after a failed solve; drop the
		// warm snapshot so the next record of this shape starts cold,
		// and never persist the poisoned chain.
		st.warm = admm.WarmState{}
		st.dirty = false
		res.Error = err.Error()
		return res
	}
	r := out.Result
	// A diverged solve (NaN/Inf iterate) still reports its result, but
	// Capture refuses it: the chain is dropped (next record of the shape
	// starts cold) and nothing of it reaches the store.
	st.dirty = st.warm.Capture(g)
	st.iterations = r.Iterations

	res.Warm = warm
	res.Iterations = r.Iterations
	res.Converged = r.Converged
	res.Metrics = st.prob.Metrics()
	p.solved.Add(1)
	if warm {
		p.warmStarts.Add(1)
	}
	p.iterations.Add(uint64(r.Iterations))
	return res
}

// encode renders one result record into a pooled scratch buffer.
func (p *pipeline) encode(res Result) encoded {
	s := p.scratch.Get().(*encodeScratch)
	s.buf.Reset()
	if err := s.enc.Encode(res); err != nil {
		// Results are plain structs over finite floats; this is
		// unreachable short of memory corruption, but keep the record
		// rather than dropping a seq.
		s.buf.Reset()
		fmt.Fprintf(&s.buf, `{"seq":%d,"error":"encode: %s"}`+"\n", res.Seq, err)
	}
	return encoded{seq: res.Seq, isErr: res.Error != "", s: s}
}

// write restores input order and streams records out, returning each
// written record's token. On a write error (client gone) it keeps
// draining so upstream stages unwind, but writes nothing further.
func (p *pipeline) write(w io.Writer, in <-chan encoded, tokens <-chan struct{}) error {
	pending := map[int]encoded{}
	next := 0
	var writeErr error
	for e := range in {
		pending[e.seq] = e
		for {
			cur, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			if writeErr == nil {
				if _, err := w.Write(cur.s.buf.Bytes()); err != nil {
					writeErr = err
				} else {
					p.results.Add(1)
					if cur.isErr {
						p.errs.Add(1)
					}
				}
			}
			p.scratch.Put(cur.s)
			<-tokens
			next++
		}
	}
	// On cancellation seq gaps can strand later records; release them.
	for _, e := range pending {
		p.scratch.Put(e.s)
	}
	return writeErr
}
