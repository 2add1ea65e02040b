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
	"repro/internal/linalg"
	"repro/internal/store"
	"repro/internal/workload"
)

// Options configures one bulk pipeline run. The zero value is usable:
// GOMAXPROCS solve workers, serial executor, workload.DefaultMaxIter.
type Options struct {
	// Workers is the solve-stage worker count (default GOMAXPROCS).
	// Any free worker takes the next shape that has records waiting,
	// but a shape is held by one worker at a time, so same-shape records
	// always solve sequentially in input order — that is what makes
	// warm-start chains deterministic.
	Workers int
	// Executor is the stream-level executor spec; a record's own
	// executor field replaces it wholesale for that record.
	Executor admm.ExecutorSpec
	// MaxIter is the default iteration budget for records that do not
	// set max_iter (0 leaves workload.Solve's DefaultMaxIter). MaxIterLimit caps
	// per-record overrides (default workload.MaxIterLimit).
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
	// the run ends. Chains that ended on a failed, panicked or diverged
	// solve are never persisted.
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
	if o.MaxIterLimit <= 0 {
		o.MaxIterLimit = workload.MaxIterLimit
	}
	if o.MaxLineBytes <= 0 {
		o.MaxLineBytes = 1 << 20
	}
	return o
}

// window bounds the records in flight — read but not yet written —
// and with them the dispatcher's pending runs and the writer's reorder
// buffer, whatever the input. It also bounds the admission memo.
const window = 1024

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

// task is an admitted record on its way to a solve worker. When
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

// encodeScratch is one pooled record buffer, with encoding/json's
// encoder over it for the records the direct append refuses and the
// metric names' sort scratch.
type encodeScratch struct {
	buf  bytes.Buffer
	enc  *json.Encoder
	keys []string
}

// shapeState is the per-shape solve state a lane carries across the
// stream: the built problem (checked out of the graph cache, if any),
// whose graph holds the warm-start chain between records. The
// dispatcher hands a lane to one worker at a time, so one worker
// touches it at once.
type shapeState struct {
	prob workload.Problem
	// live marks that prob's graph holds the finite state of the chain's
	// last successful solve: the next record starts from it, and the
	// store gets it at hand-back. iterations is that solve's count.
	live       bool
	iterations int
}

// parsed is one memoized workload.Parse outcome, refusal included.
type parsed struct {
	adm workload.Admission
	err error
}

// parseKey is what an admission is a pure function of: the raw workload
// name and the raw spec bytes.
type parseKey struct{ workload, spec string }

type pipeline struct {
	ctx  context.Context
	opts Options

	scratch sync.Pool
	// memo is the reader's alone: at most window parses of this stream.
	memo map[parseKey]parsed

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

// newPipeline makes the state of one Run.
func newPipeline(ctx context.Context, opts Options) *pipeline {
	p := &pipeline{ctx: ctx, opts: opts.withDefaults(), memo: map[parseKey]parsed{}}
	p.scratch.New = func() any {
		s := &encodeScratch{}
		s.enc = json.NewEncoder(&s.buf)
		return s
	}
	return p
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
	p := newPipeline(ctx, opts)

	// The reader takes a token for each record it dispatches and the
	// writer returns it once the record is written.
	tokens := make(chan struct{}, window)
	d := &dispatcher{lanes: map[string]*lane{}}
	d.wake.L = &d.mu
	// out's buffer lets a worker hand off a finished record and start
	// the next one while the writer is inside a Write.
	out := make(chan encoded, 16)

	var wg sync.WaitGroup
	for range p.opts.Workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.solve(d, out)
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
		err := p.read(r, d, tokens)
		d.close()
		readErrCh <- err
	}()

	// write returns once out is closed, that is once every solve worker
	// has exited, so no graph is still being solved when it is
	// published to a shared cache below. The reader join terminates
	// too: once the context is done its token send falls through to
	// ctx.Done, and it deposits its error as soon as the in-flight
	// r.Read returns. After it, nothing touches the lanes.
	writeErr := p.write(w, out, tokens)
	readErr := <-readErrCh

	// Persist each chain's final state, then return built graphs to the
	// cache for the next stream (or the serving layer's other handlers).
	// Only live chains are written: a chain whose last solve failed,
	// panicked or diverged was dropped and must not poison the store.
	for key, l := range d.lanes {
		st := &l.st
		snap := store.Snapshot{Iterations: st.iterations}
		if p.opts.Store != nil && st.live && snap.Warm.Capture(st.prob.FactorGraph()) && p.opts.Store.Put(key, snap) == nil {
			p.storeSaves.Add(1)
		}
		if st.prob != nil && p.opts.Cache != nil {
			p.opts.Cache.Put(key, st.prob)
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
		Shapes:     len(d.lanes),

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
// line and hands it, in input order, to the dispatcher. Over-long lines
// are consumed, not buffered. Each record takes a token first, so the
// reader stalls while the window is full.
func (p *pipeline) read(r io.Reader, d *dispatcher, tokens chan<- struct{}) error {
	br := bufio.NewReaderSize(r, 64<<10)
	seq := 0
	var buf []byte
	for {
		if p.ctx.Err() != nil {
			return nil
		}
		line, tooLong, err := readLine(br, buf, p.opts.MaxLineBytes)
		buf = line
		if tooLong || len(bytes.TrimSpace(line)) > 0 {
			p.lines.Add(1)
			t := p.admit(seq, line, tooLong)
			if !send(p.ctx, tokens, struct{}{}) {
				return nil
			}
			d.push(t)
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

// readLine reads up to and including the next newline into buf's
// storage, accumulating a payload of at most max bytes — the line
// terminator is not counted against the cap, so a payload of exactly
// max bytes is accepted. Past the cap it keeps consuming (so the stream
// stays framed) but stops buffering and reports tooLong. The reader
// passes each line's storage back in: admission copies out whatever it
// keeps.
func readLine(br *bufio.Reader, buf []byte, max int) (line []byte, tooLong bool, err error) {
	line = buf[:0]
	for {
		frag, e := br.ReadSlice('\n')
		if !tooLong {
			n := len(line) + len(frag)
			if len(frag) > 0 && frag[len(frag)-1] == '\n' {
				n--
			}
			if n > max {
				tooLong = true
				line = line[:0]
			} else {
				line = append(line, frag...)
			}
		}
		if e == bufio.ErrBufferFull {
			continue
		}
		return line, tooLong, e
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
	t.adm, err = p.parse(req.Workload, req.Spec)
	if err == nil {
		err = req.validate(p.opts.MaxIterLimit)
	}
	if err != nil {
		t.errMsg = err.Error()
	}
	return t
}

// parse is workload.Parse memoized on the raw workload name and spec
// bytes, refusals included: an admission is a pure function of the
// two, and a stream worth grouping by shape repeats its specs. The memo
// holds at most window entries; a spec past the bound parses fresh.
func (p *pipeline) parse(name string, spec json.RawMessage) (workload.Admission, error) {
	if m, ok := p.memo[parseKey{name, string(spec)}]; ok {
		return m.adm, m.err
	}
	adm, err := workload.Parse(name, spec)
	if len(p.memo) < window {
		p.memo[parseKey{name, string(spec)}] = parsed{adm, err}
	}
	return adm, err
}

// lane is one shape's place in the dispatcher: its solve state and its
// records waiting for a worker, in input order. A refused record rides
// a lane of its own, which no later record joins.
type lane struct {
	st      shapeState
	pending []*task
	// queued marks a lane on the ready list or held by a worker.
	queued bool
}

// dispatcher hands the stream's records to the solve workers a shape
// at a time. The reader appends each record to its shape's lane; a lane
// with records and no worker waits on the ready list, first in first
// out; a free worker takes the whole pending run of the first ready
// lane. A lane is held by one worker at a time and passes between
// workers only under mu, so a shape's records solve one at a time, in
// input order, on its one shapeState whatever the worker count.
type dispatcher struct {
	mu    sync.Mutex
	wake  sync.Cond
	lanes map[string]*lane
	ready []*lane
	// closed marks that the reader is done, which on cancellation is
	// as soon as its in-flight Read returns: no record follows.
	closed bool
}

// push files a record on its shape's lane, or a refused one on a lane
// of its own, and readies the lane if no worker holds it.
func (d *dispatcher) push(t *task) {
	d.mu.Lock()
	defer d.mu.Unlock()
	var l *lane
	if t.errMsg != "" {
		l = &lane{}
	} else if l = d.lanes[t.adm.Key]; l == nil {
		l = &lane{}
		d.lanes[t.adm.Key] = l
	}
	l.pending = append(l.pending, t)
	if !l.queued {
		l.queued = true
		d.ready = append(d.ready, l)
		d.wake.Signal()
	}
}

// close wakes every idle worker to find that no record follows.
func (d *dispatcher) close() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	d.wake.Broadcast()
}

// next gives back held, the lane the caller just drained (readied again
// if records arrived meanwhile), and takes the whole pending run of the
// first ready lane, leaving run's emptied buffer in its place. It waits
// for a ready lane and returns a nil lane once ctx is done, or once the
// stream is closed and nothing is ready.
func (d *dispatcher) next(ctx context.Context, held *lane, run []*task) (*lane, []*task) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if held != nil {
		if len(held.pending) > 0 {
			d.ready = append(d.ready, held)
		} else {
			held.queued = false
		}
	}
	for len(d.ready) == 0 && !d.closed {
		d.wake.Wait()
	}
	if len(d.ready) == 0 || ctx.Err() != nil {
		return nil, nil
	}
	l := d.ready[0]
	d.ready = d.ready[1:]
	clear(run)
	l.pending, run = run[:0], l.pending
	return l, run
}

// solve runs one worker: it takes lanes from the dispatcher and solves
// (or keeps the admission error of) each record of a lane's run in
// order, encodes it, and hands it to the writer.
func (p *pipeline) solve(d *dispatcher, out chan<- encoded) {
	var l *lane
	var run []*task
	for {
		if l, run = d.next(p.ctx, l, run); l == nil {
			return
		}
		for _, t := range run {
			res := Result{Seq: t.seq, ID: t.req.ID, Workload: t.adm.Workload, Error: t.errMsg}
			if t.errMsg == "" {
				res = p.solveOne(&l.st, t)
			}
			e := p.encode(res)
			if !send(p.ctx, out, e) {
				p.scratch.Put(e.s)
				return
			}
		}
	}
}

// solveOne solves one record on its shape's state through
// workload.Solve: the shape's problem is bound on first sight (cache
// hit or build) and kept, and its graph carries the chain, so a record
// continues from the shape's previous solution when one exists — on
// first sight, from a snapshot in the solution store.
func (p *pipeline) solveOne(st *shapeState, t *task) Result {
	res := Result{Seq: t.seq, ID: t.req.ID, Workload: t.adm.Workload, Shape: t.adm.Key}
	job := workload.Job{
		Admission: t.adm,
		Spec:      t.req.Spec,
		Executor:  p.opts.Executor,
		MaxIter:   p.opts.MaxIter,
		AbsTol:    p.opts.AbsTol,
		RelTol:    p.opts.RelTol,
	}
	if t.req.Executor != nil {
		job.Executor = *t.req.Executor
	}
	if t.req.MaxIter > 0 {
		job.MaxIter = t.req.MaxIter
	}
	if t.req.AbsTol > 0 {
		job.AbsTol = t.req.AbsTol
	}
	if t.req.RelTol > 0 {
		job.RelTol = t.req.RelTol
	}

	// First sight of a shape: try to seed the chain from the solution
	// store. Solve vets the snapshot against the bound graph, so a stale
	// or corrupt entry (wrong shape for its key) is not applied and the
	// record solves cold — the store can cost iterations, never
	// correctness. A held graph whose chain was dropped starts cold.
	held := st.prob
	if held != nil && !st.live {
		held.Reset()
	} else if held == nil && p.opts.Store != nil {
		if snap, ok := p.opts.Store.Get(t.adm.Key); ok {
			job.Warm = &snap.Warm
		}
	}

	out, err := workload.Solve(p.ctx, job, held, workload.Env{Cache: p.opts.Cache})
	st.prob = out.Problem
	if out.CacheHit {
		p.cacheHits.Add(1)
	}
	// out.Warm means Solve applied a store snapshot, which only a lane's
	// first bound record asks for.
	if out.Warm {
		p.storeHits.Add(1)
	} else if p.opts.Store != nil && held == nil && st.prob != nil {
		p.storeMisses.Add(1)
	}
	if err != nil {
		// The graph's state is suspect after a failed or panicked solve:
		// drop the chain, so the next record of this shape starts cold
		// and nothing of it reaches the store.
		st.live = false
		res.Error = err.Error()
		return res
	}
	res.Warm = st.live || out.Warm
	r := out.Result
	// A diverged solve (NaN/Inf iterate) still reports its result, but
	// its chain is dropped too. The last check's sums prove the state
	// finite; a run that took no check, or whose sums overflowed, is
	// scanned.
	g := st.prob.FactorGraph()
	st.live = r.Finite || linalg.AllFinite(g.X) && linalg.AllFinite(g.U) && linalg.AllFinite(g.Z)
	if st.live && r.Flushed {
		// The flush after the last block zeroed some U entries and left
		// n = z - u stale there; rebuild N as WarmState.Apply would, so
		// the next record starts where a snapshot of this one would.
		admm.UpdateNRange(g, 0, g.NumEdges())
	}
	st.iterations = r.Iterations

	res.Iterations = r.Iterations
	res.Converged = r.Converged
	res.Metrics = out.Metrics
	p.solved.Add(1)
	if res.Warm {
		p.warmStarts.Add(1)
	}
	p.iterations.Add(uint64(r.Iterations))
	return res
}

// encode renders one result record into a pooled scratch buffer: a
// direct append of encoding/json's bytes, or encoding/json itself for a
// record the append refuses.
func (p *pipeline) encode(res Result) encoded {
	s := p.scratch.Get().(*encodeScratch)
	s.buf.Reset()
	if b, ok := s.appendResult(s.buf.AvailableBuffer(), &res); ok {
		s.buf.Write(b)
	} else if err := s.enc.Encode(res); err != nil {
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
