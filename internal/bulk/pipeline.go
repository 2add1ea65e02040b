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
	// DecodeWorkers/EncodeWorkers size the decode and encode pools
	// (default min(Workers, 4)).
	DecodeWorkers int
	EncodeWorkers int
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
	if o.DecodeWorkers <= 0 {
		o.DecodeWorkers = min(o.Workers, 4)
	}
	if o.EncodeWorkers <= 0 {
		o.EncodeWorkers = min(o.Workers, 4)
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

// rawLine is one length-capped input line with its record index.
type rawLine struct {
	seq    int
	data   []byte
	errMsg string // set for over-long lines; data is empty then
}

// task is a decoded record on its way to a solve worker (or, when
// errMsg is set, straight to the output as an error record).
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

	mu     sync.Mutex
	shapes map[string]*shapeState

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
	p := &pipeline{ctx: ctx, opts: opts.withDefaults(), shapes: map[string]*shapeState{}}
	p.scratch.New = func() any {
		s := &encodeScratch{}
		s.enc = json.NewEncoder(&s.buf)
		return s
	}

	linesCh := make(chan rawLine, 16)
	decodedCh := make(chan *task, 16)
	solveChs := make([]chan *task, p.opts.Workers)
	for i := range solveChs {
		solveChs[i] = make(chan *task, 4)
	}
	resultsCh := make(chan Result, 16)
	encodedCh := make(chan encoded, 16)

	// The reader's error travels over a buffered channel so the
	// goroutine can deposit it and exit unconditionally; Run joins it
	// with a blocking receive once the downstream stages have unwound.
	readErrCh := make(chan error, 1)
	go func() {
		readErrCh <- p.read(r, linesCh)
		close(linesCh)
	}()

	var decWG sync.WaitGroup
	for i := 0; i < p.opts.DecodeWorkers; i++ {
		decWG.Add(1)
		go func() {
			defer decWG.Done()
			p.decode(linesCh, decodedCh)
		}()
	}
	go func() {
		decWG.Wait()
		close(decodedCh)
	}()

	// resultsCh is fed by the dispatcher (error records) and every
	// solve worker; it closes when all of them are done.
	var resWG sync.WaitGroup
	resWG.Add(1 + p.opts.Workers)
	go func() {
		defer resWG.Done()
		p.dispatch(decodedCh, solveChs, resultsCh)
		for _, ch := range solveChs {
			close(ch)
		}
	}()
	for i := 0; i < p.opts.Workers; i++ {
		go func(ch <-chan *task) {
			defer resWG.Done()
			p.solve(ch, resultsCh)
		}(solveChs[i])
	}
	go func() {
		resWG.Wait()
		close(resultsCh)
	}()

	var encWG sync.WaitGroup
	for i := 0; i < p.opts.EncodeWorkers; i++ {
		encWG.Add(1)
		go func() {
			defer encWG.Done()
			p.encode(resultsCh, encodedCh)
		}()
	}
	go func() {
		encWG.Wait()
		close(encodedCh)
	}()

	writeErr := p.write(w, encodedCh)

	// write returning means the encode stage closed encodedCh, but on
	// cancellation the solve stage can still be mid-record (encode
	// workers exit on ctx.Done without draining resultsCh). Join every
	// stage before touching p.shapes: solve workers create entries via
	// p.shape and mutate shapeState, and a graph still being solved
	// must not be published into a shared cache. All of these waits
	// terminate — once the context is done every stage's receives and
	// sends fall through to ctx.Done, and the reader deposits its error
	// as soon as the in-flight r.Read returns.
	resWG.Wait()
	decWG.Wait()
	encWG.Wait()
	readErr := <-readErrCh

	// Persist each chain's final snapshot, then return built graphs to
	// the cache for the next stream (or the serving layer's other
	// handlers). Only dirty chains are written: a chain whose last solve
	// failed or panicked was reset and must not poison the store.
	for key, st := range p.shapes {
		if p.opts.Store != nil && st.dirty && st.warm.Captured() {
			if err := p.opts.Store.Put(key, store.Snapshot{Warm: st.warm, Iterations: st.iterations}); err == nil {
				p.storeSaves.Add(1)
			}
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
		Shapes:     len(p.shapes),

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

// read splits the input into length-capped lines, assigning each
// non-blank line its record index. Over-long lines are consumed (not
// buffered) and forwarded as error records.
func (p *pipeline) read(r io.Reader, out chan<- rawLine) error {
	br := bufio.NewReaderSize(r, 64<<10)
	seq := 0
	for {
		if p.ctx.Err() != nil {
			return nil
		}
		line, tooLong, err := readLine(br, p.opts.MaxLineBytes)
		switch {
		case tooLong:
			p.lines.Add(1)
			if !send(p.ctx, out, rawLine{seq: seq, errMsg: fmt.Sprintf("line exceeds %d bytes", p.opts.MaxLineBytes)}) {
				return nil
			}
			seq++
		case len(bytes.TrimSpace(line)) > 0:
			p.lines.Add(1)
			if !send(p.ctx, out, rawLine{seq: seq, data: line}) {
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

// decode turns raw lines into validated tasks: strict envelope decode,
// workload admission (spec validation + shape key), per-record control
// validation. Failures ride along as error tasks.
func (p *pipeline) decode(in <-chan rawLine, out chan<- *task) {
	for {
		var l rawLine
		var ok bool
		select {
		case l, ok = <-in:
			if !ok {
				return
			}
		case <-p.ctx.Done():
			return
		}
		t := &task{seq: l.seq, errMsg: l.errMsg}
		if t.errMsg == "" {
			req, err := DecodeLine(l.data)
			if err != nil {
				t.errMsg = err.Error()
			} else {
				t.req = req
				adm, err := workload.Parse(req.Workload, req.Spec)
				t.adm = adm
				if err != nil {
					t.errMsg = err.Error()
				} else if err := req.validate(p.opts.MaxIterLimit); err != nil {
					t.errMsg = err.Error()
				}
			}
		}
		if !send(p.ctx, out, t) {
			return
		}
	}
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

// dispatch restores input order on the decoded stream (decode workers
// race), then routes each task: error tasks straight to the results
// stage, solvable tasks to their shape's worker. In-order dispatch is
// what makes warm-start chains follow input order.
func (p *pipeline) dispatch(in <-chan *task, solveChs []chan *task, results chan<- Result) {
	pending := map[int]*task{}
	next := 0
	handle := func(t *task) bool {
		if t.errMsg != "" {
			return send(p.ctx, results, Result{Seq: t.seq, ID: t.req.ID, Workload: t.adm.Workload, Error: t.errMsg})
		}
		return send(p.ctx, solveChs[shapeWorker(t.adm.Key, len(solveChs))], t)
	}
	for {
		select {
		case t, ok := <-in:
			if !ok {
				return
			}
			pending[t.seq] = t
			for {
				t2, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				if !handle(t2) {
					return
				}
				next++
			}
		case <-p.ctx.Done():
			return
		}
	}
}

// shape returns the state entry for a key, creating it on first sight.
// The map is shared (hence the lock) but each entry is only ever
// touched by its shape's worker.
func (p *pipeline) shape(key string) *shapeState {
	p.mu.Lock()
	defer p.mu.Unlock()
	st, ok := p.shapes[key]
	if !ok {
		st = &shapeState{}
		p.shapes[key] = st
	}
	return st
}

// solve runs one worker's share of the stream: bind the shape's
// problem (cache hit or build), warm-start from the shape's previous
// solution when one exists, solve, capture the new solution.
func (p *pipeline) solve(in <-chan *task, results chan<- Result) {
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
		if !send(p.ctx, results, p.solveOne(t)) {
			return
		}
	}
}

func (p *pipeline) solveOne(t *task) (res Result) {
	res = Result{Seq: t.seq, ID: t.req.ID, Workload: t.adm.Workload, Shape: t.adm.Key}
	var st *shapeState
	defer func() {
		// Crash guard: a panic while solving one record (a bug in an
		// operator or a backend) must not take the stream down. Solve
		// failures, a lost shard worker included, arrive as errors.
		if r := recover(); r != nil {
			if st != nil {
				// A panic mid-solve leaves the graph in an unknown state:
				// the chain's snapshot can no longer be trusted, so the
				// next record of this shape starts cold and the poisoned
				// chain is never persisted.
				st.warm = admm.WarmState{}
				st.dirty = false
			}
			res = Result{Seq: t.seq, ID: t.req.ID, Workload: t.adm.Workload, Shape: t.adm.Key,
				Error: fmt.Sprintf("solve panic: %v", r)}
		}
	}()

	st = p.shape(t.adm.Key)
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
	res.Metrics = cleanMetrics(st.prob.Metrics())
	p.solved.Add(1)
	if warm {
		p.warmStarts.Add(1)
	}
	p.iterations.Add(uint64(r.Iterations))
	return res
}

// encode renders result records into pooled scratch buffers.
func (p *pipeline) encode(in <-chan Result, out chan<- encoded) {
	for {
		var res Result
		var ok bool
		select {
		case res, ok = <-in:
			if !ok {
				return
			}
		case <-p.ctx.Done():
			return
		}
		s := p.scratch.Get().(*encodeScratch)
		s.buf.Reset()
		if err := s.enc.Encode(res); err != nil {
			// Results are plain structs over finite floats; this is
			// unreachable short of memory corruption, but keep the
			// record rather than dropping a seq.
			s.buf.Reset()
			fmt.Fprintf(&s.buf, `{"seq":%d,"error":"encode: %s"}`+"\n", res.Seq, err)
		}
		if !send(p.ctx, out, encoded{seq: res.Seq, isErr: res.Error != "", s: s}) {
			p.scratch.Put(s)
			return
		}
	}
}

// write restores input order and streams records out. On a write
// error (client gone) it keeps draining so upstream stages unwind, but
// writes nothing further.
func (p *pipeline) write(w io.Writer, in <-chan encoded) error {
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
			next++
		}
	}
	// On cancellation seq gaps can strand later records; release them.
	for _, e := range pending {
		p.scratch.Put(e.s)
	}
	return writeErr
}
