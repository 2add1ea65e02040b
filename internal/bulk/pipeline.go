package bulk

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admm"
	"repro/internal/graph"
	"repro/internal/linalg"
	"repro/internal/store"
	"repro/internal/workload"
)

// Options configures one bulk pipeline run. The zero value is usable:
// GOMAXPROCS workers, serial executor, workload.DefaultMaxIter.
type Options struct {
	// Workers is the worker count (default GOMAXPROCS).
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
// concurrent use — every worker calls Get.
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
// and with them the lanes' pending runs and the commit ring, whatever
// the input. It also bounds the admission memo.
const window = 1024

// chunk is the most records one turn of the reader role reads and
// admits before it files them on their lanes and gives the role back.
const chunk = 64

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
	// Workers is the worker count the run used. IdleNanos is their
	// summed time away from the stream's own work: waiting in the
	// dispatcher for a lane, the reader role or room in the window,
	// inside the input's Read or the output's Write, and gone before Run
	// returns. A run of wall time T kept Workers - IdleNanos/T cores busy.
	Workers   int   `json:"workers"`
	IdleNanos int64 `json:"idle_nanos"`
}

// task is an admitted record on its way to a worker. When errMsg is set
// the record was refused and the worker only encodes the error.
type task struct {
	seq    int
	req    Request
	adm    workload.Admission
	errMsg string
}

// encodeScratch is one pooled record buffer, with encoding/json's
// encoder over it for the records the direct append refuses. isErr
// marks a rendered error record.
type encodeScratch struct {
	buf   bytes.Buffer
	enc   *json.Encoder
	isErr bool
}

// scratchPool holds the record buffers of every Run, so a stream starts
// on the buffers the last one left instead of growing a window's worth.
var scratchPool = sync.Pool{New: func() any {
	s := &encodeScratch{}
	s.enc = json.NewEncoder(&s.buf)
	return s
}}

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
	// metrics is the storage of the last record's metrics, which its
	// encode reads before the lane passes on.
	metrics []workload.Metric
}

// parsed is one memoized workload.Parse outcome, refusal included,
// with the raw workload name and the validated spec it was parsed
// from, which every record of that spec shares.
type parsed struct {
	adm  workload.Admission
	err  error
	name string
	spec json.RawMessage
}

type pipeline struct {
	ctx  context.Context
	opts Options
	d    dispatcher

	// failed marks a write error: the reader role and the workers stop
	// at their next record.
	failed atomic.Bool

	// start is when Run began; left sums the workers' exits since then.
	start time.Time
	left  time.Duration

	// The reader role's state, touched only by the worker holding the
	// role: the input, timed, the line buffer, the turn's batch, the
	// rest of the slab the next tasks come from, chunk at a time, the
	// admission memo (at most window parses of this stream, keyed by
	// memoKey) with its key buffer, and the read error that closed the
	// stream.
	in      timedReader
	br      *bufio.Reader
	line    []byte
	batch   []*task
	slab    []task
	memo    map[string]*parsed
	key     []byte
	readErr error

	// The committer's state, touched only by the worker writing the
	// ring's head run, with the time spent inside w.Write.
	w             io.Writer
	writeErr      error
	results, errs uint64
	writeWait     time.Duration

	solved      atomic.Uint64
	warmStarts  atomic.Uint64
	iterations  atomic.Uint64
	cacheHits   atomic.Uint64
	storeHits   atomic.Uint64
	storeMisses atomic.Uint64
}

// newPipeline makes the state of one Run.
func newPipeline(ctx context.Context, opts Options) *pipeline {
	p := &pipeline{ctx: ctx, opts: opts.withDefaults(), memo: map[string]*parsed{}}
	p.d.lanes = map[string]*lane{}
	p.d.wake.L = &p.d.mu
	return p
}

// Run streams JSONL requests from r through the pipeline and writes
// JSONL results to w in input order. Per-record failures become error
// records on the stream; Run itself only fails on input read errors,
// output write errors, or context cancellation. A write error or a
// cancellation stops the stream at each worker's next record, and every
// worker exits before Run returns — including one holding the reader
// role, so a canceled Run blocks until the in-flight r.Read returns.
// Callers whose cancellation does not also unblock r (net/http request
// bodies unblock on the connection teardown that cancels the request
// context; files and pipes with data never block) must arrange that
// themselves.
func Run(ctx context.Context, r io.Reader, w io.Writer, opts Options) (Stats, error) {
	p := newPipeline(ctx, opts)
	p.start = time.Now()
	p.in.r = r
	p.br = bufio.NewReaderSize(&p.in, 64<<10)
	p.w = w

	// Run's own goroutine is one of the workers.
	var wg sync.WaitGroup
	for range p.opts.Workers - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.work()
		}()
	}
	p.work()
	wg.Wait()
	joined := time.Now()

	// Every worker has exited, so no graph is still being solved when it
	// is published to a shared cache below, and nothing touches the
	// lanes. Persist each chain's final state, then return built graphs
	// to the cache for the next stream (or the serving layer's other
	// handlers). Only live chains are written: a chain whose last solve
	// failed, panicked or diverged was dropped and must not poison the
	// store.
	var saves uint64
	for key, l := range p.d.lanes {
		st := &l.st
		snap := store.Snapshot{Iterations: st.iterations}
		if p.opts.Store != nil && st.live && snap.Warm.Capture(st.prob.FactorGraph()) && p.opts.Store.Put(key, snap) == nil {
			saves++
		}
		if st.prob != nil && p.opts.Cache != nil {
			p.opts.Cache.Put(key, st.prob)
		}
	}
	// Each worker was idle from its exit to Run's return, but Run's own
	// goroutine did the hand-back above.
	end := time.Now()
	idle := p.d.idle + p.in.wait + p.writeWait +
		time.Duration(p.opts.Workers)*end.Sub(p.start) - p.left - end.Sub(joined)

	stats := Stats{
		Lines:      uint64(p.d.seq),
		Results:    p.results,
		Errors:     p.errs,
		Solved:     p.solved.Load(),
		WarmStarts: p.warmStarts.Load(),
		Iterations: p.iterations.Load(),
		CacheHits:  p.cacheHits.Load(),
		Shapes:     len(p.d.lanes),

		StoreHits:   p.storeHits.Load(),
		StoreMisses: p.storeMisses.Load(),
		StoreSaves:  saves,
		Workers:     p.opts.Workers,
		IdleNanos:   int64(idle),
	}
	switch {
	case p.writeErr != nil:
		return stats, fmt.Errorf("bulk: write output: %w", p.writeErr)
	case p.readErr != nil:
		return stats, fmt.Errorf("bulk: read input: %w", p.readErr)
	default:
		return stats, ctx.Err()
	}
}

// stopped reports a canceled or failed stream.
func (p *pipeline) stopped() bool {
	return p.failed.Load() || p.ctx.Err() != nil
}

// work runs one worker. It takes turns from the dispatcher — a lane's
// pending run, whose records it solves (or keeps the admission error
// of), encodes and commits in order, or the reader role — until the
// stream ends or stops. A leaving worker wakes the others to look again.
func (p *pipeline) work() {
	defer p.leave()
	var l *lane
	var run []*task
	for {
		var room int
		if l, run, room = p.d.next(p, l, run); room > 0 {
			p.read(room)
			continue
		}
		if l == nil {
			return
		}
		for _, t := range run {
			if p.stopped() {
				return
			}
			res := Result{Seq: t.seq, ID: t.req.ID, Workload: t.adm.Workload, Error: t.errMsg}
			if t.errMsg == "" {
				res = p.solveOne(&l.st, t)
			}
			p.commit(t.seq, encode(&res))
		}
	}
}

// read is one turn of the reader role: it reads and admits up to room
// records, at most a chunk, files them on their lanes and gives the role
// back. The turn ends early before a line that is not buffered whole, so
// no admitted record waits on a Read that may block; and it closes the
// stream at the input's end, at a read error, or once the stream has
// stopped. Over-long lines are consumed, not buffered.
func (p *pipeline) read(room int) {
	batch := p.batch[:0]
	end := false
	for len(batch) < min(room, chunk) {
		if p.stopped() {
			end = true
			break
		}
		if len(batch) > 0 && !p.lineBuffered() {
			break
		}
		line, tooLong, err := readLine(p.br, p.line, p.opts.MaxLineBytes)
		p.line = line
		if tooLong || len(bytes.TrimSpace(line)) > 0 {
			// The role holder is the only writer of d.seq.
			if len(p.slab) == 0 {
				p.slab = make([]task, chunk)
			}
			t := &p.slab[0]
			p.slab = p.slab[1:]
			t.seq = p.d.seq + len(batch)
			p.admit(t, line, tooLong)
			batch = append(batch, t)
		}
		if err != nil {
			if err != io.EOF {
				p.readErr = err
			}
			end = true
			break
		}
	}
	// The role passes on inside file, so the buffer is kept first.
	p.batch = batch[:0]
	p.d.file(batch, end)
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

// admit turns one input line into t: strict envelope decode, workload
// admission (spec validation + shape key), per-record control
// validation. A failure rides along as the task's error.
//
// A canonical line is scanned in place, and its workload and spec
// bytes look the admission memo up with no copy. Only a miss validates
// and copies the spec; a hit hands out the memo's name and spec, so a
// record of a known spec allocates only its id.
func (p *pipeline) admit(t *task, line []byte, tooLong bool) {
	if tooLong {
		t.errMsg = fmt.Sprintf("line exceeds %d bytes", p.opts.MaxLineBytes)
		return
	}
	var m *parsed
	e, ok := scanLine(line)
	if ok {
		if m = p.memo[string(p.memoKey(e.workload, e.spec))]; m == nil && e.validSpec() {
			m = p.parse(string(e.workload), bytes.Clone(e.spec))
		}
	}
	if m != nil {
		t.req = Request{ID: string(e.id), MaxIter: e.maxIter, AbsTol: e.absTol, RelTol: e.relTol}
	} else {
		req, err := decodeJSON(line)
		if err != nil {
			t.errMsg = err.Error()
			return
		}
		t.req = req
		if m = p.memo[string(p.memoKey([]byte(req.Workload), req.Spec))]; m == nil {
			m = p.parse(req.Workload, req.Spec)
		}
	}
	t.req.Workload, t.req.Spec, t.adm = m.name, m.spec, m.adm
	err := m.err
	if err == nil {
		err = t.req.validate(p.opts.MaxIterLimit)
	}
	if err != nil {
		t.errMsg = err.Error()
	}
}

// memoKey writes the admission memo's key for a raw workload name and
// spec into the key buffer and returns it: the name's length, the name
// and the spec.
func (p *pipeline) memoKey(name, spec []byte) []byte {
	p.key = append(append(binary.AppendUvarint(p.key[:0], uint64(len(name))), name...), spec...)
	return p.key
}

// parse is workload.Parse memoized under the key buffer's key, refusals
// included: an admission is a pure function of the raw workload name
// and spec bytes, and a stream worth grouping by shape repeats its
// specs. The memo holds at most window entries; a spec past the bound
// parses fresh.
func (p *pipeline) parse(name string, spec json.RawMessage) *parsed {
	adm, err := workload.Parse(name, spec)
	m := &parsed{adm: adm, err: err, name: name, spec: spec}
	if len(p.memo) < window {
		p.memo[string(p.key)] = m
	}
	return m
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

// dispatcher holds all that the workers share, under one mutex: the
// lanes, the reader role and the commit ring. A reader turn files each
// record on its shape's lane; a lane with records and no worker waits
// on the ready list, first in first out; a free worker takes the whole
// pending run of the first ready lane. A lane is held by one worker at
// a time and passes between workers only under mu, so a shape's
// records solve one at a time, in input order, on its one shapeState
// whatever the worker count.
type dispatcher struct {
	mu    sync.Mutex
	wake  sync.Cond
	lanes map[string]*lane
	ready []*lane
	// reading marks that a worker holds the reader role; closed that the
	// role met the input's end, a read error or a stopped stream, so no
	// record follows.
	reading, closed bool
	// seq counts the records admitted and written those the writer has
	// passed; the reader role admits record seq only while
	// seq - written < window.
	seq, written int
	// ring holds each encoded record awaiting its turn in slot
	// seq % window; writing marks that a worker is writing the head run.
	ring    [window]*encodeScratch
	writing bool
	// waiting counts the workers waiting on wake, or woken and not yet
	// back under mu; idle sums their waits.
	waiting int
	idle    time.Duration
}

// next gives back held, the lane the caller just drained (readied again
// if records arrived meanwhile), and finds the caller its next turn.
// The reader role, with room for that many records, comes first while
// it is free and the window has room, so reading never waits behind a
// solve and the lanes' runs grow long — but only when a whole line is
// buffered, or when the waiting workers are enough to take every ready
// lane. A Read may block, and no ready lane waits on a worker sitting in
// one. Else comes the whole pending run of the first ready lane, leaving
// run's emptied buffer in its place; else the caller waits. It returns
// neither once the stream has stopped, or once it is closed and nothing
// is ready.
//
// Every worker waiting while the reader role is free, the window has
// room and the stream is open cannot happen: a worker that finds no
// ready lane takes the role. So a waiter is always woken: by the end of
// a reader turn, by the committer freeing a full window or failing a
// write, or by a worker leaving.
func (d *dispatcher) next(p *pipeline, held *lane, run []*task) (*lane, []*task, int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if held != nil {
		if len(held.pending) > 0 {
			d.ready = append(d.ready, held)
		} else {
			held.queued = false
		}
	}
	for !p.stopped() {
		switch {
		case !d.reading && !d.closed && d.seq-d.written < window &&
			(len(d.ready) <= d.waiting || p.lineBuffered()):
			d.reading = true
			return nil, run, window - (d.seq - d.written)
		case len(d.ready) > 0:
			l := d.ready[0]
			d.ready = d.ready[1:]
			clear(run)
			l.pending, run = run[:0], l.pending
			return l, run, 0
		case d.closed:
			return nil, run, 0
		}
		t := time.Now()
		d.waiting++
		d.wake.Wait()
		d.waiting--
		d.idle += time.Since(t)
	}
	return nil, run, 0
}

// lineBuffered reports a whole line in the reader's buffer, which the
// next line read takes without a Read. Only the reader role's holder,
// or a worker under mu while the role is free, may ask.
func (p *pipeline) lineBuffered() bool {
	b, _ := p.br.Peek(p.br.Buffered())
	return bytes.IndexByte(b, '\n') >= 0
}

// file ends a reader turn: it puts each record on its shape's lane, a
// refused one on a lane of its own, readies each lane no worker holds,
// clears the batch for the role's next turn, and gives the role back,
// closing the stream at its end.
func (d *dispatcher) file(batch []*task, end bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, t := range batch {
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
		}
	}
	clear(batch)
	d.seq += len(batch)
	d.reading = false
	d.closed = end
	d.wake.Broadcast()
}

// leave notes a worker's exit and wakes every waiting worker to look
// again.
func (p *pipeline) leave() {
	d := &p.d
	d.mu.Lock()
	p.left += time.Since(p.start)
	d.wake.Broadcast()
	d.mu.Unlock()
}

// timedReader sums the time spent inside the input's Read, where the
// reader role's holder may sit blocked.
type timedReader struct {
	r    io.Reader
	wait time.Duration
}

func (t *timedReader) Read(b []byte) (int, error) {
	start := time.Now()
	n, err := t.r.Read(b)
	t.wait += time.Since(start)
	return n, err
}

// commit puts a record's encoding in its ring slot. The worker that
// fills the head slot writes that record and every consecutive one
// after it, each Write outside the lock.
func (p *pipeline) commit(seq int, s *encodeScratch) {
	d := &p.d
	d.mu.Lock()
	d.ring[seq%window] = s
	if d.writing || seq != d.written {
		d.mu.Unlock()
		return
	}
	d.writing = true
	for head := s; head != nil; head = d.ring[d.written%window] {
		d.ring[d.written%window] = nil
		d.mu.Unlock()
		p.write(head)
		d.mu.Lock()
		// A full window's first free slot, or a failed write, is news for
		// the waiting workers.
		if d.seq-d.written == window || p.writeErr != nil {
			d.wake.Broadcast()
		}
		d.written++
	}
	d.writing = false
	d.mu.Unlock()
}

// write writes one record unless an earlier write failed, and returns
// its buffer to the pool. The first write error stops the stream.
func (p *pipeline) write(s *encodeScratch) {
	if p.writeErr == nil {
		start := time.Now()
		_, err := p.w.Write(s.buf.Bytes())
		p.writeWait += time.Since(start)
		if err != nil {
			p.writeErr = err
			p.failed.Store(true)
		} else {
			p.results++
			if s.isErr {
				p.errs++
			}
		}
	}
	scratchPool.Put(s)
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
		Metrics:   st.metrics,
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
	st.metrics = out.Metrics
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
func encode(res *Result) *encodeScratch {
	s := scratchPool.Get().(*encodeScratch)
	s.buf.Reset()
	if b, ok := appendResult(s.buf.AvailableBuffer(), res); ok {
		s.buf.Write(b)
	} else if err := s.enc.Encode(*res); err != nil {
		// Results are plain structs over finite floats; this is
		// unreachable short of memory corruption, but keep the record
		// rather than dropping a seq.
		s.buf.Reset()
		fmt.Fprintf(&s.buf, `{"seq":%d,"error":"encode: %s"}`+"\n", res.Seq, err)
	}
	s.isErr = res.Error != ""
	return s
}
