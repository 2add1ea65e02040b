package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/admm"
	"repro/internal/serve"
	"repro/internal/workload"
)

// solveControls are the stopping controls every serve-mixed request
// carries, as the JSON fields of the request and as numbers for the
// set-up's reference solves.
const (
	solveControls = `"max_iter":2000,"abs_tol":1e-4,"rel_tol":1e-4`
	serveMaxIter  = 2000
	serveTol      = 1e-4
)

// serveClients is the closed loop's client count: callers of a solve
// service wait for their reply, and 2 clients keep the reference box's
// 2 cores busy without a queue forming behind the 2 workers.
const serveClients = 2

// shape is one problem a request can ask for.
type shape struct {
	domain, spec, executor string // executor is "" (serial) or flat JSON
}

func (s shape) body() []byte {
	exec := ""
	if s.executor != "" {
		exec = `"executor":` + s.executor + `,`
	}
	return []byte(fmt.Sprintf(`{"workload":%q,"spec":%s,%s%s}`, s.domain, s.spec, exec, solveControls))
}

// schedule is one client's seeded request stream of serve-mixed. Over
// both clients: 70 % repeats of eight small shapes from all four domains
// (served from the graph cache), 20 % small shapes with a seed not seen
// before (a cache miss, so the problem is built), 10 % two medium shapes
// under the auto executor. Everything the server receives comes from here.
//
// Each client repeats its own half of the known shapes, so no two
// requests in flight ask for the same instance. The server returns a
// problem to its graph cache before it reads the problem's quality
// metrics, and a concurrent request for the same shape resets the graph
// under that read: about 1 answer in 1500 comes back wrong when two
// clients hammer one shape (see README, Findings). A benchmark needs
// workloads on which no op fails; the answer check stays on every op.
//
// The seed decides the order of requests and the fresh instances. The
// repeated and medium instances are the same in every run: how many
// iterations an instance needs to converge varies several-fold with its
// data, and the median request is one of these, so drawing them from the
// seed would make runs with different seeds different workloads. They
// are chosen so that a third of all requests (svm n=24, the two mpc k=8,
// fresh mpc) take 2 to 3 ms and the median request lies well inside
// that group: a median on the edge between two groups of shapes would
// jump from one to the other with the draw. Fresh shapes are the three
// that converge under solveControls for every seed; their only answer
// check is that they did.
type schedule struct {
	rng     *rand.Rand
	repeats []shape
	mediums []shape
	block   []int // what is left of the current block: known indexes, -1 for fresh
}

// A block is 40 requests in shuffled order: 7 of each of the client's 4
// repeated shapes, 8 fresh, 4 medium. Drawing each request's kind
// independently would let the count of medium solves, which are a tenth
// of the requests but half the solve time, swing the throughput by
// several per cent from run to run.
const (
	blockPerRepeat = 7
	blockFresh     = 8
	blockMedium    = 4
)

func newSchedule(seed int64, client int, smoke bool) *schedule {
	// Sized so a medium solve takes about ten small ones: 2000
	// iterations, tens of milliseconds, a tenth of the requests.
	k, n := 100, 200
	if smoke {
		k, n = 20, 40
	}
	const auto = `{"kind":"auto"}`
	all := schedule{
		repeats: []shape{
			{domain: "lasso", spec: `{"m":32,"lambda":0.3,"seed":11}`},
			{domain: "lasso", spec: `{"m":48,"lambda":0.3,"seed":12}`},
			{domain: "svm", spec: `{"n":24,"dim":2,"seed":13}`},
			{domain: "svm", spec: `{"n":40,"dim":2,"seed":14}`},
			{domain: "mpc", spec: `{"k":8,"q0":[0,0,0.08,0]}`},
			{domain: "mpc", spec: `{"k":8,"q0":[0,0,0.12,0]}`},
			{domain: "mpc", spec: `{"k":16,"q0":[0,0,0.12,0]}`},
			{domain: "packing", spec: `{"n":4,"seed":15}`},
		},
		mediums: []shape{
			{domain: "mpc", spec: fmt.Sprintf(`{"k":%d,"q0":[0,0,0.1,0]}`, k), executor: auto},
			{domain: "svm", spec: fmt.Sprintf(`{"n":%d,"dim":2,"seed":17}`, n), executor: auto},
		},
	}
	s := &schedule{rng: rand.New(rand.NewSource(seed*serveClients + int64(client)))}
	for i, sh := range all.repeats {
		if i%serveClients == client {
			s.repeats = append(s.repeats, sh)
		}
	}
	s.mediums = all.mediums[client : client+1]
	return s
}

// known lists the shapes whose answers set-up can compute beforehand.
func (s *schedule) known() []shape { return append(append([]shape(nil), s.repeats...), s.mediums...) }

// next draws the next request. known is the index into known() of a
// shape with a reference answer, or -1 for a fresh one.
func (s *schedule) next() (body []byte, known int) {
	if len(s.block) == 0 {
		for i := range s.repeats {
			for n := 0; n < blockPerRepeat; n++ {
				s.block = append(s.block, i)
			}
		}
		for n := 0; n < blockFresh; n++ {
			s.block = append(s.block, -1)
		}
		for n := 0; n < blockMedium; n++ {
			s.block = append(s.block, len(s.repeats)+n%len(s.mediums))
		}
		s.rng.Shuffle(len(s.block), func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
	}
	known, s.block = s.block[0], s.block[1:]
	if known >= 0 {
		return s.known()[known].body(), known
	}
	fresh := 1 + s.rng.Int63n(1<<31)
	switch s.rng.Intn(3) {
	case 0:
		return shape{domain: "lasso", spec: fmt.Sprintf(`{"m":32,"lambda":0.3,"seed":%d}`, fresh)}.body(), -1
	case 1:
		return shape{domain: "packing", spec: fmt.Sprintf(`{"n":4,"seed":%d}`, fresh)}.body(), -1
	default:
		return shape{domain: "mpc", spec: fmt.Sprintf(`{"k":8,"q0":[0,0,%v,0]}`, 0.05+0.1*s.rng.Float64())}.body(), -1
	}
}

// reply is the part of the POST /v1/solve response the benchmark reads.
type reply struct {
	Status   string `json:"status"`
	CacheHit bool   `json:"cache_hit"`
	Result   *struct {
		Iterations int                `json:"iterations"`
		Converged  bool               `json:"converged"`
		ElapsedNS  int64              `json:"elapsed_ns"`
		BuildNS    int64              `json:"build_ns"`
		Metrics    map[string]float64 `json:"metrics"`
	} `json:"result"`
}

// reference is a known shape's answer from an in-process solve.
type reference struct {
	iterations int
	converged  bool
	metrics    map[string]float64
}

func referenceOf(s shape) (reference, workload.Problem, error) {
	prob, err := buildProblem(s.domain, s.spec)
	if err != nil {
		return reference{}, nil, err
	}
	exec := s.executor
	if exec == "" {
		exec = `{}`
	}
	spec, err := decodeExecutor(exec)
	if err != nil {
		return reference{}, nil, err
	}
	prob.Reset()
	res, err := admm.Solve(prob.FactorGraph(), admm.SolveOptions{Executor: spec, MaxIter: serveMaxIter, AbsTol: serveTol, RelTol: serveTol})
	if err != nil {
		return reference{}, nil, err
	}
	ref := reference{iterations: res.Iterations, converged: res.Converged, metrics: map[string]float64{}}
	for k, v := range prob.Metrics() {
		// The response drops non-finite metrics: JSON cannot carry them.
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			ref.metrics[k] = v
		}
	}
	return ref, prob, nil
}

func (r reference) matches(got *reply) bool {
	if got.Result.Iterations != r.iterations || got.Result.Converged != r.converged || len(got.Result.Metrics) != len(r.metrics) {
		return false
	}
	for k, v := range r.metrics {
		if g, ok := got.Result.Metrics[k]; !ok || math.Float64bits(g) != math.Float64bits(v) {
			return false
		}
	}
	return true
}

// serveState is a running server with its request stream and answers.
type serveState struct {
	srv     *serve.Server
	http    *http.Server
	url     string
	served  chan struct{} // closed when the HTTP server's accept loop has returned
	clients []*client
	probe   workload.Problem // the medium mpc problem, for the layer probes
}

func newServeState(b *bench) (*serveState, error) {
	s := &serveState{}
	for i := 0; i < serveClients; i++ {
		c := &client{
			http:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
			sched: newSchedule(b.o.seed, i, b.o.smoke),
		}
		for _, sh := range c.sched.known() {
			ref, prob, err := referenceOf(sh)
			if err != nil {
				return nil, fmt.Errorf("reference %s %s: %w", sh.domain, sh.spec, err)
			}
			c.refs = append(c.refs, ref)
			if s.probe == nil && sh.executor != "" {
				s.probe = prob
			}
		}
		s.clients = append(s.clients, c)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.srv = serve.New(serve.Config{Workers: serveClients})
	s.http = serve.NewHTTPServer(ln.Addr().String(), s.srv.Handler(), 0, 0)
	s.url = "http://" + ln.Addr().String()
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		s.http.Serve(ln) // returns once close shuts the server down
	}()
	return s, nil
}

func (s *serveState) close() {
	if s == nil {
		return
	}
	for _, c := range s.clients {
		c.http.CloseIdleConnections()
	}
	s.http.Shutdown(context.Background())
	<-s.served
	s.srv.Close()
}

// sample is one request as its client saw it.
type sample struct {
	rtMS     float64 // request write to last response byte, at reference speed
	serverMS float64 // build + solve time the response reports
	code     int
	hit      bool
	traced   bool
	iters    int
	bytes    int
	ok       bool
}

// client is one closed-loop caller: a keep-alive connection, its own
// request stream and the answers to the shapes it repeats.
type client struct {
	http  *http.Client
	buf   bytes.Buffer
	sched *schedule
	refs  []reference
}

func (c *client) post(url string, body []byte) (int, error) {
	resp, err := c.http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	_, err = io.Copy(&c.buf, resp.Body)
	return resp.StatusCode, err
}

// solve sends one request and checks its answer.
func (c *client) solve(s *serveState, body []byte, known int, op *at) (sample, error) {
	sp := op.child("serve", "http_roundtrip")
	t0 := time.Now()
	code, err := c.post(s.url+"/v1/solve", body)
	rt := time.Since(t0)
	sp.end()
	if err != nil {
		return sample{}, err
	}
	out := sample{rtMS: ms(rt), code: code, traced: op != nil, bytes: c.buf.Len()}
	var got reply
	if code != http.StatusOK || json.Unmarshal(c.buf.Bytes(), &got) != nil || got.Status != "done" || got.Result == nil {
		return out, nil
	}
	sp.attr("server_build_ns", float64(got.Result.BuildNS))
	sp.attr("server_solve_ns", float64(got.Result.ElapsedNS))
	out.serverMS = float64(got.Result.BuildNS+got.Result.ElapsedNS) / 1e6
	out.hit = got.CacheHit
	out.iters = got.Result.Iterations
	if known >= 0 {
		out.ok = c.refs[known].matches(&got)
	} else {
		out.ok = got.Result.Converged
	}
	if !out.ok {
		fmt.Fprintf(os.Stderr, "serve-mixed: wrong answer to %s: %s\n", body, c.buf.Bytes())
	}
	return out, nil
}

// warm has every client request each of its known shapes once, so the
// graph cache holds them before the timed window. The same work in
// every run, unlike a stretch of the seeded stream.
func (s *serveState) warm() error {
	errs := make([]error, len(s.clients))
	var wg sync.WaitGroup
	for i, c := range s.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for known, sh := range c.sched.known() {
				got, err := c.solve(s, sh.body(), known, nil)
				if err == nil && !got.ok {
					err = fmt.Errorf("warm-up: %s %s: status %d or wrong answer", sh.domain, sh.spec, got.code)
				}
				if err != nil {
					errs[i] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// segmentSize is how many requests the closed loop issues between two
// calibrations: short enough that the machine's speed holds across a
// segment, long enough that the pause between segments costs little.
const segmentSize = 100

// segment runs the closed loop for n requests: each client draws the
// next request of its seeded stream when its previous reply has arrived. It returns the samples, their times scaled to reference
// speed, and the segment's wall time scaled likewise.
func (s *serveState) segment(b *bench, n int) ([]sample, float64, error) {
	var (
		mu      sync.Mutex
		issued  int
		samples = make([]sample, 0, n)
		failure error
		wg      sync.WaitGroup
	)
	speed := startSpeedMeter()
	t0 := time.Now()
	for _, c := range s.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if failure != nil || issued == n {
					mu.Unlock()
					return
				}
				issued++
				traced := issued%2 == 0
				body, known := c.sched.next()
				mu.Unlock()

				op := b.tr.startOp("harness", "request", traced)
				got, err := c.solve(s, body, known, op)
				op.end()

				mu.Lock()
				if err != nil {
					failure = err
				}
				samples = append(samples, got)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0)
	f := speed.factor()
	for i := range samples {
		samples[i].rtMS *= f
	}
	return samples, wall.Seconds() * f, failure
}

// serveWorkload is the body of serve-mixed: decode, admission, graph
// cache, build and encode carry the cost, the kernels little.
func serveWorkload(b *bench) error {
	var s *serveState
	defer func() { s.close() }()
	err := b.setUp(func() { s.close(); s = nil }, func() (err error) {
		if s, err = newServeState(b); err != nil {
			return err
		}
		return s.warm()
	})
	if err != nil {
		return err
	}

	before := s.srv.CacheStats()
	var samples []sample
	var wallSecs float64
	w := b.window(1)
	for segments := 0; w.more(segments); segments++ {
		got, secs, err := s.segment(b, segmentSize)
		if err != nil {
			return err
		}
		samples, wallSecs = append(samples, got...), wallSecs+secs
	}
	after := s.srv.CacheStats()

	var rt, overhead, hitMS, missMS, iters, size []float64
	var traced []bool
	var ok, refused, errored int
	for _, x := range samples {
		b.count(x.ok)
		switch {
		case x.code == http.StatusTooManyRequests:
			refused++
		case x.code >= 500:
			errored++
		}
		if !x.ok {
			continue
		}
		ok++
		rt, traced = append(rt, x.rtMS), append(traced, x.traced)
		overhead = append(overhead, x.rtMS-x.serverMS)
		if x.hit {
			hitMS = append(hitMS, x.rtMS)
		} else {
			missMS = append(missMS, x.rtMS)
		}
		iters = append(iters, float64(x.iters))
		size = append(size, float64(x.bytes))
	}
	b.set("op_ms_p50", median(rt))
	b.set("work_per_s", float64(ok)/wallSecs)
	if !b.o.trace {
		return nil
	}

	b.set("req_ms_p50", median(rt))
	b.set("req_ms_p95", quantile(rt, 0.95))
	b.set("req_per_s", float64(ok)/wallSecs)
	b.set("serve.req_ms_p99", quantile(rt, 0.99))
	b.set("serve.overhead_ms_p50", median(overhead))
	b.set("serve.hit_ms_p50", median(hitMS))
	b.set("serve.miss_ms_p50", median(missMS))
	b.set("serve.iters_per_req", mean(iters))
	b.set("serve.resp_bytes_mean", mean(size))
	b.set("serve.http_429", float64(refused))
	b.set("serve.http_5xx", float64(errored))
	hits, misses := float64(after.Hits-before.Hits), float64(after.Misses-before.Misses)
	b.set("graph.cache_hit_share", ratio(hits, hits+misses))
	b.set("trace.overhead_share", traceOverhead(rt, traced))
	if err := s.probeServer(b); err != nil {
		return err
	}
	sh := s.clients[0].sched.mediums[0]
	s.probe.Reset()
	return probeGraph(b, sh.domain, sh.spec, s.probe.FactorGraph())
}

// probeServer times two server paths outside the request mix: a
// metrics scrape, and admission alone (an async submit answers 202 as
// soon as the job is queued).
func (s *serveState) probeServer(b *bench) error {
	c := s.clients[0]
	var failure error
	b.set("serve.metrics_scrape_ms", probe(b, "serve", "metrics_scrape", 20, func() {
		resp, err := c.http.Get(s.url + "/metrics")
		if err != nil {
			failure = err
			return
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil || resp.StatusCode != http.StatusOK {
			failure = fmt.Errorf("GET /metrics: status %d, %v", resp.StatusCode, err)
		}
	})/1e6)
	sh := c.sched.repeats[0]
	body := []byte(fmt.Sprintf(`{"workload":%q,"spec":%s,"wait":false,%s}`, sh.domain, sh.spec, solveControls))
	b.set("serve.admit_us", probe(b, "serve", "admit", 40, func() {
		if code, err := c.post(s.url+"/v1/solve", body); err != nil || code != http.StatusAccepted {
			failure = fmt.Errorf("async submit: status %d, %v", code, err)
		}
	})/1e3)
	return failure
}
