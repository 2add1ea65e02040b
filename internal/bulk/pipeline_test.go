package bulk

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/store"
	"repro/internal/workload"
)

func decodeResults(t *testing.T, out []byte) []Result {
	t.Helper()
	var results []Result
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		var res Result
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			t.Fatalf("bad output line %q: %v", sc.Text(), err)
		}
		results = append(results, res)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return results
}

// TestPipelineWarmChains pins the tentpole semantics on a small mixed
// stream: output order matches input order, the first record of each
// shape is cold, every later same-shape record is warm and converges
// in fewer iterations, and a malformed line in the middle becomes an
// error record without disturbing its neighbors.
func TestPipelineWarmChains(t *testing.T) {
	var in strings.Builder
	for i := 0; i < 4; i++ {
		fmt.Fprintf(&in, `{"id":"a%d","workload":"lasso","spec":{"m":32,"lambda":0.3},"max_iter":5000,"abs_tol":1e-6,"rel_tol":1e-6}`+"\n", i)
		fmt.Fprintf(&in, `{"id":"b%d","workload":"svm","spec":{"n":24,"dim":2},"max_iter":5000,"abs_tol":1e-6,"rel_tol":1e-6}`+"\n", i)
	}
	in.WriteString("{broken\n")
	in.WriteString(`{"id":"a4","workload":"lasso","spec":{"m":32,"lambda":0.3},"max_iter":5000,"abs_tol":1e-6,"rel_tol":1e-6}` + "\n")

	var out bytes.Buffer
	stats, err := Run(context.Background(), strings.NewReader(in.String()), &out, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	results := decodeResults(t, out.Bytes())
	if len(results) != 10 {
		t.Fatalf("got %d results, want 10", len(results))
	}

	coldIters := map[string]int{}
	for i, res := range results {
		if res.Seq != i {
			t.Fatalf("result %d has seq %d — output order broken", i, res.Seq)
		}
		if i == 8 {
			if res.Error == "" {
				t.Fatalf("malformed line produced a non-error record: %+v", res)
			}
			continue
		}
		if res.Error != "" {
			t.Fatalf("record %d failed: %s", i, res.Error)
		}
		if !res.Converged {
			t.Fatalf("record %d did not converge in %d iterations", i, res.Iterations)
		}
		prev, seen := coldIters[res.Shape]
		if !seen {
			if res.Warm {
				t.Fatalf("first record of shape %q marked warm", res.Shape)
			}
			coldIters[res.Shape] = res.Iterations
			continue
		}
		if !res.Warm {
			t.Fatalf("repeat record %d of shape %q not warm-started", i, res.Shape)
		}
		if res.Iterations >= prev {
			t.Fatalf("warm record %d took %d iterations, cold took %d", i, res.Iterations, prev)
		}
	}

	if stats.Lines != 10 || stats.Results != 10 || stats.Errors != 1 {
		t.Fatalf("stats = %+v, want 10 lines, 10 results, 1 error", stats)
	}
	if stats.Solved != 9 || stats.WarmStarts != 7 || stats.Shapes != 2 {
		t.Fatalf("stats = %+v, want 9 solved, 7 warm, 2 shapes", stats)
	}
}

// TestPipelineDivergedRecordDropsChain pins the divergence rule: a solve
// that ends on a NaN/Inf iterate without an error (here an mpc initial
// state that overflows the dynamics) still reports its result, but its
// iterate is never warm-applied to the next record of the shape nor
// written to the store; a healthy chain beside it is untouched.
func TestPipelineDivergedRecordDropsChain(t *testing.T) {
	const poisoned = `{"id":"p%d","workload":"mpc","spec":{"k":4,"q0":[1e308,1e308,1e308,1e308]},"max_iter":50}` + "\n"
	var in strings.Builder
	for i := 0; i < 2; i++ {
		fmt.Fprintf(&in, poisoned, i)
		fmt.Fprintf(&in, storeLassoLine, fmt.Sprintf("ok%d", i))
	}
	s := openTestStore(t)
	var out bytes.Buffer
	stats, err := Run(context.Background(), strings.NewReader(in.String()), &out, Options{Workers: 2, Store: s})
	if err != nil {
		t.Fatal(err)
	}
	results := decodeResults(t, out.Bytes())
	if len(results) != 4 {
		t.Fatalf("got %d results, want 4", len(results))
	}
	for _, i := range []int{0, 2} {
		if res := results[i]; res.Error != "" || res.Iterations != 50 || res.Warm {
			t.Fatalf("diverged record %d = %+v, want its 50-iteration cold result and no error", i, res)
		}
	}
	if !results[3].Warm {
		t.Fatalf("healthy chain lost its warm start: %+v", results[3])
	}
	if _, ok := s.Get(results[0].Shape); ok {
		t.Fatalf("store holds the diverged shape %q", results[0].Shape)
	}
	if _, ok := s.Get(results[1].Shape); !ok || stats.StoreSaves != 1 {
		t.Fatalf("healthy chain not persisted: saves = %d", stats.StoreSaves)
	}
}

// TestPipelineDeterministicAcrossWorkers pins the byte-determinism
// contract: the same stream through 1, 3, and more-workers-than-shapes
// pipelines yields identical output bytes (this is what lets CI diff
// the CLI against the serving endpoint).
func TestPipelineDeterministicAcrossWorkers(t *testing.T) {
	var in bytes.Buffer
	if err := Generate(&in, 120, 7); err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, workers := range []int{1, 3, 16} {
		var out bytes.Buffer
		if _, err := Run(context.Background(), bytes.NewReader(in.Bytes()), &out, Options{Workers: workers}); err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = out.Bytes()
			continue
		}
		if !bytes.Equal(want, out.Bytes()) {
			t.Fatalf("output with %d workers differs from 1-worker output", workers)
		}
	}
}

// TestPipelineSharedCacheConcurrent runs two pipelines concurrently
// over one shared graph cache — the serving layer's deployment shape —
// under more workers than shapes. The race detector owns the
// correctness half; the assertions pin that both streams complete with
// every record accounted for.
func TestPipelineSharedCacheConcurrent(t *testing.T) {
	cache := graph.NewCache[workload.Problem](2)
	var in bytes.Buffer
	if err := Generate(&in, 80, 11); err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			var out bytes.Buffer
			stats, err := Run(context.Background(), bytes.NewReader(in.Bytes()), &out,
				Options{Workers: 12, Cache: cache})
			if err == nil && stats.Results != stats.Lines {
				err = fmt.Errorf("wrote %d results for %d lines", stats.Results, stats.Lines)
			}
			errCh <- err
		}()
	}
	for i := 0; i < 2; i++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
	if st := cache.Stats(); st.Size == 0 {
		t.Fatal("no graphs returned to the shared cache after the runs")
	}
}

// slowWriter blocks each write until released, then fails — forcing
// records to pile up against backpressure while cancellation lands.
type slowWriter struct {
	firstWrite chan struct{}
	release    chan struct{}
	wrote      bool
}

func (w *slowWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.wrote = true
		close(w.firstWrite)
	}
	<-w.release
	return len(b), nil
}

// TestPipelineCancellation cancels mid-stream against a stalled writer
// and requires Run to drain and return promptly with the context error,
// leaking no goroutines.
func TestPipelineCancellation(t *testing.T) {
	before := runtime.NumGoroutine()

	var in bytes.Buffer
	if err := Generate(&in, 5000, 3); err != nil {
		t.Fatal(err)
	}
	// An unbounded reader after the generated prefix: cancellation must
	// win even though input never runs out.
	input := io.MultiReader(bytes.NewReader(in.Bytes()), neverEnding{})

	ctx, cancel := context.WithCancel(context.Background())
	w := &slowWriter{firstWrite: make(chan struct{}), release: make(chan struct{})}
	done := make(chan error, 1)
	go func() {
		_, err := Run(ctx, input, w, Options{Workers: 8})
		done <- err
	}()

	<-w.firstWrite
	cancel()
	close(w.release)

	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}

	// Give exiting goroutines a beat, then require the count back near
	// the baseline (other tests' leftovers make exact equality brittle).
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

// neverEnding yields blank lines forever.
type neverEnding struct{}

func (neverEnding) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = '\n'
	}
	return len(p), nil
}

// gateReader signals when a Read is in flight and blocks it until
// released, then reports EOF.
type gateReader struct {
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (g *gateReader) Read(p []byte) (int, error) {
	g.once.Do(func() { close(g.entered) })
	<-g.release
	return 0, io.EOF
}

// TestRunJoinsReader pins that a canceled Run does not return while its
// reader goroutine is still inside r.Read — the contract that lets the
// serving handler hand Run the request body without the body being
// read after the handler returns.
func TestRunJoinsReader(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g := &gateReader{entered: make(chan struct{}), release: make(chan struct{})}
	done := make(chan error, 1)
	go func() {
		_, err := Run(ctx, g, io.Discard, Options{Workers: 1})
		done <- err
	}()

	<-g.entered
	cancel()
	select {
	case <-done:
		t.Fatal("Run returned while its reader was still blocked in Read")
	case <-time.After(100 * time.Millisecond):
	}

	close(g.release)
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after the reader unblocked")
	}
}

// blockingStore finds nothing for any key, and its Get blocks on one
// key until released.
type blockingStore struct {
	key     string
	release chan struct{}
}

func (s blockingStore) Get(key string) (store.Snapshot, bool) {
	if key == s.key {
		<-s.release
	}
	return store.Snapshot{}, false
}

func (blockingStore) Put(string, store.Snapshot) error { return nil }

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n atomic.Int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// TestPipelineReorderWindowBounded pins the window: one record stuck in
// its solve ahead of a long run of fast records routed to the other
// worker stalls the reader once the window is full, instead of letting
// the writer's reorder buffer grow with the input. Released, the stream
// completes in order.
func TestPipelineReorderWindowBounded(t *testing.T) {
	const fast = 100000
	const rec = `{"id":"r%06d","workload":"mpc","spec":{"k":%d},"max_iter":1}` + "\n"
	key := func(k int) string {
		adm, err := workload.Parse("mpc", []byte(fmt.Sprintf(`{"k":%d}`, k)))
		if err != nil {
			t.Fatal(err)
		}
		return adm.Key
	}
	// The fast records are mpc k=1. Record 0 is the first horizon routed
	// to the other of two workers; its shape's first store lookup blocks.
	stuck := 2
	for shapeWorker(key(stuck), 2) == shapeWorker(key(1), 2) {
		stuck++
	}
	var in bytes.Buffer
	fmt.Fprintf(&in, rec, 0, stuck)
	for i := 1; i <= fast; i++ {
		fmt.Fprintf(&in, rec, i, 1)
	}
	lineLen := int64(len(fmt.Sprintf(rec, 1, 1)))

	cr := &countingReader{r: &in}
	st := blockingStore{key: key(stuck), release: make(chan struct{})}
	var out bytes.Buffer
	done := make(chan error, 1)
	go func() {
		_, err := Run(context.Background(), cr, &out, Options{Workers: 2, Store: st})
		done <- err
	}()

	// The reader has stalled once the count holds across ten polls.
	var read int64
	for stable := 0; stable < 10; {
		time.Sleep(20 * time.Millisecond)
		if n := cr.n.Load(); n == read {
			stable++
		} else {
			read, stable = n, 0
		}
	}
	// The window's records, the one line waiting for a token, and what
	// the reader's 64 KiB bufio buffer holds ahead.
	if bound := window*lineLen + 64<<10 + 4<<10; read > bound {
		close(st.release)
		<-done
		t.Fatalf("read %d bytes past a stuck record, want <= %d (window %d x %d-byte lines + buffer)",
			read, bound, window, lineLen)
	}

	close(st.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(out.Bytes(), []byte("\n")), []byte("\n"))
	if len(lines) != fast+1 {
		t.Fatalf("got %d records, want %d", len(lines), fast+1)
	}
	for i, l := range lines {
		if !bytes.HasPrefix(l, []byte(fmt.Sprintf(`{"seq":%d,`, i))) || bytes.Contains(l, []byte(`"error"`)) {
			t.Fatalf("record %d is %s, want seq %d solved", i, l, i)
		}
	}
}

// TestReadLineCapBoundary pins that MaxLineBytes bounds the payload,
// not payload plus terminator: a line of exactly the cap is accepted,
// one byte more is rejected, and framing survives both — with and
// without a trailing newline at EOF.
func TestReadLineCapBoundary(t *testing.T) {
	const max = 64
	exact := strings.Repeat("a", max)
	over := strings.Repeat("b", max+1)
	br := bufio.NewReaderSize(strings.NewReader(exact+"\n"+over+"\n"+exact), 16)

	line, tooLong, err := readLine(br, max)
	if err != nil || tooLong || string(line) != exact+"\n" {
		t.Fatalf("exact-cap line: tooLong=%v err=%v len=%d", tooLong, err, len(line))
	}
	line, tooLong, err = readLine(br, max)
	if err != nil || !tooLong || len(line) != 0 {
		t.Fatalf("cap+1 line: tooLong=%v err=%v len=%d", tooLong, err, len(line))
	}
	line, tooLong, err = readLine(br, max)
	if err != io.EOF || tooLong || string(line) != exact {
		t.Fatalf("unterminated exact-cap line: tooLong=%v err=%v len=%d", tooLong, err, len(line))
	}
}

// TestPipelineLineCap pins over-long line handling: the line becomes an
// error record (without buffering the payload) and framing recovers on
// the next line.
func TestPipelineLineCap(t *testing.T) {
	long := `{"workload":"lasso","spec":{"m":32,"pad":"` + strings.Repeat("x", 4096) + `"}}`
	in := long + "\n" + `{"workload":"lasso","spec":{"m":16,"lambda":0.3},"max_iter":50}` + "\n"
	var out bytes.Buffer
	_, err := Run(context.Background(), strings.NewReader(in), &out, Options{Workers: 1, MaxLineBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	results := decodeResults(t, out.Bytes())
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	if !strings.Contains(results[0].Error, "exceeds") {
		t.Fatalf("over-long line produced %+v, want a line-cap error", results[0])
	}
	if results[1].Error != "" || results[1].Iterations != 50 {
		t.Fatalf("record after the over-long line broken: %+v", results[1])
	}
}

// TestPipelineNegativeParamRecord pins that a spec with a negative rho
// or alpha is an error record naming the field, not a "solve panic"
// from the build; that a negative lambda (an unbounded problem that ran
// its whole budget) or block count (a build failure) is one too; and
// that their neighbour still solves.
func TestPipelineNegativeParamRecord(t *testing.T) {
	in := `{"workload":"packing","spec":{"n":4,"rho":-0.1,"delta":-0.5},"max_iter":40}
{"workload":"mpc","spec":{"k":4,"alpha":-1},"max_iter":40}
{"workload":"svm","spec":{"n":24,"dim":2,"lambda":-1},"max_iter":40}
{"workload":"lasso","spec":{"m":32,"lambda":-0.3},"max_iter":40}
{"workload":"lasso","spec":{"m":32,"blocks":-2},"max_iter":40}
{"workload":"mpc","spec":{"k":4},"max_iter":40}
`
	var out bytes.Buffer
	if _, err := Run(context.Background(), strings.NewReader(in), &out, Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	results := decodeResults(t, out.Bytes())
	fields := []string{"rho", "alpha", "lambda", "lambda", "blocks"}
	if len(results) != len(fields)+1 {
		t.Fatalf("got %d results, want %d", len(results), len(fields)+1)
	}
	for i, field := range fields {
		if r := results[i]; !strings.Contains(r.Error, field) || strings.Contains(r.Error, "panic") || r.Iterations != 0 {
			t.Fatalf("record %d produced %+v, want an error record naming %q", i, r, field)
		}
	}
	if last := results[len(fields)]; last.Error != "" || last.Iterations != 40 {
		t.Fatalf("record after the refusals broken: %+v", last)
	}
}

// TestPipelinePerRecordExecutor pins that a record-level executor
// override is honored and an invalid one — an unknown or retired kind,
// or any retired wire key — fails only that record.
func TestPipelinePerRecordExecutor(t *testing.T) {
	const rec = `{"workload":"lasso","spec":{"m":32,"lambda":0.3},"max_iter":60`
	var in strings.Builder
	line := func(executor string) {
		in.WriteString(rec)
		if executor != "" {
			in.WriteString(`,"executor":` + executor)
		}
		in.WriteString("}\n")
	}
	// Each refused record must name what it is refused for: the kind, or
	// the key the strict decoder does not know.
	refused := []struct{ name, executor string }{
		{"workers", `{"kind":"parallel-for","workers":2}`},
		{"warp-drive", `{"kind":"warp-drive"}`},
		{"parallel-for", `{"kind":"parallel-for"}`},
		{"parallel", `{"kind":"parallel"}`},
		{"async", `{"kind":"async"}`},
		{"workers", `{"kind":"serial","workers":2}`},
		{"dynamic", `{"kind":"serial","dynamic":true}`},
		{"balanced_z", `{"kind":"serial","balanced_z":true}`},
		{"seed", `{"kind":"serial","seed":1}`},
		{"overlap", `{"kind":"sharded","shards":2,"transport":"sockets","overlap":true}`},
		{"delta_threshold", `{"kind":"sharded","shards":2,"transport":"sockets","delta_threshold":0}`},
		{"partition", `{"kind":"sharded","shards":2,"partition":"balanced"}`},
		{"refine", `{"kind":"sharded","shards":2,"refine":true}`},
		{"warm_cache", `{"kind":"sharded","shards":2,"transport":"sockets","warm_cache":true}`},
	}
	for _, r := range refused {
		line(r.executor)
	}
	line(`{"kind":"sharded","shards":2}`)
	line("")
	var out bytes.Buffer
	if _, err := Run(context.Background(), strings.NewReader(in.String()), &out, Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	results := decodeResults(t, out.Bytes())
	if len(results) != len(refused)+2 {
		t.Fatalf("got %d results, want %d", len(results), len(refused)+2)
	}
	for i, r := range refused {
		if got := results[i]; !strings.Contains(got.Error, `"`+r.name+`"`) || got.Iterations != 0 {
			t.Fatalf("record %d (%s) produced %+v, want an error record naming %q", i, r.executor, got, r.name)
		}
	}
	for _, r := range results[len(refused):] {
		if r.Error != "" || r.Iterations != 60 {
			t.Fatalf("record after the refusals broken: %+v", r)
		}
	}
}

// TestPipelineFailoverLocalRefusedDial pins that a record's failover
// policy is honored: under "local", worker addrs that refuse the dial
// cost the record nothing but time — it comes back with the same
// iterations and metrics, to the last bit, as the serial solve of the
// same record in a stream of its own (so both solve cold).
func TestPipelineFailoverLocalRefusedDial(t *testing.T) {
	addrs := make([]string, 2)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = "tcp:" + ln.Addr().String()
		ln.Close()
	}
	const rec = `{"workload":"mpc","spec":{"k":24},"max_iter":200,"abs_tol":1e-6,"rel_tol":1e-6%s}` + "\n"
	remote := fmt.Sprintf(`,"executor":{"kind":"sharded","transport":"sockets","failover":"local","dial_attempts":1,"dial_timeout_ms":500,"addrs":[%q,%q]}`,
		addrs[0], addrs[1])
	solve := func(executor string) Result {
		var out bytes.Buffer
		if _, err := Run(context.Background(), strings.NewReader(fmt.Sprintf(rec, executor)), &out, Options{Workers: 1}); err != nil {
			t.Fatal(err)
		}
		results := decodeResults(t, out.Bytes())
		if len(results) != 1 || results[0].Error != "" {
			t.Fatalf("executor %q: results %+v, want one solved record", executor, results)
		}
		return results[0]
	}
	if got, want := solve(remote), solve(""); !reflect.DeepEqual(got, want) {
		t.Fatalf("failover-local record differs from the serial one:\n got %+v\nwant %+v", got, want)
	}
}
