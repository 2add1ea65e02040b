package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/store"
	"repro/internal/workload"
)

// solveBodyOfSize renders a valid /v1/solve body padded with interior
// whitespace to exactly n bytes. The padding sits before the closing
// brace, so the body is one object however the decoder reads past it.
func solveBodyOfSize(t *testing.T, n int) string {
	t.Helper()
	core := `{"workload":"lasso","spec":{"m":24,"lambda":0.3},"max_iter":500,"abs_tol":1e-4,"rel_tol":1e-4`
	pad := n - len(core) - 1
	if pad < 0 {
		t.Fatalf("body size %d smaller than the minimal body", n)
	}
	return core + strings.Repeat(" ", pad) + "}"
}

// TestSolveBodyCapBoundary pins the request-body cap at its exact
// boundary: a body of exactly workload.MaxRequestBytes is solved
// normally, one byte more is rejected with 413 and a JSON error
// envelope.
func TestSolveBodyCapBoundary(t *testing.T) {
	const cap = workload.MaxRequestBytes
	_, ts := newTestServer(t, Config{Workers: 2})

	resp, err := http.Post(ts.URL+"/v1/solve", "application/json",
		strings.NewReader(solveBodyOfSize(t, cap)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("exactly-at-cap body = %d, want 200: %s", resp.StatusCode, body)
	}

	resp2, err := http.Post(ts.URL+"/v1/solve", "application/json",
		strings.NewReader(solveBodyOfSize(t, cap+1)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("cap+1 body = %d, want 413", resp2.StatusCode)
	}
	var envelope struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&envelope); err != nil {
		t.Fatalf("413 response is not a JSON error envelope: %v", err)
	}
	if !strings.Contains(envelope.Error, fmt.Sprint(cap)) {
		t.Fatalf("413 envelope %q does not name the %d-byte cap", envelope.Error, cap)
	}
}

// TestSolveTrailingDataRefused: only whitespace may follow the request
// object. A stray closing bracket or a second object is a 400 naming
// the trailing data, as the bulk envelope refuses it; a final newline
// solves.
func TestSolveTrailingDataRefused(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	const obj = `{"workload":"mpc","spec":{"k":4},"max_iter":20}`
	for _, tc := range []struct {
		body string
		code int
	}{
		{obj + "}", http.StatusBadRequest},
		{obj + "]", http.StatusBadRequest},
		{obj + " {}", http.StatusBadRequest},
		{obj + "x", http.StatusBadRequest},
		{obj + "\n", http.StatusOK},
		{" \t" + obj + " \r\n", http.StatusOK},
	} {
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var reply struct {
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&reply)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("body %q: reply is not JSON: %v", tc.body, err)
		}
		if resp.StatusCode != tc.code {
			t.Fatalf("body %q: status %d, want %d (%s)", tc.body, resp.StatusCode, tc.code, reply.Error)
		}
		if want := "bad request body: trailing data after request object"; tc.code != http.StatusOK && reply.Error != want {
			t.Errorf("body %q: error %q, want %q", tc.body, reply.Error, want)
		}
	}
}

// TestReadHeaderTimeoutDropsStalledConn pins the slowloris fix end to
// end on a real listener: a connection that stalls mid-headers is
// dropped by ReadHeaderTimeout, while a bulk stream on the same server
// that lives far past that timeout (trickling its request body)
// completes — proving the hardening cannot kill long streams, which is
// why the server sets no WriteTimeout.
func TestReadHeaderTimeoutDropsStalledConn(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := NewHTTPServer(ln.Addr().String(), s.Handler(), 250*time.Millisecond, time.Second)
	go httpSrv.Serve(ln)
	defer httpSrv.Close()

	// The live stream: two records trickled 2x the header timeout apart.
	type streamResult struct {
		lines []string
		err   error
	}
	streamDone := make(chan streamResult, 1)
	go func() {
		pr, pw := io.Pipe()
		record := `{"workload":"lasso","spec":{"m":24,"lambda":0.3},"max_iter":2000,"abs_tol":1e-4,"rel_tol":1e-4}` + "\n"
		go func() {
			io.WriteString(pw, record)
			time.Sleep(500 * time.Millisecond)
			io.WriteString(pw, record)
			pw.Close()
		}()
		resp, err := http.Post("http://"+ln.Addr().String()+"/v1/bulk", "application/x-ndjson", pr)
		if err != nil {
			streamDone <- streamResult{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		lines := strings.Split(strings.TrimSpace(string(body)), "\n")
		streamDone <- streamResult{lines: lines, err: err}
	}()

	// The slowloris: send half a request line, then stall.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /v1/solve HTTP/1.1\r\nHost: x\r\nContent-Le"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	// ReadHeaderTimeout firing surfaces as an error response (or a bare
	// close) followed by EOF; a deadline error instead means the server
	// was still waiting on our headers — the slowloris won. The exact
	// status is a net/http detail; the contract is the prompt EOF.
	if _, err := io.ReadAll(bufio.NewReader(conn)); err != nil {
		t.Fatalf("stalled-header connection still open after %v (read: %v), want a drop near the 250ms header timeout", time.Since(start), err)
	}
	if waited := time.Since(start); waited > 3*time.Second {
		t.Fatalf("stalled-header connection survived %v, want a drop near the 250ms header timeout", waited)
	}

	res := <-streamDone
	if res.err != nil {
		t.Fatalf("live bulk stream killed by edge timeouts: %v", res.err)
	}
	if len(res.lines) != 2 {
		t.Fatalf("live bulk stream returned %d records, want 2: %q", len(res.lines), res.lines)
	}
	for _, line := range res.lines {
		if strings.Contains(line, `"error"`) {
			t.Fatalf("bulk record failed: %s", line)
		}
	}
}

// TestBulkStoreAcrossServerRestart is the serving-layer half of the
// tentpole: two server processes sharing one store directory. The
// second server's first bulk record warm-starts from what the first
// server persisted, and /metrics reports the store counters.
func TestBulkStoreAcrossServerRestart(t *testing.T) {
	dir := t.TempDir()
	stream := strings.Repeat(`{"workload":"lasso","spec":{"m":24,"lambda":0.3},"max_iter":5000,"abs_tol":1e-6,"rel_tol":1e-6}`+"\n", 2)

	runOnce := func() (first struct {
		Warm       bool   `json:"warm"`
		Iterations int    `json:"iterations"`
		Error      string `json:"error"`
	}, metrics string) {
		st, err := store.Open(store.Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		_, ts := newTestServer(t, Config{Workers: 2, Store: st})
		resp, err := http.Post(ts.URL+"/v1/bulk", "application/x-ndjson", strings.NewReader(stream))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(bytes.Split(body, []byte("\n"))[0], &first); err != nil {
			t.Fatalf("bad first record %q: %v", body, err)
		}
		mresp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer mresp.Body.Close()
		mtext, _ := io.ReadAll(mresp.Body)
		return first, string(mtext)
	}

	cold, metrics1 := runOnce()
	if cold.Error != "" || cold.Warm {
		t.Fatalf("first run's first record = %+v, want a clean cold solve", cold)
	}
	for _, want := range []string{"paradmm_store_hits_total 0", "paradmm_store_misses_total 1", "paradmm_store_puts_total 1"} {
		if !strings.Contains(metrics1, want) {
			t.Fatalf("first run metrics missing %q:\n%s", want, metrics1)
		}
	}

	warm, metrics2 := runOnce()
	if warm.Error != "" || !warm.Warm {
		t.Fatalf("restarted server's first record = %+v, want a store-warm solve", warm)
	}
	if warm.Iterations >= cold.Iterations {
		t.Fatalf("store-warm open took %d iterations, cold took %d", warm.Iterations, cold.Iterations)
	}
	for _, want := range []string{"paradmm_store_hits_total 1", "paradmm_store_misses_total 0"} {
		if !strings.Contains(metrics2, want) {
			t.Fatalf("restarted server metrics missing %q:\n%s", want, metrics2)
		}
	}
	if !strings.Contains(metrics2, "paradmm_store_bytes ") || strings.Contains(metrics2, "paradmm_store_bytes 0\n") {
		t.Fatalf("restarted server metrics missing a positive paradmm_store_bytes:\n%s", metrics2)
	}
}
