package serve_test

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"

	"repro/internal/serve"
)

// ExampleServer is a complete serve-client round trip: start the
// batched solve service, POST an MPC spec with a per-request executor
// choice, and read the finished job back — the same JSON a curl client
// of cmd/paradmm-serve sees.
func ExampleServer() {
	s := serve.New(serve.Config{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{
		"workload": "mpc",
		"spec": {"k": 4},
		"executor": {"kind": "sharded", "shards": 2},
		"max_iter": 500
	}`
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()

	var job serve.JobView
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		log.Fatal(err)
	}
	fmt.Println("status:", job.Status)
	fmt.Println("iterations:", job.Result.Iterations)
	fmt.Println("cache hit:", job.CacheHit)
	// Output:
	// status: done
	// iterations: 500
	// cache hit: false
}
