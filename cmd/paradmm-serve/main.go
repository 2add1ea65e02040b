// Command paradmm-serve runs the batched solve service: an HTTP JSON
// API accepting factor-graph problem specs for the four workloads and
// dispatching them onto a bounded worker pool over the internal/admm
// executors, with a shape-keyed graph cache.
//
// Usage:
//
//	paradmm-serve -addr :8080 -workers 8 -queue 128
//
// Submit a job and wait for the result:
//
//	curl -s localhost:8080/v1/solve -d '{
//	  "workload": "lasso",
//	  "spec": {"m": 64, "blocks": 4, "lambda": 0.3},
//	  "executor": {"kind": "sharded", "shards": 4},
//	  "max_iter": 2000
//	}'
//
// Fire-and-poll instead:
//
//	curl -s localhost:8080/v1/solve -d '{"workload":"mpc","spec":{"k":20},"wait":false}'
//	curl -s localhost:8080/v1/jobs/job-1
//
// Stream a JSONL batch through the bulk pipeline (results stream back
// in input order; same-shape specs warm-start off each other):
//
//	paradmm-bulk -gen 1000 | curl -sN localhost:8080/v1/bulk --data-binary @-
//
// Observe:
//
//	curl -s localhost:8080/healthz
//	curl -s localhost:8080/metrics
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/serve"
	"repro/internal/store"
)

// splitAddrs parses the comma-separated -fleet-addrs list.
func splitAddrs(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "max concurrent solves (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 64, "admission queue depth")
	cachePerKey := flag.Int("cache-per-key", 2, "pooled graphs per shape key")
	maxIter := flag.Int("max-iter-limit", 200000, "reject requests asking for more iterations")
	bulkStreams := flag.Int("bulk-streams", 2, "max concurrent POST /v1/bulk streams")
	bulkWorkers := flag.Int("bulk-workers", 0, "solve workers per bulk stream (0 = -workers)")
	maxBodyBytes := flag.Int64("max-body-bytes", 1<<20, "max POST /v1/solve body size in bytes")
	readHeaderTimeout := flag.Duration("read-header-timeout", serve.DefaultReadHeaderTimeout, "drop connections that stall delivering request headers")
	idleTimeout := flag.Duration("idle-timeout", serve.DefaultIdleTimeout, "drop keep-alive connections idle this long between requests")
	storeDir := flag.String("store", "", "persistent warm-start store directory (empty = disabled); bulk streams seed from and persist to it across restarts")
	storeMaxBytes := flag.Int64("store-max-bytes", 256<<20, "solution store log size cap before compaction")
	dialTimeout := flag.Duration("dial-timeout", 0, "default worker dial timeout for sharded sockets solves whose specs leave dial_timeout_ms unset (0 = 10s)")
	handshakeTimeout := flag.Duration("handshake-timeout", 0, "default worker handshake timeout for sharded sockets solves whose specs leave handshake_timeout_ms unset (0 = 30s)")
	fleetAddrs := flag.String("fleet-addrs", "", "comma-separated paradmm-shardworker endpoints forming a persistent serve fleet; eligible requests are routed local/remote/shed by the admission planner (see docs/fleet.md)")
	fleetProbeInterval := flag.Duration("fleet-probe-interval", 2*time.Second, "fleet registry health-probe period")
	fleetProbeTimeout := flag.Duration("fleet-probe-timeout", time.Second, "per-worker health-probe deadline")
	fleetDeadAfter := flag.Int("fleet-dead-after", 3, "consecutive probe failures before a fleet worker is marked dead")
	fleetPrewarm := flag.Int("fleet-prewarm", 1, "control connections kept dialed per healthy fleet worker")
	fleetMinEdges := flag.Int("fleet-min-edges", 0, "smallest graph (edges) the planner will route to the fleet (0 = the auto policy's sharding floor)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: paradmm-serve [-addr :8080] [-workers N] [-queue N] [flags]\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	cfg := serve.Config{
		Workers:      *workers,
		QueueDepth:   *queue,
		CachePerKey:  *cachePerKey,
		MaxIterLimit: *maxIter,
		BulkStreams:  *bulkStreams,
		BulkWorkers:  *bulkWorkers,
		MaxBodyBytes: *maxBodyBytes,

		DialTimeout:      *dialTimeout,
		HandshakeTimeout: *handshakeTimeout,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if addrs := splitAddrs(*fleetAddrs); len(addrs) > 0 {
		reg, err := fleet.New(fleet.Config{
			Addrs:         addrs,
			ProbeInterval: *fleetProbeInterval,
			ProbeTimeout:  *fleetProbeTimeout,
			DeadAfter:     *fleetDeadAfter,
			Prewarm:       *fleetPrewarm,
			Logf:          log.Printf,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer reg.Close()
		go reg.Run(ctx)
		cfg.Fleet = reg
		cfg.FleetPlanner = fleet.PlannerConfig{MinEdges: *fleetMinEdges}
	}
	if *storeDir != "" {
		st, err := store.Open(store.Options{Dir: *storeDir, MaxBytes: *storeMaxBytes})
		if err != nil {
			log.Fatal(err)
		}
		defer st.Close()
		cfg.Store = st
	}
	srv := serve.New(cfg)
	httpSrv := serve.NewHTTPServer(*addr, srv.Handler(), *readHeaderTimeout, *idleTimeout)

	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		httpSrv.Shutdown(shutdownCtx)
	}()

	fmt.Printf("paradmm-serve listening on %s (workloads: %v)\n", *addr, serve.Workloads())
	err := httpSrv.ListenAndServe()
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	srv.Close()
	fmt.Println("paradmm-serve: drained, bye")
}
