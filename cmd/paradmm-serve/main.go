// Command paradmm-serve runs the batched solve service: an HTTP JSON
// API accepting factor-graph problem specs for the four workloads and
// dispatching them onto a bounded worker pool over the internal/admm
// executors, with a shape-keyed graph cache that pools a shape from its
// second miss on, within a 64 MiB budget (graph.CacheBudget).
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

// options are the flags that set up the process around the server: its
// listener and HTTP timeouts, the solution store and the fleet registry
// (no fleet when fleet.Addrs is empty).
type options struct {
	addr              string
	readHeaderTimeout time.Duration
	idleTimeout       time.Duration
	storeDir          string
	storeMaxBytes     int64
	fleet             fleet.Config
}

// parseConfig parses the command line into the server's Config and the
// process options. A malformed value, a stray argument or a negative
// count or size is an error, reported with the usage the way the flag
// package reports its own; -h prints the usage and returns
// flag.ErrHelp.
func parseConfig(args []string) (serve.Config, options, error) {
	var cfg serve.Config
	var o options
	var fleetAddrs string
	fs := flag.NewFlagSet("paradmm-serve", flag.ContinueOnError)
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.IntVar(&cfg.Workers, "workers", 0, "max concurrent solves (0 = GOMAXPROCS)")
	fs.IntVar(&cfg.QueueDepth, "queue", 64, "admission queue depth")
	fs.IntVar(&cfg.CachePerKey, "cache-per-key", 2, "pooled graphs per shape key")
	fs.IntVar(&cfg.MaxIterLimit, "max-iter-limit", 200000, "reject requests asking for more iterations")
	fs.IntVar(&cfg.BulkStreams, "bulk-streams", 2, "max concurrent POST /v1/bulk streams")
	fs.IntVar(&cfg.BulkWorkers, "bulk-workers", 0, "solve workers per bulk stream (0 = -workers)")
	fs.Int64Var(&cfg.MaxBodyBytes, "max-body-bytes", 1<<20, "max POST /v1/solve body size in bytes")
	fs.DurationVar(&o.readHeaderTimeout, "read-header-timeout", serve.DefaultReadHeaderTimeout, "drop connections that stall delivering request headers")
	fs.DurationVar(&o.idleTimeout, "idle-timeout", serve.DefaultIdleTimeout, "drop keep-alive connections idle this long between requests")
	fs.StringVar(&o.storeDir, "store", "", "persistent warm-start store directory (empty = disabled); bulk streams seed from and persist to it across restarts")
	fs.Int64Var(&o.storeMaxBytes, "store-max-bytes", 256<<20, "solution store log size cap before compaction")
	fs.StringVar(&fleetAddrs, "fleet-addrs", "", "comma-separated paradmm-shardworker endpoints forming a persistent serve fleet; eligible requests are routed local/remote/shed by the admission planner (see docs/fleet.md)")
	fs.DurationVar(&o.fleet.ProbeInterval, "fleet-probe-interval", 2*time.Second, "fleet registry health-probe period")
	fs.DurationVar(&o.fleet.ProbeTimeout, "fleet-probe-timeout", time.Second, "per-worker health-probe deadline")
	fs.IntVar(&o.fleet.DeadAfter, "fleet-dead-after", 3, "consecutive probe failures before a fleet worker is marked dead")
	fs.IntVar(&cfg.FleetPlanner.MinEdges, "fleet-min-edges", 0, "smallest graph (edges) the planner will route to the fleet (0 = the auto policy's sharding floor)")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: paradmm-serve [-addr :8080] [-workers N] [-queue N] [flags]\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return cfg, o, err
	}
	var bad error
	if fs.NArg() > 0 {
		bad = fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	// Every integer flag is a count or a size, every duration a timeout
	// or a period; string flags take any value.
	fs.Visit(func(f *flag.Flag) {
		var neg bool
		switch v := f.Value.(flag.Getter).Get().(type) {
		case int:
			neg = v < 0
		case int64:
			neg = v < 0
		case time.Duration:
			neg = v < 0
		}
		if neg && bad == nil {
			bad = fmt.Errorf("-%s = %s: must not be negative", f.Name, f.Value)
		}
	})
	if bad != nil {
		fmt.Fprintln(fs.Output(), bad)
		fs.Usage()
		return cfg, o, bad
	}
	o.fleet.Addrs = splitAddrs(fleetAddrs)
	return cfg, o, nil
}

func main() {
	cfg, o, err := parseConfig(os.Args[1:])
	switch {
	case errors.Is(err, flag.ErrHelp):
		return
	case err != nil:
		os.Exit(2) // parseConfig printed the error and the usage
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if len(o.fleet.Addrs) > 0 {
		o.fleet.Logf = log.Printf
		reg, err := fleet.New(o.fleet)
		if err != nil {
			log.Fatal(err)
		}
		go reg.Run(ctx)
		cfg.Fleet = reg
	}
	if o.storeDir != "" {
		st, err := store.Open(store.Options{Dir: o.storeDir, MaxBytes: o.storeMaxBytes})
		if err != nil {
			log.Fatal(err)
		}
		defer st.Close()
		cfg.Store = st
	}
	srv := serve.New(cfg)
	httpSrv := serve.NewHTTPServer(o.addr, srv.Handler(), o.readHeaderTimeout, o.idleTimeout)

	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		httpSrv.Shutdown(shutdownCtx)
	}()

	fmt.Printf("paradmm-serve listening on %s (workloads: %v)\n", o.addr, serve.Workloads())
	err = httpSrv.ListenAndServe()
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	srv.Close()
	fmt.Println("paradmm-serve: drained, bye")
}
