// Command paradmm-bulk streams JSONL solve requests from stdin through
// the staged bulk pipeline (internal/bulk) and writes JSONL results to
// stdout in input order. Same-shape requests share one cached factor
// graph and warm-start from the previous solution of that shape, so a
// stream of similar problems costs a fraction of solving each cold.
//
// Usage:
//
//	paradmm-bulk < requests.jsonl > results.jsonl
//	paradmm-bulk -workers 8 -executor parallel-for -exec-workers 2 < requests.jsonl
//	paradmm-bulk -gen 10000 -seed 7 > requests.jsonl   # deterministic test stream
//	paradmm-bulk -store ./solutions < requests.jsonl   # persist warm-start chains across runs (docs/store.md)
//
// Each input line is one request:
//
//	{"id":"r1","workload":"lasso","spec":{"m":64,"lambda":0.3},"max_iter":2000,"abs_tol":1e-4,"rel_tol":1e-4}
//
// and each output line one result (seq matches the input record index):
//
//	{"seq":0,"id":"r1","workload":"lasso","shape":"lasso/m=64,...","warm":false,"iterations":310,"converged":true,"metrics":{...}}
//
// Malformed lines, unknown workloads, and failed solves become error
// records on the stream; the pipeline keeps going. Run statistics go
// to stderr. Output bytes are a pure function of the input stream and
// the flags — POST the same stream to a paradmm-serve /v1/bulk endpoint
// configured alike and the responses diff clean.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/admm"
	"repro/internal/bulk"
	"repro/internal/store"
)

func main() {
	workers := flag.Int("workers", 0, "solve-stage workers (0 = GOMAXPROCS)")
	executor := flag.String("executor", "serial", "stream-level executor: serial | parallel-for | async | sharded | auto (per-record executor fields override)")
	execWorkers := flag.Int("exec-workers", 0, "workers inside the parallel-for executor (0 = executor default)")
	shards := flag.Int("shards", 0, "shard count for -executor sharded (0 = executor default)")
	fused := flag.Bool("fused", true, "false = the five-phase reference schedule (-executor serial only)")
	transport := flag.String("transport", "", "sharded boundary exchange: local (default) | sockets")
	addrs := flag.String("addrs", "", "comma-separated paradmm-shardworker endpoints, one per shard, for -transport sockets")
	maxIter := flag.Int("max-iter", 1000, "default iteration budget for records without max_iter")
	absTol := flag.Float64("abs-tol", 0, "default absolute stopping tolerance (0 = none)")
	relTol := flag.Float64("rel-tol", 0, "default relative stopping tolerance (0 = none)")
	maxLine := flag.Int("max-line-bytes", 1<<20, "longest accepted input line; longer lines become error records")
	storeDir := flag.String("store", "", "persistent warm-start store directory (empty = disabled); chains seed from and persist to it across runs")
	storeMaxBytes := flag.Int64("store-max-bytes", 256<<20, "solution store log size cap before compaction")
	gen := flag.Int("gen", 0, "generate an N-record deterministic request stream to stdout and exit")
	seed := flag.Int64("seed", 1, "seed for -gen")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: paradmm-bulk [flags] < requests.jsonl > results.jsonl\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	out := bufio.NewWriterSize(os.Stdout, 64<<10)

	if *gen > 0 {
		if err := bulk.Generate(out, *gen, *seed); err != nil {
			fatal(err)
		}
		if err := out.Flush(); err != nil {
			fatal(err)
		}
		return
	}

	spec, err := admm.ParseExecutor(*executor, *execWorkers)
	if err != nil {
		fatal(err)
	}
	if spec.Kind == admm.ExecSharded {
		spec.Workers = 0
		spec.Shards = *shards
	}
	if spec.Kind == admm.ExecAuto {
		spec.Workers = 0
	}
	spec.Transport = *transport
	spec.Addrs = splitAddrs(*addrs)
	if len(spec.Addrs) > 0 && *shards == 0 {
		spec.Shards = len(spec.Addrs)
	}
	spec.Fused = fused
	if err := spec.Validate(); err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		// A canceled Run still joins its reader, which can sit in a
		// blocked stdin read (e.g. an idle terminal). Dropping the
		// signal handler here restores default disposition, so a second
		// interrupt exits the process instead of being swallowed.
		<-ctx.Done()
		stop()
	}()

	opts := bulk.Options{
		Workers:      *workers,
		Executor:     spec,
		MaxIter:      *maxIter,
		AbsTol:       *absTol,
		RelTol:       *relTol,
		MaxLineBytes: *maxLine,
	}
	if *storeDir != "" {
		st, err := store.Open(store.Options{Dir: *storeDir, MaxBytes: *storeMaxBytes})
		if err != nil {
			fatal(err)
		}
		defer st.Close()
		opts.Store = st
	}

	stats, err := bulk.Run(ctx, os.Stdin, out, opts)
	if ferr := out.Flush(); err == nil {
		err = ferr
	}
	fmt.Fprintf(os.Stderr, "paradmm-bulk: %d records in, %d results out (%d errors), %d solved (%d warm-started, %d cache hits) across %d shapes, %d total iterations\n",
		stats.Lines, stats.Results, stats.Errors, stats.Solved, stats.WarmStarts, stats.CacheHits, stats.Shapes, stats.Iterations)
	if *storeDir != "" {
		fmt.Fprintf(os.Stderr, "paradmm-bulk: store: %d hits, %d misses, %d saved\n",
			stats.StoreHits, stats.StoreMisses, stats.StoreSaves)
	}
	if err != nil {
		fatal(err)
	}
}

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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "paradmm-bulk:", err)
	os.Exit(1)
}
