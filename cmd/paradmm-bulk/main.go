// Command paradmm-bulk streams JSONL solve requests from stdin through
// the bulk pipeline (internal/bulk) and writes JSONL results to
// stdout in input order. Same-shape requests share one cached factor
// graph and warm-start from the previous solution of that shape, so a
// stream of similar problems costs a fraction of solving each cold.
//
// Usage:
//
//	paradmm-bulk < requests.jsonl > results.jsonl
//	paradmm-bulk -workers 8 -executor auto < requests.jsonl
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
// to stderr, among them the cores the W workers kept busy: W less their
// summed time away from the stream's work (waiting for work, in a Read of
// stdin or a Write to stdout) over the wall time. Output bytes are a pure
// function of the input stream and the flags — POST the same stream to
// a paradmm-serve /v1/bulk endpoint configured alike and the responses
// diff clean.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/bulk"
	"repro/internal/store"
	"repro/internal/workload"
)

// config is what the command line sets: the pipeline's options, with
// the stream-level executor, and the store and -gen settings.
type config struct {
	opts          bulk.Options
	storeDir      string
	storeMaxBytes int64
	gen           int
	seed          int64
}

// parseConfig parses the command line. A malformed value, a stray
// argument, a negative count or size, or stream defaults that no record
// may carry (an invalid executor, a budget past workload.MaxIterLimit,
// a negative, NaN or infinite tolerance) is an error, reported with the
// usage the way the flag package reports its own; -h prints the usage
// and returns flag.ErrHelp.
func parseConfig(args []string) (config, error) {
	var c config
	var executor, transport, addrs string
	var shards int
	var fused bool
	fs := flag.NewFlagSet("paradmm-bulk", flag.ContinueOnError)
	fs.IntVar(&c.opts.Workers, "workers", 0, "workers (0 = GOMAXPROCS)")
	fs.StringVar(&executor, "executor", "serial", "stream-level executor: serial | sharded | auto (per-record executor fields override)")
	fs.IntVar(&shards, "shards", 0, "shard count for -executor sharded (0 = one per -addrs endpoint, else the executor default, 4)")
	fs.BoolVar(&fused, "fused", true, "false = the five-phase reference schedule (-executor serial only)")
	fs.StringVar(&transport, "transport", "", "sharded boundary exchange: local (default) | sockets")
	fs.StringVar(&addrs, "addrs", "", "comma-separated paradmm-shardworker endpoints, one per shard, for -transport sockets")
	fs.IntVar(&c.opts.MaxIter, "max-iter", workload.DefaultMaxIter, "default iteration budget for records without max_iter")
	fs.Float64Var(&c.opts.AbsTol, "abs-tol", 0, "default absolute stopping tolerance (0 = none)")
	fs.Float64Var(&c.opts.RelTol, "rel-tol", 0, "default relative stopping tolerance (0 = none)")
	fs.StringVar(&c.storeDir, "store", "", "persistent warm-start store directory (empty = disabled); chains seed from and persist to it across runs")
	fs.Int64Var(&c.storeMaxBytes, "store-max-bytes", 256<<20, "solution store log size cap before compaction")
	fs.IntVar(&c.gen, "gen", 0, "generate an N-record deterministic request stream to stdout and exit")
	fs.Int64Var(&c.seed, "seed", 1, "seed for -gen")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: paradmm-bulk [flags] < requests.jsonl > results.jsonl\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	var bad error
	if fs.NArg() > 0 {
		bad = fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	// Every number but -seed is a count, a size or a tolerance (NaN is
	// refused with the negatives).
	fs.Visit(func(f *flag.Flag) {
		var neg bool
		switch v := f.Value.(flag.Getter).Get().(type) {
		case int:
			neg = v < 0
		case int64:
			neg = v < 0 && f.Name != "seed"
		case float64:
			neg = !(v >= 0)
		}
		if neg && bad == nil {
			bad = fmt.Errorf("-%s = %s: must not be negative", f.Name, f.Value)
		}
	})
	if bad == nil {
		c.opts.Executor, bad = workload.ExecutorFlags(executor, shards, transport, addrs, "", fused)
	}
	if bad == nil {
		bad = workload.CheckRequest(&c.opts.Executor, c.opts.MaxIter, c.opts.AbsTol, c.opts.RelTol)
	}
	if bad != nil {
		fmt.Fprintln(fs.Output(), bad)
		fs.Usage()
		return c, bad
	}
	return c, nil
}

func main() {
	c, err := parseConfig(os.Args[1:])
	switch {
	case errors.Is(err, flag.ErrHelp):
		return
	case err != nil:
		os.Exit(2) // parseConfig printed the error and the usage
	}

	out := bufio.NewWriterSize(os.Stdout, 64<<10)

	if c.gen > 0 {
		if err := bulk.Generate(out, c.gen, c.seed); err != nil {
			fatal(err)
		}
		if err := out.Flush(); err != nil {
			fatal(err)
		}
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		// A canceled Run still joins the worker holding its reader
		// role, which can sit in a blocked stdin read (e.g. an idle terminal). Dropping the
		// signal handler here restores default disposition, so a second
		// interrupt exits the process instead of being swallowed.
		<-ctx.Done()
		stop()
	}()

	if c.storeDir != "" {
		st, err := store.Open(store.Options{Dir: c.storeDir, MaxBytes: c.storeMaxBytes})
		if err != nil {
			fatal(err)
		}
		defer st.Close()
		c.opts.Store = st
	}

	start := time.Now()
	stats, err := bulk.Run(ctx, os.Stdin, out, c.opts)
	wall := time.Since(start)
	if ferr := out.Flush(); err == nil {
		err = ferr
	}
	fmt.Fprintf(os.Stderr, "paradmm-bulk: %d records in, %d results out (%d errors), %d solved (%d warm-started, %d cache hits) across %d shapes, %d total iterations, cores busy %.2f of %d\n",
		stats.Lines, stats.Results, stats.Errors, stats.Solved, stats.WarmStarts, stats.CacheHits, stats.Shapes, stats.Iterations,
		float64(stats.Workers)-float64(stats.IdleNanos)/float64(wall), stats.Workers)
	if c.storeDir != "" {
		fmt.Fprintf(os.Stderr, "paradmm-bulk: store: %d hits, %d misses, %d saved\n",
			stats.StoreHits, stats.StoreMisses, stats.StoreSaves)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "paradmm-bulk:", err)
	os.Exit(1)
}
