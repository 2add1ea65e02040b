// Command paradmm-bulk streams JSONL solve requests from stdin through
// the staged bulk pipeline (internal/bulk) and writes JSONL results to
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
// to stderr. Output bytes are a pure function of the input stream and
// the flags — POST the same stream to a paradmm-serve /v1/bulk endpoint
// configured alike and the responses diff clean.
package main

import (
	"bufio"
	"context"
	"errors"
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
// argument, a negative count, size or tolerance, or an invalid executor
// is an error, reported with the usage the way the flag package reports
// its own; -h prints the usage and returns flag.ErrHelp.
func parseConfig(args []string) (config, error) {
	var c config
	var executor, transport, addrs string
	var shards int
	var fused bool
	fs := flag.NewFlagSet("paradmm-bulk", flag.ContinueOnError)
	fs.IntVar(&c.opts.Workers, "workers", 0, "solve-stage workers (0 = GOMAXPROCS)")
	fs.StringVar(&executor, "executor", "serial", "stream-level executor: serial | sharded | auto (per-record executor fields override)")
	fs.IntVar(&shards, "shards", 0, "shard count for -executor sharded (0 = executor default)")
	fs.BoolVar(&fused, "fused", true, "false = the five-phase reference schedule (-executor serial only)")
	fs.StringVar(&transport, "transport", "", "sharded boundary exchange: local (default) | sockets")
	fs.StringVar(&addrs, "addrs", "", "comma-separated paradmm-shardworker endpoints, one per shard, for -transport sockets")
	fs.IntVar(&c.opts.MaxIter, "max-iter", 1000, "default iteration budget for records without max_iter")
	fs.Float64Var(&c.opts.AbsTol, "abs-tol", 0, "default absolute stopping tolerance (0 = none)")
	fs.Float64Var(&c.opts.RelTol, "rel-tol", 0, "default relative stopping tolerance (0 = none)")
	fs.IntVar(&c.opts.MaxLineBytes, "max-line-bytes", 1<<20, "longest accepted input line; longer lines become error records")
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
		c.opts.Executor, bad = executorSpec(executor, shards, fused, transport, addrs)
	}
	if bad != nil {
		fmt.Fprintln(fs.Output(), bad)
		fs.Usage()
		return c, bad
	}
	return c, nil
}

// executorSpec assembles and validates the stream-level executor.
func executorSpec(kind string, shards int, fused bool, transport, addrs string) (admm.ExecutorSpec, error) {
	spec, err := admm.ParseExecutor(kind)
	if err != nil {
		return spec, err
	}
	if spec.Kind == admm.ExecSharded {
		spec.Shards = shards
	}
	spec.Transport = transport
	spec.Addrs = splitAddrs(addrs)
	if len(spec.Addrs) > 0 && shards == 0 {
		spec.Shards = len(spec.Addrs)
	}
	spec.Fused = &fused
	return spec, spec.Validate()
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
		// A canceled Run still joins its reader, which can sit in a
		// blocked stdin read (e.g. an idle terminal). Dropping the
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

	stats, err := bulk.Run(ctx, os.Stdin, out, c.opts)
	if ferr := out.Flush(); err == nil {
		err = ferr
	}
	fmt.Fprintf(os.Stderr, "paradmm-bulk: %d records in, %d results out (%d errors), %d solved (%d warm-started, %d cache hits) across %d shapes, %d total iterations\n",
		stats.Lines, stats.Results, stats.Errors, stats.Solved, stats.WarmStarts, stats.CacheHits, stats.Shapes, stats.Iterations)
	if c.storeDir != "" {
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
