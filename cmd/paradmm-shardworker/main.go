// Command paradmm-shardworker runs one shard of a cross-process sharded
// solve: it listens on a control endpoint, accepts coordinator sessions
// (a paradmm-solve or paradmm-serve process using the executor spec
// {"kind": "sharded", "transport": "sockets", "addrs": [...]}), rebuilds
// the session's problem from the shipped workload spec, and executes
// iteration blocks — exchanging only boundary-variable state with its
// peer workers over the framed message protocol of internal/exchange.
// docs/transport.md documents the protocol; start one worker per shard:
//
//	paradmm-shardworker -listen unix:/tmp/paradmm-w0.sock &
//	paradmm-shardworker -listen unix:/tmp/paradmm-w1.sock &
//	paradmm-solve -problem mpc -size 2000 -iters 1000 -backend sharded \
//	    -transport sockets -addrs unix:/tmp/paradmm-w0.sock,unix:/tmp/paradmm-w1.sock
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/shard"
	"repro/internal/workload"
)

// config is what the command line sets.
type config struct {
	listen           string
	sessions         int
	quiet            bool
	dialTimeout      time.Duration
	handshakeTimeout time.Duration
	cacheEntries     int
	chaosKillBlock   int
}

// parseConfig parses the command line. A missing -listen, a malformed
// value, a stray argument, or a negative count or duration is an error,
// reported with the usage the way the flag package reports its own; -h
// prints the usage and returns flag.ErrHelp.
func parseConfig(args []string) (config, error) {
	var c config
	fs := flag.NewFlagSet("paradmm-shardworker", flag.ContinueOnError)
	fs.StringVar(&c.listen, "listen", "", "control endpoint: unix:/path or tcp:host:port (required)")
	fs.IntVar(&c.sessions, "sessions", 0, "exit after N coordinator sessions (0 = serve forever)")
	fs.BoolVar(&c.quiet, "quiet", false, "suppress session lifecycle logging")
	fs.DurationVar(&c.dialTimeout, "dial-timeout", 0, "bound on each mesh peer connection establishment (0 = 10s default)")
	fs.DurationVar(&c.handshakeTimeout, "handshake-timeout", 0, "bound on a new connection's whole opening frame, first byte included, and on waiting for inbound mesh peers during session setup (0 = 30s default)")
	fs.IntVar(&c.cacheEntries, "cache", 4, "problem-cache entries: built graphs (and their last state) kept between sessions, so a coordinator re-solving the same problem skips the rebuild and, from the same state, the state down-sync (0 = disabled)")
	fs.IntVar(&c.chaosKillBlock, "chaos-kill-block", -1, "fault injection: exit(2) immediately before executing the Nth iteration block of a session (-1 = disabled; for failover testing)")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: paradmm-shardworker -listen ADDR [-sessions N] [-quiet]\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	var bad error
	switch {
	case fs.NArg() > 0:
		bad = fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case c.listen == "":
		bad = errors.New("-listen is required")
	}
	// Every count and duration but the fault drill's block index (any
	// negative disables it) must not be negative.
	fs.Visit(func(f *flag.Flag) {
		var neg bool
		switch v := f.Value.(flag.Getter).Get().(type) {
		case int:
			neg = v < 0 && f.Name != "chaos-kill-block"
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

	ln, err := shard.ListenAddr(c.listen)
	if err != nil {
		fatal(err)
	}
	defer ln.Close()

	opts := shard.WorkerOptions{
		Builders:     workload.Builders(),
		MaxSessions:  c.sessions,
		DialTimeout:  c.dialTimeout,
		MeshWait:     c.handshakeTimeout,
		CacheEntries: c.cacheEntries,
	}
	if c.chaosKillBlock >= 0 {
		kill := c.chaosKillBlock
		opts.OnIterBlock = func(session uint64, block int) {
			if block == kill {
				fmt.Fprintf(os.Stderr, "paradmm-shardworker: chaos kill at block %d (session %d)\n", block, session)
				os.Exit(2)
			}
		}
	}
	if !c.quiet {
		logger := log.New(os.Stderr, "", log.LstdFlags)
		opts.Logf = logger.Printf
		logger.Printf("paradmm-shardworker: listening on %s (workloads: %s)",
			c.listen, strings.Join(workload.Names(), ", "))
	}
	if err := shard.ServeWorker(ln, opts); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "paradmm-shardworker:", err)
	os.Exit(1)
}
