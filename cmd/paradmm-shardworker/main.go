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
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/shard"
	"repro/internal/workload"
)

func main() {
	listen := flag.String("listen", "", "control endpoint: unix:/path or tcp:host:port (required)")
	sessions := flag.Int("sessions", 0, "exit after N coordinator sessions (0 = serve forever)")
	quiet := flag.Bool("quiet", false, "suppress session lifecycle logging")
	dialTimeout := flag.Duration("dial-timeout", 0, "bound on each mesh peer connection establishment (0 = 10s default)")
	handshakeTimeout := flag.Duration("handshake-timeout", 0, "bound on finishing a new connection's opening frame once its first byte arrives, and on waiting for inbound mesh peers during session setup (0 = 30s default)")
	cacheEntries := flag.Int("cache", 4, "warm problem-cache entries: built graphs (and their last state) kept between sessions so a coordinator re-solving the same problem skips the workload down-sync (0 = disabled)")
	chaosKillBlock := flag.Int("chaos-kill-block", -1, "fault injection: exit(2) immediately before executing the Nth iteration block of the first session (-1 = disabled; for failover testing)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: paradmm-shardworker -listen ADDR [-sessions N] [-quiet]\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *listen == "" {
		flag.Usage()
		os.Exit(2)
	}

	ln, err := shard.ListenAddr(*listen)
	if err != nil {
		fatal(err)
	}
	defer ln.Close()

	opts := shard.WorkerOptions{
		Builders:     workload.Builders(),
		MaxSessions:  *sessions,
		DialTimeout:  *dialTimeout,
		MeshWait:     *handshakeTimeout,
		CacheEntries: *cacheEntries,
	}
	if *chaosKillBlock >= 0 {
		kill := *chaosKillBlock
		opts.OnIterBlock = func(session uint64, block int) {
			if block == kill {
				fmt.Fprintf(os.Stderr, "paradmm-shardworker: chaos kill at block %d (session %d)\n", block, session)
				os.Exit(2)
			}
		}
	}
	if !*quiet {
		logger := log.New(os.Stderr, "", log.LstdFlags)
		opts.Logf = logger.Printf
		logger.Printf("paradmm-shardworker: listening on %s (workloads: %s)",
			*listen, strings.Join(workload.Names(), ", "))
	}
	if err := shard.ServeWorker(ln, opts); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "paradmm-shardworker:", err)
	os.Exit(1)
}
