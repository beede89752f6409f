// Command autotuned is the tuning-as-a-service daemon: it hosts many
// concurrent studies over JSON HTTP endpoints, persists every
// acknowledged observation through the crash-safe study store before
// responding, and drains gracefully on SIGTERM/SIGINT (stop admitting,
// finish in-flight requests, seal the study log, exit 0).
//
// Usage:
//
//	autotuned -store /var/lib/autotuned [-addr 127.0.0.1:8153]
//
// Endpoints:
//
//	POST /v1/studies                     create a study (idempotent)
//	GET  /v1/studies                     list studies
//	POST /v1/studies/{study}/suggest     propose trial configurations
//	POST /v1/studies/{study}/observe     report results (exactly-once)
//	GET  /v1/studies/{study}/best        incumbent configuration
//	GET  /v1/studies/{study}/pareto      non-dominated front
//	GET  /v1/studies/{study}/trials      durable history
//	GET  /healthz /readyz /metrics       probes and counters
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"autotune/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8153", "listen address (host:port; port 0 picks a free port)")
		store        = flag.String("store", "", "study store directory (required; created if absent)")
		segmentBytes = flag.Int64("segment-bytes", 0, "store segment rotation threshold (0 = store default)")
		admission    = flag.Int("admission", 64, "max concurrent suggest requests before shedding with 429")
		highWater    = flag.Int("ready-high-water", 0, "suggest occupancy at which /readyz fails (0 = 3/4 of -admission)")
		reqTimeout   = flag.Duration("request-timeout", 30*time.Second, "per-request deadline")
		drainTimeout = flag.Duration("drain-timeout", time.Minute, "max time to finish in-flight requests on shutdown")
		optimizer    = flag.String("optimizer", "bo", "default strategy for studies that do not name one")
		shards       = flag.Int("shards", 0, "study shard count (0 = GOMAXPROCS); studies on different shards never contend on one lock")
		shardStores  = flag.Bool("shard-stores", false, "give every shard its own store directory under -store (independent commit queues)")
		quiet        = flag.Bool("quiet", false, "suppress operational logging")
	)
	flag.Parse()
	if *store == "" {
		fmt.Fprintln(os.Stderr, "autotuned: -store is required")
		flag.Usage()
		os.Exit(2)
	}
	logger := log.New(os.Stderr, "autotuned ", log.LstdFlags)
	if *quiet {
		logger = nil
	}
	srv, err := server.New(server.Options{
		StoreDir:         *store,
		SegmentBytes:     *segmentBytes,
		AdmissionLimit:   *admission,
		ReadyHighWater:   *highWater,
		RequestTimeout:   *reqTimeout,
		DrainTimeout:     *drainTimeout,
		DefaultOptimizer: *optimizer,
		Shards:           *shards,
		ShardStores:      *shardStores,
		Log:              logger,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "autotuned: %v\n", err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	// The "listening on" line is the readiness handshake for scripts and
	// tests: it is printed to stdout only after the port is bound.
	err = srv.ListenAndServe(ctx, *addr, func(a net.Addr) {
		fmt.Printf("autotuned listening on %s\n", a)
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "autotuned: %v\n", err)
		os.Exit(1)
	}
}
