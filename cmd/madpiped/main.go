// Command madpiped is the MadPipe planning daemon: a long-running
// HTTP/JSON service that answers POST /v1/plan (PlanReport body) and
// POST /v1/frontier (FrontierReport body), with a fingerprint-keyed
// response memo, per-worker warm planner caches, bounded-queue
// admission control, and the observability endpoints (/metrics,
// /debug/vars, /debug/pprof) on the same listener.
//
// Response bodies are bit-identical to what direct core.PlanAllocation
// / core.PlanFrontier calls produce (whether served from the memo or
// freshly planned); the serving metadata — fingerprint, hit/miss —
// travels in X-Madpipe-* headers.
//
// Examples:
//
//	madpiped -addr :7333
//	madpiped -addr 127.0.0.1:0 -addr-file /tmp/madpiped.addr -memo-mb 16 -ttl 10m
//
// SIGINT/SIGTERM drain gracefully: in-flight requests finish (up to
// -drain), new ones are shed with 503 + Retry-After.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"madpipe/internal/obs"
	"madpipe/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", ":7333", "listen address (host:port; port 0 picks an ephemeral port)")
		addrFile = flag.String("addr-file", "", "write the bound address to this file once listening (for scripts using port 0)")
		workers  = flag.Int("workers", 2, "planning worker pool size (each worker owns a warm planner cache)")
		queue    = flag.Int("queue", 0, "admission queue depth (0 = 4x workers); overflow sheds with 429")
		timeout  = flag.Duration("timeout", 30*time.Second, "per-request planning deadline (queue wait + planning)")
		memoMB   = flag.Int("memo-mb", 64, "plan memo byte budget in MB")
		ttl      = flag.Duration("ttl", 0, "plan memo entry TTL (0 = no expiry)")
		quantum  = flag.Float64("quantum", 0, "fingerprint bucketing grid: requests whose floats quantize equal share memo entries (0 = byte-exact only)")
		parallel = flag.Int("parallel", 1, "default planner worker budget for requests that leave options.parallel unset (1 = machine-independent sequential search)")
		largePar = flag.Int("large-parallel", 0, "worker budget for large-chain requests that leave options.parallel unset (0 = off; an explicit count keeps probe schedules deterministic per daemon config); raw long-chain probes cost far more than coarsened ones, so pair with a -timeout that covers them")
		largeAt  = flag.Int("large-chain", 0, "chain length at which -large-parallel applies (0 = 1025, the first chain length the column cache does not cover)")
		drain    = flag.Duration("drain", 30*time.Second, "shutdown drain budget for in-flight requests")
		flightN  = flag.Int("flight", 64, "flight recorder capacity: last N completed requests kept for /debug/requests (plus N notable slow/shed)")
		slow     = flag.Duration("slow", 0, "mark requests at least this slow as notable in the flight recorder (0 = the SLO target)")
		sloTgt   = flag.Duration("slo-target", time.Second, "request-latency SLO target classifying serve_slo_ok / serve_slo_violations / serve_slo_errors")
	)
	flag.Parse()

	reg := obs.NewRegistry()
	reg.Publish("madpipe")
	srv := serve.NewServer(serve.Config{
		Workers:          *workers,
		QueueDepth:       *queue,
		Timeout:          *timeout,
		Quantum:          *quantum,
		Memo:             serve.MemoConfig{MaxBytes: int64(*memoMB) << 20, TTL: *ttl},
		Parallel:         *parallel,
		LargeParallel:    *largePar,
		LargeChainLayers: *largeAt,
		Registry:         reg,
		FlightN:          *flightN,
		SlowThreshold:    *slow,
		SLOTarget:        *sloTgt,
	})

	// Trap the shutdown signals before the address is announced: a
	// supervisor may send SIGTERM as soon as -addr-file appears, and
	// that must drain like any later one.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			fatal(err)
		}
	}
	httpSrv := &http.Server{Handler: srv.Mux()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	fmt.Printf("madpiped: serving /v1/plan /v1/frontier /v1/stats /healthz /metrics /debug/requests on %s (%d workers, %d MB memo)\n",
		bound, *workers, *memoMB)

	select {
	case sig := <-sigc:
		fmt.Printf("madpiped: %v, draining (budget %s)\n", sig, *drain)
	case err := <-errc:
		fatal(fmt.Errorf("serve: %w", err))
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Order matters: drain the planning layer first (new requests 503
	// while in-flight plans finish), then close the HTTP listener.
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "madpiped: drain incomplete: %v\n", err)
		_ = httpSrv.Close()
		os.Exit(1)
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "madpiped: http shutdown: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("madpiped: drained cleanly")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "madpiped:", err)
	os.Exit(1)
}
