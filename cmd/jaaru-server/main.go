// Command jaaru-server is the distributed-exploration coordinator: it owns
// the global branch frontier, the shared caps, and the POR publication log
// for every submitted job, and serves the lease protocol (internal/dist)
// over HTTP to a fleet of jaaru-worker processes.
//
// Usage:
//
//	jaaru-server [-addr :8080] [-shutdown-when-done] [-disable-wire-v2]
//
// Submit work and poll results through the job API:
//
//	curl -X POST localhost:8080/v1/jobs \
//	    -d '{"spec":{"bench":"figure2","buggy":true},"opts":{"Observe":true}}'
//	curl localhost:8080/v1/jobs/j1
//
// Fleet telemetry is served from the same listener: GET /metrics is a
// Prometheus-text scrape (one labeled series per job, including live
// phase-latency histograms), and GET /v1/status is the JSON fleet view
// jaaru-top renders (per-job scenarios/sec, frontier depth, active leases,
// latency quantiles, ETA). -addr :0 binds an ephemeral port and prints the
// actual address, which is what the scrape smoke test drives.
//
// Jobs resolve benchmark names through internal/benchlist, the same registry
// the jaaru CLI uses; workers resolve the identical spec on their side, so
// no guest code ever crosses the wire. A complete distributed run returns a
// Result bit-identical to `jaaru -workers 1` on the same benchmark —
// including runs where workers died mid-lease (their subtrees are requeued
// on lease expiry and re-executed exactly).
//
// SIGINT/SIGTERM shut the listener down gracefully: in-flight requests
// finish, then the process exits. Job state is in-memory only.
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

	"jaaru/internal/benchlist"
	"jaaru/internal/core"
	"jaaru/internal/dist"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	shutdownWhenDone := flag.Bool("shutdown-when-done", false, "release the worker fleet once every submitted job is done (batch mode)")
	disableWireV2 := flag.Bool("disable-wire-v2", false, "answer every worker in JSON v1 (debugging/rollback; v2 frames are still accepted)")
	flag.Parse()

	coord, err := dist.NewCoordinator(dist.Config{
		Resolve:          resolve,
		ShutdownWhenDone: *shutdownWhenDone,
		DisableWireV2:    *disableWireV2,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// Listen explicitly (rather than ListenAndServe) so an ephemeral-port
	// bind (-addr :0) can report the address a scraper should target.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	srv := &http.Server{Handler: coord}
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		fmt.Fprintln(os.Stderr, "jaaru-server: shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	fmt.Fprintf(os.Stderr, "jaaru-server: listening on %s\n", ln.Addr())
	if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	<-done
}

func resolve(spec dist.ProgSpec) (core.Program, error) {
	b := benchlist.Find(spec.Bench)
	if b == nil {
		return core.Program{}, fmt.Errorf("unknown benchmark %q (see jaaru -list)", spec.Bench)
	}
	n := spec.N
	if n == 0 {
		n = 6
	}
	return b.Build(n, spec.Buggy), nil
}
