// Command jaaru-server is the distributed-exploration coordinator: it serves
// the lease protocol of internal/dist to a fleet of jaaru-worker processes
// and merges each job's result.
//
// Usage:
//
//	jaaru-server [-addr :8080] [-shutdown-when-done]
//	curl -X POST localhost:8080/v1/jobs \
//	    -d '{"spec":{"bench":"figure2","buggy":true},"opts":{"Observe":true}}'
//	curl localhost:8080/v1/jobs/j1
//	jaaru top -server http://localhost:8080
//
// The same listener serves GET /metrics (Prometheus text, one series per
// job) and GET /v1/status (the JSON fleet view `jaaru top` renders). -addr :0
// binds an ephemeral port and prints the address. Benchmark names resolve
// through internal/benchlist, as in the jaaru CLI. SIGINT/SIGTERM shut the
// listener down gracefully; job state is in memory only.
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
	"jaaru/internal/dist"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	shutdownWhenDone := flag.Bool("shutdown-when-done", false, "release the worker fleet once every submitted job is done (batch mode)")
	flag.Parse()

	coord, err := dist.NewCoordinator(dist.Config{
		Resolve:          benchlist.Resolve,
		ShutdownWhenDone: *shutdownWhenDone,
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
