// Command jaaru-worker is one member of a distributed-exploration fleet: it
// claims leases from a jaaru-server coordinator, explores them with the
// ordinary checker, and commits donated splits and stats deltas
// (internal/dist).
//
// Usage:
//
//	jaaru-worker -coordinator http://host:8080 [-name w1] [-commit-every N]
//	            [-listen ADDR]
//
// Between commits the worker renews its lease every TTL/8; the TTL comes
// with each grant (jaaru-server's is 30 s). -listen serves the worker's own
// GET /metrics and GET /v1/status: its lease-claim and commit round-trip
// latencies. Benchmarks resolve locally from each lease's spec, so build the
// worker from the same tree as the server. The worker exits when the
// coordinator (-shutdown-when-done) releases the fleet, or with an error once
// the coordinator stays unreachable past the retry budget. SIGINT/SIGTERM
// drain: the current lease is released — progress committed, the remainder
// handed back for immediate requeue — and the process exits.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"jaaru/internal/benchlist"
	"jaaru/internal/dist"
	"jaaru/internal/obs"
	"jaaru/internal/telemetry"
)

func main() {
	coordinator := flag.String("coordinator", "", "coordinator base URL (required), e.g. http://host:8080")
	name := flag.String("name", "", "worker name in coordinator accounting (default: hostname-pid)")
	commitEvery := flag.Int("commit-every", 0, "scenarios between commits (0: adapt to the observed scenario rate); lower = tighter re-execution window after a crash")
	listen := flag.String("listen", "", "serve worker telemetry (GET /metrics, GET /v1/status) on this address (:0 picks an ephemeral port)")
	flag.Parse()

	if *coordinator == "" {
		fmt.Fprintln(os.Stderr, "jaaru-worker: -coordinator is required")
		os.Exit(2)
	}
	if *name == "" {
		host, _ := os.Hostname()
		*name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}

	var reg *obs.Registry
	if *listen != "" {
		reg = obs.NewRegistry(nil)
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			fmt.Fprintf(os.Stderr, "listening on %s: %v\n", *listen, err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "jaaru-worker %s: telemetry on http://%s\n", *name, ln.Addr())
		go http.Serve(ln, telemetry.RegistryMux("jaaru-worker", reg, nil))
	}

	w, err := dist.NewWorker(dist.WorkerConfig{
		Name:        *name,
		BaseURL:     *coordinator,
		Resolve:     benchlist.Resolve,
		CommitEvery: *commitEvery,
		Registry:    reg,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "jaaru-worker: draining (releasing current lease)")
		w.Drain()
	}()

	fmt.Fprintf(os.Stderr, "jaaru-worker %s: polling %s\n", *name, *coordinator)
	if err := w.Run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
