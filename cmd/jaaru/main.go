// Command jaaru is the model checker's one front end. Without a subcommand it
// explores one registered benchmark (-list names them) and prints the
// exploration summary: executions, failure points, bugs, and (with -multirf)
// the loads flagged as able to read multiple stores; fig14 prints the paper's
// Figure 14 table for the fixed RECIPE structures at scale N (default 1). A
// subcommand, given as the first argument and followed by its own flags, runs
// the rest of the evaluation: bugs (Figures 12, 13 and 15), explain (a bug's
// forensics witness) and top (a live view of a telemetry endpoint).
//
// Usage:
//
//	jaaru -list
//	jaaru [-n N] fig14
//	jaaru [-buggy] [-n N] [-multirf] [-failures K] [-trace] <benchmark>
//	jaaru [-metrics] [-trace-out FILE] [-progress DUR] [-listen ADDR] <benchmark>
//	jaaru bugs [-suite pmdk|recipe|all] [-v]
//	jaaru explain [-buggy] [-n N] [-bug I] [-minimize] [-json] [-validate] [-from-trace FILE] <benchmark>
//	jaaru top -server URL [-watch DUR] [-timeout DUR]
//
// -metrics prints the observability counter block after the summary;
// -trace-out streams the JSONL event trace to a file; -progress prints a
// live scenarios/sec + ETA line to stderr while the exploration runs;
// -listen serves live GET /metrics (Prometheus text) and GET /v1/status
// (the JSON view jaaru top renders) while the run is in flight. All of them
// leave the exploration itself untouched — the counters are accumulated
// independently of the Result fields, so the two always cross-check.
package main

import (
	"bufio"
	"cmp"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"jaaru/internal/benchlist"
	"jaaru/internal/core"
	"jaaru/internal/dist"
	"jaaru/internal/profiling"
	"jaaru/internal/report"
	"jaaru/internal/telemetry"
)

// subcommands maps a first argument to its entry point, which parses the
// remaining arguments with a flag set of its own.
var subcommands = map[string]func(args []string){
	"bugs":    runBugs,
	"explain": runExplain,
	"top":     runTop,
}

func main() {
	if len(os.Args) > 1 {
		if sub := subcommands[os.Args[1]]; sub != nil {
			sub(os.Args[2:])
			return
		}
	}
	runCheck(os.Args[1:])
}

// benchFlags are the flags of the commands that explore one registered
// benchmark: the checker run itself and explain.
type benchFlags struct {
	list, buggy          *bool
	n, failures, workers *int
}

func addBenchFlags(fs *flag.FlagSet) benchFlags {
	return benchFlags{
		list:     fs.Bool("list", false, "list available benchmarks"),
		buggy:    fs.Bool("buggy", false, "run the seeded-bug variant"),
		n:        fs.Int("n", 6, "workload size (inserted keys)"),
		failures: fs.Int("failures", 1, "maximum failures per scenario"),
		workers:  fs.Int("workers", 1, "parallel exploration workers (-1 = GOMAXPROCS); results and witnesses are identical to -workers 1"),
	}
}

// benchmark returns the one positional benchmark name. Under -list, or
// without exactly one name, it prints the registry instead: it returns false
// after -list and exits 2 otherwise.
func (f benchFlags) benchmark(fs *flag.FlagSet) (string, bool) {
	if !*f.list && fs.NArg() == 1 {
		return fs.Arg(0), true
	}
	fmt.Println("benchmarks:")
	for _, b := range benchlist.All() {
		fmt.Printf("  %-15s %s\n", b.Name, b.Doc)
	}
	if !*f.list {
		os.Exit(2)
	}
	return "", false
}

// program builds the named benchmark at -n, fixed or -buggy, through the
// registry's one resolver (the fleet's too); an unknown name exits 2.
func (f benchFlags) program(name string) core.Program {
	prog, err := benchlist.Resolve(dist.ProgSpec{Bench: name, N: *f.n, Buggy: *f.buggy})
	if err != nil {
		exit(2, "%v", err)
	}
	return prog
}

// exit prints a message to stderr and exits with the given status.
func exit(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(code)
}

// runCheck explores one benchmark, or tabulates Figure 14 for fig14.
func runCheck(args []string) {
	fs := flag.NewFlagSet("jaaru", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: jaaru [flags] <benchmark>|fig14, or jaaru bugs|explain|top [flags]")
		fs.PrintDefaults()
	}
	bf := addBenchFlags(fs)
	multirf := fs.Bool("multirf", false, "flag loads that can read multiple stores")
	perf := fs.Bool("perfissues", false, "flag redundant flushes and fences")
	random := fs.Bool("random", false, "use the seeded random thread scheduler")
	seed := fs.Int64("seed", 0, "seed for the -random scheduler")
	trace := fs.Bool("trace", false, "replay each bug and print its last 128 operations")
	metrics := fs.Bool("metrics", false, "collect and print the observability counter block")
	traceOut := fs.String("trace-out", "", "write the JSONL event trace to this file (implies -metrics)")
	progress := fs.Duration("progress", 0, "print a live progress line to stderr at this interval (implies -metrics)")
	listen := fs.String("listen", "", "serve live GET /metrics and GET /v1/status on this address while the exploration runs (implies -metrics; :0 picks an ephemeral port)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write an allocation profile to this file on exit")
	fs.Parse(args)

	stopProfiles := profiling.Start(*cpuprofile, *memprofile)
	defer stopProfiles()

	name, ok := bf.benchmark(fs)
	if !ok {
		return
	}
	if name == "fig14" {
		if *bf.buggy {
			exit(2, "fig14 tabulates the fixed RECIPE programs; -buggy does not apply")
		}
		scale := 1
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "n" {
				scale = *bf.n
			}
		})
		if err := fig14(scale); err != nil {
			stopProfiles()
			exit(1, "%v", err)
		}
		return
	}
	prog := bf.program(name)

	opts := core.Options{
		MaxFailures:     *bf.failures,
		FlagMultiRF:     *multirf,
		FlagPerfIssues:  *perf,
		RandomScheduler: *random,
		Seed:            *seed,
		Workers:         *bf.workers,
	}
	opts.Observe = *metrics || *progress > 0 || *listen != ""

	flushTrace := func() error { return nil }
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			exit(2, "creating %s: %v", *traceOut, err)
		}
		buf := bufio.NewWriter(f)
		opts.EventTrace = buf
		flushTrace = func() error { return cmp.Or(buf.Flush(), f.Close()) }
	}

	ck := core.New(prog, opts)

	if *listen != "" {
		reg := ck.Observability()
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			exit(2, "listening on %s: %v", *listen, err)
		}
		fmt.Fprintf(os.Stderr, "jaaru: telemetry on http://%s\n", ln.Addr())
		go http.Serve(ln, telemetry.RegistryMux("jaaru", reg, func() []telemetry.JobStatus {
			return []telemetry.JobStatus{telemetry.RegistryJob(name, reg)}
		}))
	}

	stopProgress := func() {}
	if *progress > 0 {
		reg, tick, done := ck.Observability(), time.NewTicker(*progress), make(chan struct{})
		go func() {
			for {
				select {
				case <-done:
					return
				case <-tick.C:
					fmt.Fprintln(os.Stderr, reg.Progress())
				}
			}
		}()
		stopProgress = func() { tick.Stop(); close(done) }
	}

	res := ck.Run()
	stopProgress()
	if err := cmp.Or(flushTrace(), ck.Observability().Err()); err != nil {
		exit(2, "writing %s: %v", *traceOut, err)
	}

	fmt.Printf("\n%s: %d executions, %d scenarios, %d failure points, %d steps, %v\n",
		res.Program, res.Executions, res.Scenarios, res.FailurePoints, res.Steps,
		res.Duration.Round(1e6))
	fmt.Printf("choice points: %d failure decisions, %d read-from (max %d candidates)\n",
		res.FailDecisionPoints, res.RFChoicePoints, res.MaxRFCandidates)
	if !res.Complete {
		fmt.Println("exploration truncated (caps reached)")
	}
	if res.Buggy() {
		fmt.Printf("\n%d distinct bug(s):\n", len(res.Bugs))
		for _, b := range res.Bugs {
			fmt.Printf("  %v\n    choices: %s\n", b, b.Choices)
			if *trace {
				for _, op := range b.Trace(128) {
					fmt.Printf("      %v\n", op)
				}
			}
		}
	} else {
		fmt.Println("no bugs found")
	}
	for _, m := range res.MultiRF {
		fmt.Printf("multi-rf %v\n", m)
	}
	for _, p := range res.PerfIssues {
		fmt.Printf("perf %v\n", p)
	}
	if res.Metrics != nil {
		fmt.Println()
		fmt.Print(report.Metrics(res.Metrics))
	}
	if res.Buggy() {
		stopProfiles() // os.Exit skips the deferred stop
		os.Exit(1)
	}
}
