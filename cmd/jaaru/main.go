// Command jaaru runs the model checker over any registered benchmark and
// prints the exploration summary: executions, failure points, bugs, and
// (with -multirf) the loads flagged as able to read multiple stores.
//
// Usage:
//
//	jaaru -list
//	jaaru [-n N] fig14
//	jaaru [-buggy] [-n N] [-multirf] [-failures K] [-trace] <benchmark>
//	jaaru [-metrics] [-trace-out FILE] [-progress DUR] [-listen ADDR] <benchmark>
//
// Benchmarks: the six RECIPE structures (cceh, fastfair, part, bwtree,
// clht, masstree), the five PMDK examples (btree, ctree, rbtree,
// hashmap_atomic, hashmap_tx), and the paper's running examples (figure2,
// figure4, commitstore). fig14 prints the paper's Figure 14 table for the
// fixed RECIPE structures at scale N (default 1).
//
// -metrics prints the observability counter block after the summary;
// -trace-out streams the JSONL event trace to a file; -progress prints a
// live scenarios/sec + ETA line to stderr while the exploration runs;
// -listen serves live GET /metrics (Prometheus text) and GET /v1/status
// (the JSON view jaaru-top renders) while the run is in flight. All of them
// leave the exploration itself untouched — the counters are accumulated
// independently of the Result fields, so the two always cross-check.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"jaaru/internal/benchlist"
	"jaaru/internal/core"
	"jaaru/internal/obs"
	"jaaru/internal/profiling"
	"jaaru/internal/report"
	"jaaru/internal/telemetry"
)

func main() {
	list := flag.Bool("list", false, "list available benchmarks")
	buggy := flag.Bool("buggy", false, "run the seeded-bug variant")
	n := flag.Int("n", 6, "workload size (inserted keys)")
	failures := flag.Int("failures", 1, "maximum failures per scenario")
	multirf := flag.Bool("multirf", false, "flag loads that can read multiple stores")
	perf := flag.Bool("perfissues", false, "flag redundant flushes and fences")
	random := flag.Bool("random", false, "use the seeded random thread scheduler")
	seed := flag.Int64("seed", 0, "seed for -random and the EvictRandom policy")
	trace := flag.Bool("trace", false, "replay each bug and print its last 128 operations")
	witness := flag.Bool("witness", false, "replay the first bug and print its annotated forensics witness (see also jaaru-explain)")
	workers := flag.Int("workers", 1, "parallel exploration workers (-1 = GOMAXPROCS); results are identical to -workers 1")
	metrics := flag.Bool("metrics", false, "collect and print the observability counter block")
	traceOut := flag.String("trace-out", "", "write the JSONL event trace to this file (implies -metrics)")
	progress := flag.Duration("progress", 0, "print a live progress line to stderr at this interval (implies -metrics)")
	listen := flag.String("listen", "", "serve live GET /metrics and GET /v1/status on this address while the exploration runs (implies -metrics; :0 picks an ephemeral port)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	flag.Parse()

	stopProfiles := profiling.Start(*cpuprofile, *memprofile)
	defer stopProfiles()

	bms := benchlist.All()
	if *list || flag.NArg() != 1 {
		fmt.Println("benchmarks:")
		for _, b := range bms {
			fmt.Printf("  %-15s %s\n", b.Name, b.Doc)
		}
		if !*list {
			os.Exit(2)
		}
		return
	}

	name := flag.Arg(0)
	if name == "fig14" {
		if *buggy {
			fmt.Fprintln(os.Stderr, "fig14 tabulates the fixed RECIPE programs; -buggy does not apply")
			os.Exit(2)
		}
		scale := 1
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "n" {
				scale = *n
			}
		})
		if err := fig14(scale); err != nil {
			stopProfiles()
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	chosen := benchlist.Find(name)
	if chosen == nil {
		fmt.Fprintf(os.Stderr, "unknown benchmark %q (try -list)\n", name)
		os.Exit(2)
	}

	opts := core.Options{
		MaxFailures:     *failures,
		FlagMultiRF:     *multirf,
		FlagPerfIssues:  *perf,
		RandomScheduler: *random,
		Seed:            *seed,
		Workers:         *workers,
	}
	opts.Observe = *metrics || *progress > 0 || *listen != ""

	var traceFile *os.File
	var traceBuf *bufio.Writer
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "creating %s: %v\n", *traceOut, err)
			os.Exit(2)
		}
		traceFile = f
		traceBuf = bufio.NewWriter(f)
		opts.EventTrace = traceBuf
	}

	prog := chosen.Build(*n, *buggy)
	ck := core.New(prog, opts)

	if *listen != "" {
		reg := ck.Observability()
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			fmt.Fprintf(os.Stderr, "listening on %s: %v\n", *listen, err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "jaaru: telemetry on http://%s\n", ln.Addr())
		go http.Serve(ln, telemetry.RegistryMux("jaaru", reg, func() []telemetry.JobStatus {
			return []telemetry.JobStatus{telemetry.RegistryJob(name, reg)}
		}))
	}

	var stopProgress chan struct{}
	if *progress > 0 {
		reg := ck.Observability()
		stopProgress = make(chan struct{})
		go func() {
			tick := time.NewTicker(*progress)
			defer tick.Stop()
			for {
				select {
				case <-stopProgress:
					return
				case <-tick.C:
					fmt.Fprintln(os.Stderr, reg.Progress())
				}
			}
		}()
	}

	res := ck.Run()
	if stopProgress != nil {
		close(stopProgress)
	}
	if traceBuf != nil {
		err := traceBuf.Flush()
		if cerr := traceFile.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = ck.Observability().Err()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *traceOut, err)
			os.Exit(2)
		}
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
		fmt.Print(metricsBlock(res.Metrics))
	}
	if *witness && res.Buggy() {
		fmt.Println()
		fmt.Print(report.WitnessText(core.BuildWitness(prog, opts, res.Bugs[0])))
	}
	if res.Buggy() {
		stopProfiles() // os.Exit skips the deferred stop
		os.Exit(1)
	}
}

// metricsBlock renders the merged observability counters as the two-column
// block the summary prints under -metrics.
func metricsBlock(m *obs.Metrics) string {
	dur := func(ns int64) string {
		return time.Duration(ns).Round(time.Microsecond).String()
	}
	kvs := []report.KV{
		{Key: "scenarios", Value: m.Scenarios},
		{Key: "executions", Value: m.Executions},
		{Key: "post-failure executions", Value: m.ExecutionsPost},
		{Key: "guest steps", Value: m.Steps},
		{Key: "pre-failure time", Value: dur(m.PreFailureNs)},
		{Key: "post-failure time", Value: dur(m.PostFailureNs)},
		{Key: "replay time", Value: dur(m.ReplayNs)},
		{Key: "loads: store-buffer hits", Value: m.LoadSBHits},
		{Key: "loads: cache hits", Value: m.LoadCacheHits},
		{Key: "loads: refinements", Value: m.LoadRefinements},
		{Key: "rf candidates (total)", Value: m.RFCandidates},
		{Key: "rf candidates (max)", Value: m.MaxRFCandidates},
		{Key: "choices replayed", Value: m.ChoicesReplayed},
		{Key: "choices restored", Value: m.ChoicesRestored},
		{Key: "choices fresh", Value: m.ChoicesFresh},
		{Key: "replayed guest steps", Value: m.ReplaySteps},
		{Key: "choice depth (max)", Value: m.MaxChoiceDepth},
		{Key: "store-buffer evictions", Value: m.SBEvictions},
		{Key: "flush-buffer writebacks", Value: m.FBWritebacks},
		{Key: "store-buffer occupancy (max)", Value: m.MaxSBOccupancy},
		{Key: "flush-buffer occupancy (max)", Value: m.MaxFBOccupancy},
	}
	if m.SnapshotCaptures > 0 {
		kvs = append(kvs,
			report.KV{Key: "snapshots captured", Value: m.SnapshotCaptures},
			report.KV{Key: "snapshots restored", Value: m.SnapshotRestores},
			report.KV{Key: "snapshot restore time", Value: dur(m.SnapshotRestoreNs)},
			report.KV{Key: "snapshot bytes (max)", Value: m.MaxSnapshotBytes})
	}
	if m.ChoiceSnapCaptures > 0 {
		kvs = append(kvs,
			report.KV{Key: "choice snapshots captured", Value: m.ChoiceSnapCaptures},
			report.KV{Key: "choice snapshots restored", Value: m.ChoiceRestores},
			report.KV{Key: "choice restore time", Value: dur(m.ChoiceRestoreNs)},
			report.KV{Key: "replay steps saved", Value: m.ReplayStepsSaved},
			report.KV{Key: "refinements skipped", Value: m.RefinementsSkipped})
	}
	if m.RFElisions > 0 || m.FingerprintHits > 0 || m.FingerprintMisses > 0 {
		kvs = append(kvs,
			report.KV{Key: "rf elisions", Value: m.RFElisions},
			report.KV{Key: "scenarios pruned", Value: m.ScenariosPruned},
			report.KV{Key: "fingerprint hits", Value: m.FingerprintHits},
			report.KV{Key: "fingerprint misses", Value: m.FingerprintMisses})
	}
	if m.Workers > 1 {
		kvs = append(kvs,
			report.KV{Key: "workers", Value: m.Workers},
			report.KV{Key: "frontier pushed", Value: m.FrontierPushed},
			report.KV{Key: "frontier claimed", Value: m.FrontierClaimed},
			report.KV{Key: "donations", Value: m.Donations},
			report.KV{Key: "frontier length (max)", Value: m.MaxFrontierLen})
	}
	if m.Events > 0 {
		kvs = append(kvs, report.KV{Key: "trace events", Value: m.Events})
	}
	return report.KVBlock("observability", kvs)
}
