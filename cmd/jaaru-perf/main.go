// Command jaaru-perf regenerates the paper's Figure 14: for each fixed
// RECIPE benchmark, the number of executions Jaaru explores (JExec.), the
// wall-clock exploration time (JTime), the number of failure injection
// points (FPoints), and the number of post-failure states an eager model
// checker such as Yat would have to explore — computed analytically with
// big-integer arithmetic, exactly as the paper did (Yat is not publicly
// available).
//
// With -parallel, it instead benchmarks the parallel exploration driver:
// every Figure 14 workload is explored serially and with -workers worker
// checkers, the results are cross-checked for equivalence (Result fields
// and the canonical observability counters of an instrumented pair), and
// the measurements — including each workload's machine-readable metrics
// block — are written as JSON (BENCH_parallel.json) for CI tracking.
//
// With -snapshots, it instead benchmarks the snapshot stack against the
// full-replay reference (Options.Snapshots = -1): every Figure 14 workload
// (plus a scaled commit-store program) is explored both ways, the two runs
// are cross-checked for bit-identical results (Result fields and the
// canonical observability counters), and the measurements — total and
// pre-failure time, restore counts, hit ratio — are written as JSON
// (BENCH_snapshot.json).
//
// With -memlayout, it instead measures the serial exploration cost of every
// Figure 14 workload (plus the scaled commit-store program): wall clock,
// heap allocations per execution, and bytes per execution, written as JSON
// (BENCH_memlayout.json). With -baseline OLD.json (a -memlayout report from
// a previous revision), each row also carries the allocation reduction and
// speedup, and exploration results are cross-checked against the baseline:
// any difference in executions, scenarios, failure points, steps, or bugs
// fails the run — memory-layout work must not change what is explored.
//
// With -por, it instead benchmarks the partial-order reduction layer: every
// Figure 14 workload (plus the scaled commit-store program and the
// update-heavy RECIPE workloads) is explored with pruning disabled and
// enabled, the two runs are cross-checked for identical behaviours (bug
// sets, failure points, completion), and the scenario counts — unpruned,
// logical, physical — are written as JSON (BENCH_por.json).
//
// With -dist, it instead benchmarks the distributed exploration service: every
// Figure 14 workload is explored serially and through a coordinator plus
// -workers worker processes running in-process over the netsim fabric (full
// wire codec, lease/commit protocol, and merge — only real network latency is
// excluded). An instrumented pair — with one worker killed mid-lease so its
// subtree is requeued on TTL expiry — is cross-checked for bit-identical
// results, and the measurements plus the coordinator's RPC, lease, and requeue
// counts are written as JSON (BENCH_dist.json).
//
// Every BENCH mode embeds the machine-readable observability metrics block of
// an instrumented run in each row, so CI can track any counter over time, and
// -check is the comparator those reports feed: it diffs a freshly generated
// BENCH_*.json against the committed baseline (-baseline) and fails on any
// row with match=false, any row lost from the baseline, or any wall-clock
// field that regressed beyond -tolerance (default 20%) — `make bench-check`
// runs it for every mode.
//
// -cpuprofile and -memprofile write pprof profiles of whichever mode ran.
//
// Usage:
//
//	jaaru-perf [-scale N]
//	jaaru-perf -parallel BENCH_parallel.json [-workers N] [-reps R] [-scale N]
//	jaaru-perf -snapshots BENCH_snapshot.json [-reps R] [-scale N]
//	jaaru-perf -memlayout BENCH_memlayout.json [-baseline OLD.json] [-reps R] [-scale N]
//	jaaru-perf -por BENCH_por.json [-reps R] [-scale N]
//	jaaru-perf -dist BENCH_dist.json [-workers N] [-reps R] [-scale N]
//	jaaru-perf -check FRESH.json -baseline COMMITTED.json [-tolerance F]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"jaaru/internal/core"
	"jaaru/internal/obs"
	"jaaru/internal/profiling"
	"jaaru/internal/recipe"
	"jaaru/internal/yat"
)

// parallelBench is one benchmark row of the -parallel report.
type parallelBench struct {
	Name       string  `json:"name"`
	Executions int     `json:"executions"`
	Scenarios  int     `json:"scenarios"`
	SerialNs   int64   `json:"serial_ns"`
	ParallelNs int64   `json:"parallel_ns"`
	Speedup    float64 `json:"speedup"`
	ExecsPerS  float64 `json:"execs_per_sec"`
	// Match records the satellite equivalence check: the parallel run
	// produced the identical exploration (executions, scenarios, failure
	// points, bug count) as the serial reference, and an instrumented
	// serial/parallel pair agreed on every canonical observability counter.
	Match bool `json:"match"`
	// Metrics is the observability snapshot of the instrumented parallel
	// run — the machine-readable counter block for CI tracking. The timed
	// reps above run uninstrumented; this extra pair only feeds Match and
	// this field.
	Metrics *obs.Metrics `json:"metrics,omitempty"`
}

type parallelReport struct {
	Workers    int             `json:"workers"`
	Scale      int             `json:"scale"`
	Reps       int             `json:"reps"`
	NumCPU     int             `json:"num_cpu"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	Note       string          `json:"note"`
	Benchmarks []parallelBench `json:"benchmarks"`
}

// runParallelBench measures every Figure 14 workload serially and with the
// requested worker count (best of reps), cross-checks equivalence, and
// writes the JSON report.
func runParallelBench(path string, workers, reps, scale int) {
	rep := parallelReport{
		Workers:    workers,
		Scale:      scale,
		Reps:       reps,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Note: "speedup tracks min(workers, num_cpu); on a single-CPU host " +
			"workers time-slice one core and speedup ~1.0 measures driver overhead",
	}
	fmt.Printf("Parallel exploration: serial vs %d workers (best of %d, %d CPU)\n",
		workers, reps, rep.NumCPU)
	fmt.Printf("%-12s  %7s  %10s  %10s  %8s  %6s\n",
		"Benchmark", "#JExec.", "Serial", "Parallel", "Speedup", "Match")
	fmt.Println("------------------------------------------------------------------")

	for _, prog := range recipe.PerfWorkloads(scale) {
		var serial, par time.Duration
		var rs, rp *core.Result
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			rs = core.New(prog, core.Options{}).Run()
			if d := time.Since(t0); r == 0 || d < serial {
				serial = d
			}
			t0 = time.Now()
			rp = core.New(prog, core.Options{Workers: workers}).Run()
			if d := time.Since(t0); r == 0 || d < par {
				par = d
			}
		}
		obsSerial := core.New(prog, core.Options{Observe: true}).Run()
		obsPar := core.New(prog, core.Options{Workers: workers, Observe: true}).Run()
		match := rs.Executions == rp.Executions &&
			rs.Scenarios == rp.Scenarios &&
			rs.FailurePoints == rp.FailurePoints &&
			len(rs.Bugs) == len(rp.Bugs) &&
			obsSerial.Metrics.Canonical() == obsPar.Metrics.Canonical()
		b := parallelBench{
			Name:       trimName(prog.Name),
			Executions: rp.Executions,
			Scenarios:  rp.Scenarios,
			SerialNs:   serial.Nanoseconds(),
			ParallelNs: par.Nanoseconds(),
			Speedup:    float64(serial) / float64(par),
			ExecsPerS:  float64(rp.Executions) / par.Seconds(),
			Match:      match,
			Metrics:    obsPar.Metrics,
		}
		rep.Benchmarks = append(rep.Benchmarks, b)
		fmt.Printf("%-12s  %7d  %10s  %10s  %7.2fx  %6v\n",
			b.Name, b.Executions, serial.Round(1e5), par.Round(1e5), b.Speedup, match)
		if !match {
			fmt.Fprintf(os.Stderr, "%s: parallel exploration diverged from serial\n", prog.Name)
			os.Exit(1)
		}
	}

	out, err := json.MarshalIndent(&rep, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(out, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "writing %s: %v\n", path, err)
		os.Exit(1)
	}
	fmt.Printf("\nwrote %s\n", path)
}

// snapshotBench is one benchmark row of the -snapshots report.
type snapshotBench struct {
	Name       string `json:"name"`
	Executions int    `json:"executions"`
	Scenarios  int    `json:"scenarios"`
	// OffNs/OnNs are the best-of-reps wall-clock exploration times with the
	// snapshot engine disabled and enabled; Reduction = 1 - on/off.
	OffNs     int64   `json:"off_ns"`
	OnNs      int64   `json:"on_ns"`
	Reduction float64 `json:"reduction"`
	// PreFailureOffNs/PreFailureOnNs show where the savings come from: the
	// time spent (re-)executing guest pre-failure segments, from an
	// instrumented pair (not the timed reps).
	PreFailureOffNs int64 `json:"pre_failure_off_ns"`
	PreFailureOnNs  int64 `json:"pre_failure_on_ns"`
	// SnapshotRestores counts scenarios resumed from a captured state;
	// SnapshotHitRatio is restores / scenarios.
	SnapshotRestores int64   `json:"snapshot_restores"`
	SnapshotHitRatio float64 `json:"snapshot_hit_ratio"`
	// Match records the equivalence check: the engine-on run produced a
	// bit-identical exploration (Result fields and canonical observability
	// counters) to the engine-off reference.
	Match bool `json:"match"`
	// Metrics is the observability snapshot of the instrumented engine-on
	// run, for CI tracking.
	Metrics *obs.Metrics `json:"metrics,omitempty"`
}

type snapshotReport struct {
	Scale      int             `json:"scale"`
	Reps       int             `json:"reps"`
	NumCPU     int             `json:"num_cpu"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	Note       string          `json:"note"`
	Benchmarks []snapshotBench `json:"benchmarks"`
}

// commitstoreProgram is a scaled commit-store workload (the paper's §3.2
// pattern): n flushed records committed by a final pointer store, with a
// recovery that validates whatever the commit pointer claims. Pre-failure
// work grows with n, which is exactly what the snapshot engine amortizes.
func commitstoreProgram(n int) core.Program {
	return core.Program{
		Name: "commitstore",
		Run: func(c *core.Context) {
			root := c.Root()
			data := c.AllocLine(uint64(8 * n))
			for i := 0; i < n; i++ {
				c.Store64(data.Add(uint64(8*i)), uint64(0xDA7A+i))
				c.Clflush(data.Add(uint64(8*i)), 8)
				c.Sfence()
			}
			c.StorePtr(root, data)
			c.Clflush(root, 8)
		},
		Recover: func(c *core.Context) {
			data := c.LoadPtr(c.Root())
			if data == 0 {
				return
			}
			for i := 0; i < n; i++ {
				c.Assert(c.Load64(data.Add(uint64(8*i))) == uint64(0xDA7A+i),
					"committed record %d lost its data", i)
			}
		},
	}
}

// snapshotWorkloads is the -snapshots benchmark set: the Figure 14 table
// plus the scaled commit-store program.
func snapshotWorkloads(scale int) []core.Program {
	progs := recipe.PerfWorkloads(scale)
	return append(progs, commitstoreProgram(24*scale))
}

// resultsEqual cross-checks the exploration-level Result fields the two
// configurations must agree on bit-for-bit.
func resultsEqual(a, b *core.Result) bool {
	return a.Executions == b.Executions &&
		a.Scenarios == b.Scenarios &&
		a.FailurePoints == b.FailurePoints &&
		a.Steps == b.Steps &&
		a.RFChoicePoints == b.RFChoicePoints &&
		a.FailDecisionPoints == b.FailDecisionPoints &&
		a.MaxRFCandidates == b.MaxRFCandidates &&
		a.Complete == b.Complete &&
		len(a.Bugs) == len(b.Bugs)
}

// runSnapshotBench measures every workload with the snapshot engine off and
// on (best of reps), cross-checks equivalence, and writes the JSON report.
func runSnapshotBench(path string, reps, scale int) {
	rep := snapshotReport{
		Scale:      scale,
		Reps:       reps,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Note: "reduction = 1 - on/off total exploration time; the engine removes " +
			"repeated pre-failure (and recovery-prefix) guest execution, so the " +
			"bound is the workload's pre_failure_off_ns share",
	}
	fmt.Printf("Snapshot engine: exploration time under full replay (Snapshots=-1) vs default (best of %d)\n", reps)
	fmt.Printf("%-12s  %7s  %10s  %10s  %9s  %8s  %6s\n",
		"Benchmark", "#JExec.", "Off", "On", "Reduction", "Restores", "Match")
	fmt.Println("---------------------------------------------------------------------------")

	for _, prog := range snapshotWorkloads(scale) {
		var off, on time.Duration
		var roff, ron *core.Result
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			roff = core.New(prog, core.Options{Snapshots: -1}).Run()
			if d := time.Since(t0); r == 0 || d < off {
				off = d
			}
			t0 = time.Now()
			ron = core.New(prog, core.Options{}).Run()
			if d := time.Since(t0); r == 0 || d < on {
				on = d
			}
		}
		obsOff := core.New(prog, core.Options{Snapshots: -1, Observe: true}).Run()
		obsOn := core.New(prog, core.Options{Observe: true}).Run()
		match := resultsEqual(roff, ron) && resultsEqual(obsOff, obsOn) &&
			obsOff.Metrics.Canonical() == obsOn.Metrics.Canonical()
		b := snapshotBench{
			Name:             trimName(prog.Name),
			Executions:       ron.Executions,
			Scenarios:        ron.Scenarios,
			OffNs:            off.Nanoseconds(),
			OnNs:             on.Nanoseconds(),
			Reduction:        1 - float64(on)/float64(off),
			PreFailureOffNs:  obsOff.Metrics.PreFailureNs,
			PreFailureOnNs:   obsOn.Metrics.PreFailureNs,
			SnapshotRestores: obsOn.Metrics.SnapshotRestores,
			SnapshotHitRatio: float64(obsOn.Metrics.SnapshotRestores) / float64(max(ron.Scenarios, 1)),
			Match:            match,
			Metrics:          obsOn.Metrics,
		}
		rep.Benchmarks = append(rep.Benchmarks, b)
		fmt.Printf("%-12s  %7d  %10s  %10s  %8.1f%%  %8d  %6v\n",
			b.Name, b.Executions, off.Round(1e5), on.Round(1e5),
			100*b.Reduction, b.SnapshotRestores, match)
		if !match {
			fmt.Fprintf(os.Stderr, "%s: snapshot-engine run diverged from reference\n", prog.Name)
			os.Exit(1)
		}
	}

	out, err := json.MarshalIndent(&rep, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(out, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "writing %s: %v\n", path, err)
		os.Exit(1)
	}
	fmt.Printf("\nwrote %s\n", path)
}

// porBench is one benchmark row of the -por report.
type porBench struct {
	Name string `json:"name"`
	// ScenariosUnpruned is the scenario count with the pruning layer
	// disabled (-por=false); ScenariosLogical is the pruned run's "as if
	// unpruned" accounting (the two agree when pruning is exact);
	// ScenariosPruned counts the scenarios the pruned run never physically
	// ran, so ScenariosPhysical = logical − pruned and Reduction =
	// unpruned / physical.
	ScenariosUnpruned int     `json:"scenarios_unpruned"`
	ScenariosLogical  int     `json:"scenarios_logical"`
	ScenariosPruned   int64   `json:"scenarios_pruned"`
	ScenariosPhysical int64   `json:"scenarios_physical"`
	Reduction         float64 `json:"reduction"`
	// OffNs/TotalTimeNs are the best-of-reps wall-clock exploration times
	// with pruning disabled and enabled.
	OffNs             int64 `json:"off_ns"`
	TotalTimeNs       int64 `json:"total_time_ns"`
	RFElisions        int64 `json:"rf_elisions"`
	FingerprintHits   int64 `json:"fingerprint_hits"`
	FingerprintMisses int64 `json:"fingerprint_misses"`
	// Match records the equivalence check: identical bug sets (by type and
	// message), failure-point counts, and completion status — the pruned
	// run reaches exactly the unpruned run's behaviours.
	Match bool `json:"match"`
	// Metrics is the observability snapshot of the instrumented pruned run,
	// for CI tracking.
	Metrics *obs.Metrics `json:"metrics,omitempty"`
}

type porReport struct {
	Scale      int        `json:"scale"`
	Reps       int        `json:"reps"`
	NumCPU     int        `json:"num_cpu"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	Note       string     `json:"note"`
	Benchmarks []porBench `json:"benchmarks"`
}

// bugKeysEqual compares two bug lists as sets of (type, message) keys —
// the bug-identity rule the checker's own dedup uses.
func bugKeysEqual(a, b []*core.BugReport) bool {
	if len(a) != len(b) {
		return false
	}
	keys := make(map[string]int, len(a))
	for _, r := range a {
		keys[r.Type.String()+"|"+r.Message]++
	}
	for _, r := range b {
		k := r.Type.String() + "|" + r.Message
		if keys[k] == 0 {
			return false
		}
		keys[k]--
	}
	return true
}

// porWorkloads is the -por benchmark set: the Figure 14 table, the scaled
// commit-store program, and the update-heavy RECIPE workloads whose
// recurring states the fingerprint layer prunes.
func porWorkloads(scale int) []core.Program {
	return append(snapshotWorkloads(scale), recipe.UpdateWorkloads(scale)...)
}

// runPORBench measures every workload with the pruning layer off and on
// (best of reps, serial — scenario counts must be machine-independent),
// cross-checks behaviour equivalence, and writes the JSON report.
func runPORBench(path string, reps, scale int) {
	rep := porReport{
		Scale:      scale,
		Reps:       reps,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Note: "reduction = scenarios_unpruned / scenarios_physical; the insert " +
			"workloads never revisit a persisted state (reduction ~1 from rf " +
			"elision alone), the update workloads recur with period two and " +
			"show the fingerprint layer's full effect",
	}
	fmt.Printf("Partial-order reduction: -por=false vs default (best of %d)\n", reps)
	fmt.Printf("%-14s  %9s  %9s  %10s  %10s  %9s  %6s\n",
		"Benchmark", "Unpruned", "Physical", "Off", "On", "Reduction", "Match")
	fmt.Println("----------------------------------------------------------------------------")

	for _, prog := range porWorkloads(scale) {
		var off, on time.Duration
		var roff, ron *core.Result
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			roff = core.New(prog, core.Options{POR: -1}).Run()
			if d := time.Since(t0); r == 0 || d < off {
				off = d
			}
			t0 = time.Now()
			ron = core.New(prog, core.Options{}).Run()
			if d := time.Since(t0); r == 0 || d < on {
				on = d
			}
		}
		obsOn := core.New(prog, core.Options{Observe: true}).Run()
		match := roff.FailurePoints == ron.FailurePoints &&
			roff.Complete == ron.Complete &&
			bugKeysEqual(roff.Bugs, ron.Bugs)
		physical := int64(ron.Scenarios) - obsOn.Metrics.ScenariosPruned
		b := porBench{
			Name:              trimName(prog.Name),
			ScenariosUnpruned: roff.Scenarios,
			ScenariosLogical:  ron.Scenarios,
			ScenariosPruned:   obsOn.Metrics.ScenariosPruned,
			ScenariosPhysical: physical,
			Reduction:         float64(roff.Scenarios) / float64(max(physical, 1)),
			OffNs:             off.Nanoseconds(),
			TotalTimeNs:       on.Nanoseconds(),
			RFElisions:        obsOn.Metrics.RFElisions,
			FingerprintHits:   obsOn.Metrics.FingerprintHits,
			FingerprintMisses: obsOn.Metrics.FingerprintMisses,
			Match:             match,
			Metrics:           obsOn.Metrics,
		}
		rep.Benchmarks = append(rep.Benchmarks, b)
		fmt.Printf("%-14s  %9d  %9d  %10s  %10s  %8.1fx  %6v\n",
			b.Name, b.ScenariosUnpruned, b.ScenariosPhysical,
			off.Round(1e5), on.Round(1e5), b.Reduction, match)
		if !match {
			fmt.Fprintf(os.Stderr, "%s: pruned exploration diverged from unpruned\n", prog.Name)
			os.Exit(1)
		}
	}

	out, err := json.MarshalIndent(&rep, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(out, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "writing %s: %v\n", path, err)
		os.Exit(1)
	}
	fmt.Printf("\nwrote %s\n", path)
}

func main() {
	scale := flag.Int("scale", 1, "workload scale factor (1 = default table)")
	workers := flag.Int("workers", 4, "worker checkers for -parallel")
	reps := flag.Int("reps", 3, "measurement repetitions for -parallel/-snapshots/-memlayout (best is kept)")
	parallel := flag.String("parallel", "", "benchmark parallel exploration and write the JSON report to this file")
	snapshots := flag.String("snapshots", "", "benchmark the snapshot engine and write the JSON report to this file")
	memlayout := flag.String("memlayout", "", "benchmark allocation cost per workload and write the JSON report to this file")
	por := flag.String("por", "", "benchmark the partial-order reduction layer and write the JSON report to this file")
	dst := flag.String("dist", "", "benchmark distributed exploration over an in-process fabric and write the JSON report to this file")
	check := flag.String("check", "", "compare this freshly generated BENCH report against -baseline and fail on match=false, lost rows, or wall-clock regressions")
	tolerance := flag.Float64("tolerance", 0.20, "allowed fractional wall-clock regression for -check")
	baseline := flag.String("baseline", "", "prior report to diff and cross-check against (-memlayout) or the committed report to compare with (-check)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	flag.Parse()

	stopProfiles := profiling.Start(*cpuprofile, *memprofile)
	defer stopProfiles()

	if *check != "" {
		runCheck(*check, *baseline, *tolerance)
		return
	}
	if *parallel != "" {
		runParallelBench(*parallel, *workers, *reps, *scale)
		return
	}
	if *snapshots != "" {
		runSnapshotBench(*snapshots, *reps, *scale)
		return
	}
	if *memlayout != "" {
		runMemlayoutBench(*memlayout, *baseline, *reps, *scale)
		return
	}
	if *por != "" {
		runPORBench(*por, *reps, *scale)
		return
	}
	if *dst != "" {
		runDistBench(*dst, *workers, *reps, *scale)
		return
	}

	fmt.Println("Figure 14 — Jaaru's state space reduction (fixed RECIPE variants)")
	fmt.Printf("%-12s  %7s  %10s  %8s  %8s  %14s\n",
		"Benchmark", "#JExec.", "JTime", "#FPoints", "Ex/FP", "#Yat Execs.")
	fmt.Println("------------------------------------------------------------------")

	for _, prog := range recipe.PerfWorkloads(*scale) {
		res := core.New(prog, core.Options{}).Run()
		if res.Buggy() {
			fmt.Fprintf(os.Stderr, "%s: unexpected bug: %v\n", prog.Name, res.Bugs[0])
			os.Exit(1)
		}
		count := yat.CountStates(prog, core.Options{})
		perFP := float64(res.Executions-1) / float64(max(res.FailurePoints, 1))
		fmt.Printf("%-12s  %7d  %10s  %8d  %8.2f  %14s\n",
			trimName(prog.Name), res.Executions, res.Duration.Round(1e6),
			res.FailurePoints, perFP, count.Sci())
	}
	fmt.Println()
	fmt.Println("Paper (for shape comparison): CCEH 891/14.51s/528/2.17e182,")
	fmt.Println("FAST_FAIR 170/1.48s/41/5.43e15, P-ART 174/1.86s/22/1.21e34,")
	fmt.Println("P-BwTree 71/0.79s/36/1.50e16, P-CLHT 25/1.59s/12/1.93e605,")
	fmt.Println("P-Masstree 24/0.17s/16/1.67e15.")
	fmt.Println("Executions per failure point should fall between ~1.5 and ~8;")
	fmt.Println("the eager column should exceed Jaaru's by many orders of magnitude.")
}

func trimName(s string) string {
	const p = "recipe/"
	if len(s) > len(p) && s[:len(p)] == p {
		return s[len(p):]
	}
	return s
}
