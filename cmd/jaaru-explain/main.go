// Command jaaru-explain is the bug-forensics front end: it explores a
// benchmark, picks one reported bug, replays its scenario with the forensics
// hooks armed, and prints the structured witness — the recorded decisions,
// the TSO-annotated operation trace, the per-cache-line persistence
// timelines, and the read-from resolution (with constraint-refinement steps)
// of every post-failure load.
//
// Usage:
//
//	jaaru-explain [-buggy] [-n N] [-failures K] [-workers W] <benchmark>
//	jaaru-explain [-bug I] [-minimize] [-json] [-validate] <benchmark>
//	jaaru-explain -from-trace trace.jsonl <benchmark>
//
// -minimize runs delta debugging over the recorded choice prefix first and
// explains the minimized scenario; -json emits the machine-readable witness
// (schema documented in docs/ALGORITHM.md), -validate self-checks it against
// the schema. -from-trace reads a JSONL event trace recorded by
// `jaaru -trace-out` and selects the bug the trace reports instead of bug 0.
//
// Exit status: 0 when a witness was produced, 1 when the exploration found
// no bug to explain, 2 on usage or validation errors.
package main

import (
	"flag"
	"fmt"
	"os"

	"jaaru/internal/benchlist"
	"jaaru/internal/core"
	"jaaru/internal/forensics"
	"jaaru/internal/obs"
	"jaaru/internal/report"
)

func main() {
	list := flag.Bool("list", false, "list available benchmarks")
	buggy := flag.Bool("buggy", false, "run the seeded-bug variant")
	n := flag.Int("n", 6, "workload size (inserted keys)")
	failures := flag.Int("failures", 1, "maximum failures per scenario")
	workers := flag.Int("workers", 1, "parallel exploration workers (witnesses are identical to -workers 1)")
	bugIdx := flag.Int("bug", 0, "which reported bug to explain (canonical order)")
	minimize := flag.Bool("minimize", false, "delta-debug the choice prefix before explaining")
	jsonOut := flag.Bool("json", false, "emit the witness as JSON instead of text")
	validate := flag.Bool("validate", false, "check the witness JSON against the documented schema")
	fromTrace := flag.String("from-trace", "", "select the bug recorded in this JSONL event trace (from jaaru -trace-out)")
	flag.Parse()

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
	bm := benchlist.Find(name)
	if bm == nil {
		fmt.Fprintf(os.Stderr, "unknown benchmark %q (try -list)\n", name)
		os.Exit(2)
	}

	prog := bm.Build(*n, *buggy)
	opts := core.Options{
		MaxFailures: *failures,
		FlagMultiRF: true,
		Workers:     *workers,
	}
	res := core.New(prog, opts).Run()
	if !res.Buggy() {
		fmt.Fprintf(os.Stderr, "%s: no bugs found — nothing to explain\n", prog.Name)
		os.Exit(1)
	}

	idx := *bugIdx
	if *fromTrace != "" {
		var err error
		idx, err = bugFromTrace(*fromTrace, res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			os.Exit(2)
		}
	}
	if idx < 0 || idx >= len(res.Bugs) {
		fmt.Fprintf(os.Stderr, "no bug %d (%s reported %d)\n", idx, prog.Name, len(res.Bugs))
		os.Exit(2)
	}

	b := res.Bugs[idx]
	var min *forensics.Minimization
	if *minimize {
		b, min = core.Minimize(prog, opts, b)
	}
	w := core.BuildWitness(prog, opts, b)
	w.Minimized = min

	if *jsonOut || *validate {
		data, err := report.WitnessJSON(w)
		if err != nil {
			fmt.Fprintf(os.Stderr, "encoding witness: %v\n", err)
			os.Exit(2)
		}
		if *validate {
			if err := forensics.ValidateJSON(data); err != nil {
				fmt.Fprintf(os.Stderr, "witness JSON fails schema: %v\n", err)
				os.Exit(2)
			}
		}
		if *jsonOut {
			os.Stdout.Write(data)
			return
		}
	}
	fmt.Print(report.WitnessText(w))
}

// bugFromTrace reads a recorded JSONL event trace and returns the canonical
// index (in res.Bugs) of the first bug the trace reports, matched by
// (type, message).
func bugFromTrace(path string, res *core.Result) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	events, err := obs.ReadTrace(f)
	if err != nil {
		return 0, fmt.Errorf("reading %s: %w", path, err)
	}
	for _, ev := range events {
		if ev.Ev != "bug" {
			continue
		}
		typ, msg := ev.Str("type"), ev.Str("message")
		for i, b := range res.Bugs {
			if b.Type.String() == typ && b.Message == msg {
				return i, nil
			}
		}
		return 0, fmt.Errorf("trace reports %s: %s, which this exploration did not reproduce", typ, msg)
	}
	return 0, fmt.Errorf("%s contains no bug event", path)
}
