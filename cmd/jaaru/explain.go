package main

import (
	"flag"
	"fmt"
	"os"

	"jaaru/internal/core"
	"jaaru/internal/forensics"
	"jaaru/internal/obs"
	"jaaru/internal/report"
)

// runExplain is `jaaru explain`, the bug-forensics front end and the one path
// that builds a witness. It explores the benchmark, picks one reported bug, replays its scenario
// with the forensics hooks armed, and prints the structured witness — the
// recorded decisions, the TSO-annotated operation trace, the per-cache-line
// persistence timelines, and the read-from resolution (with constraint-
// refinement steps) of every post-failure load. -minimize runs delta
// debugging over the recorded choice prefix first and explains the minimized
// scenario; -json emits the machine-readable witness (schema documented in
// docs/ALGORITHM.md), -validate self-checks it against the schema.
// -from-trace reads a JSONL event trace recorded by `jaaru -trace-out` and
// selects the bug the trace reports instead of bug 0.
//
// Exit status: 0 when a witness was produced, 1 when the exploration found
// no bug to explain, 2 on usage or validation errors.
func runExplain(args []string) {
	fs := flag.NewFlagSet("jaaru explain", flag.ExitOnError)
	bf := addBenchFlags(fs)
	bugIdx := fs.Int("bug", 0, "which reported bug to explain (canonical order)")
	minimize := fs.Bool("minimize", false, "delta-debug the choice prefix before explaining")
	jsonOut := fs.Bool("json", false, "emit the witness as JSON instead of text")
	validate := fs.Bool("validate", false, "check the witness JSON against the documented schema")
	fromTrace := fs.String("from-trace", "", "select the bug recorded in this JSONL event trace (from jaaru -trace-out)")
	fs.Parse(args)

	name, ok := bf.benchmark(fs)
	if !ok {
		return
	}
	prog := bf.program(name)
	opts := core.Options{
		MaxFailures: *bf.failures,
		FlagMultiRF: true,
		Workers:     *bf.workers,
	}
	res := core.New(prog, opts).Run()
	if !res.Buggy() {
		exit(1, "%s: no bugs found — nothing to explain", prog.Name)
	}

	idx := *bugIdx
	if *fromTrace != "" {
		var err error
		idx, err = bugFromTrace(*fromTrace, res)
		if err != nil {
			exit(2, "%v", err)
		}
	}
	if idx < 0 || idx >= len(res.Bugs) {
		exit(2, "no bug %d (%s reported %d)", idx, prog.Name, len(res.Bugs))
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
			exit(2, "encoding witness: %v", err)
		}
		if *validate {
			if err := forensics.ValidateJSON(data); err != nil {
				exit(2, "witness JSON fails schema: %v", err)
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
