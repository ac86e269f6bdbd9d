package main

import (
	"flag"
	"fmt"
	"os"

	"jaaru/internal/core"
	"jaaru/internal/pmdk"
	"jaaru/internal/recipe"
	"jaaru/internal/report"
)

// runBugs is `jaaru bugs [-suite pmdk|recipe|all] [-v]`. It regenerates the
// paper's bug tables — Figure 12 (bugs found in PMDK), Figure 13 (bugs found
// in RECIPE) and the cause columns of Figures 15 and 16 — by running the
// checker over the seeded buggy variant of every benchmark, and exits 1 when
// a bug goes undetected.
func runBugs(args []string) {
	fs := flag.NewFlagSet("jaaru bugs", flag.ExitOnError)
	suite := fs.String("suite", "all", "which suite to run: pmdk, recipe or all")
	verbose := fs.Bool("v", false, "print every bug manifestation and flagged load")
	fs.Parse(args)

	// benchmark/bugs.go explores the same cases under the same options.
	ok := true
	if *suite == "pmdk" || *suite == "all" {
		tbl := report.New("Figure 12 — Bugs found in PMDK (★ = new bug)",
			"#", "Benchmark", "Paper symptom", "Detected", "ExecsToBug").AlignRight(0, 4)
		tbl.Footnote("paper: 7 bugs, 6 new; only bug #2 was previously reported (XFDetector)")
		var rows []seeded
		for _, bc := range pmdk.BugCases() {
			rows = append(rows, seeded{bc.Program, []any{bc.ID, starred(bc.Benchmark, bc.New), bc.Symptom}})
		}
		ok = bugTable(tbl, rows, core.Options{FlagMultiRF: true, StopAtFirstBug: true}, *verbose) && ok
		fmt.Println()
	}
	if *suite == "recipe" || *suite == "all" {
		tbl := report.New("Figure 13/15 — Bugs found in RECIPE (★ = new bug)",
			"#", "Benchmark", "Type of bug", "Cause of bug (Fig. 15)", "Detected", "ExecsToBug").AlignRight(0, 5)
		tbl.Footnote("paper: 18 bugs, 12 new; Jaaru found bugs in every RECIPE program")
		var rows []seeded
		for _, bc := range recipe.BugCases() {
			rows = append(rows, seeded{bc.Program, []any{bc.ID, starred(bc.Benchmark, bc.New), bc.Type, bc.Cause}})
		}
		ok = bugTable(tbl, rows, core.Options{FlagMultiRF: true, MaxSteps: 20_000, StopAtFirstBug: true}, *verbose) && ok
	}
	if !ok {
		os.Exit(1)
	}
}

// seeded is one row of a bug table: the seeded program and the paper's
// columns that precede Detected.
type seeded struct {
	prog func() core.Program
	cols []any
}

// bugTable explores each seeded program under opts, completes its row with
// the detected symptom and the executions to the first bug, renders the
// table, and reports whether every bug was detected.
func bugTable(tbl *report.Table, rows []seeded, opts core.Options, verbose bool) bool {
	allFound := true
	var results []*core.Result
	for _, r := range rows {
		res := core.New(r.prog(), opts).Run()
		results = append(results, res)
		allFound = allFound && res.Buggy()
		tbl.Row(append(r.cols, symptom(res), res.Executions)...)
	}
	tbl.Render(os.Stdout)
	if verbose {
		dumpDetails(results)
	}
	return allFound
}

func starred(name string, isNew bool) string {
	if isNew {
		return name + "★"
	}
	return name
}

func symptom(res *core.Result) string {
	if len(res.Bugs) == 0 {
		return "NOT DETECTED"
	}
	b := res.Bugs[0]
	switch b.Type {
	case core.BugIllegalAccess:
		return "Illegal memory access / segmentation fault"
	case core.BugAssertion:
		return "Assertion failure"
	case core.BugInfiniteLoop:
		return "Getting stuck in an infinite loop"
	default:
		return b.Message
	}
}

func dumpDetails(results []*core.Result) {
	for _, res := range results {
		fmt.Printf("\n== %s\n", res.Program)
		for _, b := range res.Bugs {
			fmt.Printf("  bug: %v\n       choices: %s\n", b, b.Choices)
			// The reports came out of a Result, so the accessor never errors;
			// the minimized prefix is the short reproduction to hand a
			// developer (jaaru explain prints the full forensics witness).
			if nb, m, err := b.Minimize(); err == nil && m.MinimizedLen < m.OriginalLen {
				fmt.Printf("       minimized: %d -> %d decisions (%d trials): %s\n",
					m.OriginalLen, m.MinimizedLen, m.Trials, orNone(nb.Choices))
			}
		}
		for _, m := range res.MultiRF {
			fmt.Printf("  multi-rf: %v\n", m)
		}
	}
}

func orNone(s string) string {
	if s == "" {
		return "(none)"
	}
	return s
}
