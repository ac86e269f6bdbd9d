package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// checkReport is the mode-agnostic view of any BENCH_*.json report: the
// comparator only needs each row's name, its match verdict, and whichever
// wall-clock field the mode writes, so rows are decoded generically.
type checkReport struct {
	Benchmarks []map[string]any `json:"benchmarks"`
}

// wallClockKeys are the per-mode wall-clock fields of the five BENCH reports
// (-parallel, -snapshots, -por, -dist, -memlayout in that order); a row is
// compared on every key it carries.
var wallClockKeys = []string{
	"parallel_ns", "on_ns", "total_time_ns", "dist_ns", "wall_ns",
}

// compareReports diffs a freshly generated report against the committed
// baseline and returns the failures: any fresh row with match=false, any
// baseline row missing from the fresh report, and any wall-clock field that
// regressed beyond the tolerance (fresh > baseline*(1+tol)). Faster runs and
// rows new to the fresh report are fine.
func compareReports(label string, fresh, base checkReport, tol float64) []string {
	var fails []string
	baseRows := make(map[string]map[string]any, len(base.Benchmarks))
	for _, r := range base.Benchmarks {
		if name, ok := r["name"].(string); ok {
			baseRows[name] = r
		}
	}
	for _, r := range fresh.Benchmarks {
		name, _ := r["name"].(string)
		if m, ok := r["match"].(bool); ok && !m {
			fails = append(fails, fmt.Sprintf("%s: %s: match=false", label, name))
		}
		br, ok := baseRows[name]
		if !ok {
			continue // new row, nothing to compare against
		}
		delete(baseRows, name)
		for _, k := range wallClockKeys {
			fw, fok := r[k].(float64)
			bw, bok := br[k].(float64)
			if fok && bok && bw > 0 && fw > bw*(1+tol) {
				fails = append(fails, fmt.Sprintf(
					"%s: %s: %s regressed %.0f%% (%.0fns -> %.0fns, tolerance %.0f%%)",
					label, name, k, 100*(fw/bw-1), bw, fw, 100*tol))
			}
		}
		// dist-overhead-ratio (dist_ns/serial_ns) is machine-speed
		// independent: serial and dist run on the same host in the same
		// invocation, so a ratio regression is protocol overhead creeping
		// back (chattier commits, bigger frames, coordinator contention) no
		// matter how fast the hardware is.
		if fr, ok := overheadRatio(r); ok {
			if brr, ok := overheadRatio(br); ok && fr > brr*(1+tol) {
				fails = append(fails, fmt.Sprintf(
					"%s: %s: dist-overhead-ratio regressed %.0f%% (%.2fx -> %.2fx, tolerance %.0f%%)",
					label, name, 100*(fr/brr-1), brr, fr, 100*tol))
			}
		}
	}
	for name := range baseRows {
		fails = append(fails, fmt.Sprintf("%s: %s: row missing from fresh report", label, name))
	}
	sort.Strings(fails)
	return fails
}

// overheadRatio extracts dist_ns/serial_ns from a -dist report row; rows of
// the other report modes lack the keys and are skipped.
func overheadRatio(row map[string]any) (float64, bool) {
	d, dok := row["dist_ns"].(float64)
	s, sok := row["serial_ns"].(float64)
	if !dok || !sok || s <= 0 {
		return 0, false
	}
	return d / s, true
}

// runCheck is the -check mode: compare a fresh BENCH report against the
// committed baseline (-baseline) and exit nonzero on any match=false row,
// lost row, or wall-clock regression beyond -tolerance.
func runCheck(freshPath, basePath string, tol float64) {
	if basePath == "" {
		fmt.Fprintln(os.Stderr, "-check requires -baseline (the committed report to diff against)")
		os.Exit(2)
	}
	read := func(path string) checkReport {
		var rep checkReport
		raw, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(raw, &rep)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "reading %s: %v\n", path, err)
			os.Exit(1)
		}
		return rep
	}
	fresh, base := read(freshPath), read(basePath)
	fails := compareReports(freshPath, fresh, base, tol)
	for _, f := range fails {
		fmt.Fprintln(os.Stderr, f)
	}
	if len(fails) > 0 {
		os.Exit(1)
	}
	fmt.Printf("%s: ok (%d rows within %.0f%% of %s)\n",
		freshPath, len(fresh.Benchmarks), 100*tol, basePath)
}
