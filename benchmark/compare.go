package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// report is the file --out accumulates and -compare reads: per workload, the
// end-to-end metrics of an untraced run and the per-layer metrics of a
// traced one.
type report struct {
	Seed      int64                      `json:"seed"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

type workloadReport struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]float64 `json:"end_to_end,omitempty"`
	RepSpread map[string]float64 `json:"rep_spread,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &r, nil
}

// runReport is what one run adds to a report.
type runReport struct {
	traced            bool
	seed              int64
	attempted, failed int
	values            map[string]float64
	// spread is the untraced run's interquartile range ÷ median over its
	// timed repetitions, per end-to-end metric.
	spread map[string]float64
}

// mergeReport folds one run into the report at path, creating it if needed.
func mergeReport(path, workload string, run runReport) error {
	r, err := readReport(path)
	if os.IsNotExist(err) {
		r, err = &report{}, nil
	}
	if err != nil {
		return err
	}
	r.Seed = run.seed
	if r.Workloads == nil {
		r.Workloads = map[string]*workloadReport{}
	}
	wr := r.Workloads[workload]
	if wr == nil {
		wr = &workloadReport{}
		r.Workloads[workload] = wr
	}
	wr.Attempted += run.attempted
	wr.Failed += run.failed
	if run.traced {
		wr.PerLayer = run.values
	} else {
		wr.EndToEnd, wr.RepSpread = run.values, run.spread
	}
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// compareReports checks report b against report a, per workload: no verdict
// may have failed, every end-to-end metric may be worse by at most its bound,
// and on serial workloads every exact count must be identical. A metric whose
// repetitions, in either report, spread wider than its bound cannot show a
// difference of that size: its row reads "unresolved", whatever the
// difference. It prints one line per check and reports whether every check
// was resolved and held.
func compareReports(out io.Writer, mf *manifest, a, b *report) bool {
	ok := true
	row := func(verdict string, format string, args ...any) {
		if verdict != "ok" {
			ok = false
		}
		fmt.Fprintf(out, "%-10s "+format+"\n", append([]any{verdict}, args...)...)
	}
	check := func(pass bool, format string, args ...any) {
		verdict := "ok"
		if !pass {
			verdict = "FAIL"
		}
		row(verdict, format, args...)
	}
	for i := range workloads {
		w := &workloads[i]
		wa, wb := a.Workloads[w.name], b.Workloads[w.name]
		if wa == nil || wb == nil {
			check(false, "%s: missing from a report", w.name)
			continue
		}
		check(wa.Failed == 0 && wb.Failed == 0, "%s: failed verdicts %d and %d", w.name, wa.Failed, wb.Failed)
		for _, d := range mf.EndToEnd {
			va, vb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			if va == 0 || vb == 0 {
				check(false, "%s %s: not measured (%g, %g)", w.name, d.Name, va, vb)
				continue
			}
			worse := (vb - va) / va
			if d.Better == "higher" {
				worse = (va - vb) / va
			}
			verdict := "ok"
			if worse > d.Bound {
				verdict = "FAIL"
			}
			sp := max(wa.RepSpread[d.Name], wb.RepSpread[d.Name])
			if sp > d.Bound {
				verdict = "unresolved"
			}
			row(verdict, "%s %-12s %12.6g -> %12.6g %s  worse by %+.1f%% (bound %.0f%%, repetition spread %.1f%%)",
				w.name, d.Name, va, vb, d.Unit, 100*worse, 100*d.Bound, 100*sp)
		}
		if !w.serial() || a.Seed != b.Seed {
			continue // counts depend on scheduling, or on the seeded case order
		}
		for _, d := range mf.PerLayer {
			if exactCounts[d.Name] {
				va, vb := wa.PerLayer[d.Name], wb.PerLayer[d.Name]
				check(va == vb, "%s %s: %.0f and %.0f must be identical", w.name, d.Name, va, vb)
			}
		}
	}
	return ok
}

func compareFiles(mf *manifest, pathA, pathB string) (bool, error) {
	a, err := readReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := readReport(pathB)
	if err != nil {
		return false, err
	}
	return compareReports(os.Stdout, mf, a, b), nil
}
