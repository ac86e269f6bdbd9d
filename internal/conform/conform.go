// Package conform is the one comparer behind every equivalence test: the
// full-replay oracle, POR off, in-process workers, range donation and a
// fleet must each report what the serial default run reports. A View is the
// part of a run that must not depend on how the exploration was carried out;
// Exact, and Unpruned or Pruned for POR, are the relations a configuration
// can promise. Run is the one matrix runner: rows are programs, columns are
// configurations, and each cell is compared with the row's serial run.
package conform

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"jaaru/internal/core"
	"jaaru/internal/obs"
)

// View is one run as the comparer sees it.
type View struct {
	Result     core.Result      // Duration zeroed; its pointer fields are held below
	Canonical  obs.Metrics      // Metrics.Canonical(), zero without Observe
	Bugs       []core.BugReport // the reports' exported fields
	MultiRF    []core.MultiRF
	PerfIssues []core.PerfIssue
	// Evidence is per bug what a reader gets to reproduce it: its last 64
	// operations as the job API serves them, or its witness as JSON.
	Evidence []string
	Observed []string // the program's observation set, sorted
}

func view(r *core.Result, observed []string) View {
	v := View{Result: *r, Observed: observed}
	v.Result.Duration, v.Result.Bugs, v.Result.MultiRF, v.Result.PerfIssues, v.Result.Metrics = 0, nil, nil, nil, nil
	if r.Metrics != nil {
		v.Canonical = r.Metrics.Canonical()
	}
	for _, b := range r.Bugs {
		v.Bugs = append(v.Bugs, core.BugReport{Type: b.Type, Message: b.Message,
			Execution: b.Execution, Scenario: b.Scenario, Count: b.Count, Choices: b.Choices})
	}
	for _, m := range r.MultiRF {
		v.MultiRF = append(v.MultiRF, *m)
	}
	for _, p := range r.PerfIssues {
		v.PerfIssues = append(v.PerfIssues, *p)
	}
	return v
}

// Of views a result explored in this process, each bug's trace replayed from
// its report.
func Of(r *core.Result, observed []string) View {
	traces := make([][]core.TraceOp, len(r.Bugs))
	for i, b := range r.Bugs {
		traces[i] = b.Trace(64)
	}
	return Served(r, traces, observed)
}

// Served views a result read off the job API, whose reports carry no replay
// vector: traces[i] is the trace r.Bugs[i] carried.
func Served(r *core.Result, traces [][]core.TraceOp, observed []string) View {
	v := view(r, observed)
	for _, tr := range traces {
		v.Evidence = append(v.Evidence, fmt.Sprint(tr))
	}
	return v
}

// Explore runs a fresh build of the program under opts and views the result
// with the observations its recovery reported.
func Explore(build func(obs func(string)) core.Program, opts core.Options) (*core.Result, View) {
	var o Obs
	r := core.New(build(o.Add), opts).Run()
	return r, Of(r, o.Set())
}

// Exact requires got to equal ref in every part.
func Exact(t testing.TB, label string, ref, got View) {
	t.Helper()
	rv, gv := reflect.ValueOf(ref), reflect.ValueOf(got)
	for i := range rv.NumField() {
		if want, have := rv.Field(i).Interface(), gv.Field(i).Interface(); !reflect.DeepEqual(want, have) {
			t.Errorf("%s: %s differ:\nref: %+v\ngot: %+v", label, rv.Type().Field(i).Name, want, have)
		}
	}
}

// Partitioned drops the one part of a view that depends on how the tree was
// partitioned: each bug's Scenario, the discovery index within one worker's
// share of the tree. Workers, donation and fleet cells compare through it.
func Partitioned(v View) View {
	v.Bugs = append([]core.BugReport(nil), v.Bugs...)
	for i := range v.Bugs {
		v.Bugs[i].Scenario = 0
	}
	return v
}

// Unpruned is what a run with POR on promises against the run with POR off
// on a program POR does not prune: the same scenarios, and the same view but
// for POR's own read-from accounting — an elided read skips its refinement
// and is not flagged.
func Unpruned(t testing.TB, label string, on, off View) {
	t.Helper()
	if on.Result.Scenarios != off.Result.Scenarios {
		t.Errorf("%s: POR pruned a program it must not prune: %d scenarios off, %d on",
			label, off.Result.Scenarios, on.Result.Scenarios)
	}
	for _, v := range []*View{&on, &off} {
		v.Canonical.RFElisions, v.Canonical.RFCandidates, v.MultiRF = 0, 0, nil
	}
	Exact(t, label, off, on)
}

// Pruned is what a run with POR on promises against the run with POR off on
// a program POR prunes: the same bugs, failure points, completeness and
// behaviours, and never more scenarios. Elision and pruning drop choice
// points, so counts, choice vectors and the read-from accounting may shrink.
func Pruned(t testing.TB, label string, on, off View) {
	t.Helper()
	if on.Result.Scenarios > off.Result.Scenarios {
		t.Errorf("%s: Scenarios grew under POR: %d off, %d on", label, off.Result.Scenarios, on.Result.Scenarios)
	}
	type found struct {
		FailurePoints int
		Complete      bool
		Bugs          []string
		Observed      []string
	}
	of := func(v View) found {
		f := found{v.Result.FailurePoints, v.Result.Complete, nil, v.Observed}
		for _, b := range v.Bugs {
			f.Bugs = append(f.Bugs, b.Type.String()+": "+b.Message)
		}
		sort.Strings(f.Bugs)
		return f
	}
	if want, have := of(off), of(on); !reflect.DeepEqual(want, have) {
		t.Errorf("%s: POR changed what was found:\noff: %+v\non:  %+v", label, want, have)
	}
}

// Obs collects a program's observations; recovery closures of concurrent
// workers may report at once.
type Obs struct{ seen sync.Map }

// Add records one observation.
func (o *Obs) Add(s string) { o.seen.Store(s, true) }

// Set returns the distinct observations, sorted.
func (o *Obs) Set() (out []string) {
	o.seen.Range(func(s, _ any) bool { out = append(out, s.(string)); return true })
	sort.Strings(out)
	return out
}
