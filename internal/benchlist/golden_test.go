package benchlist

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"testing"

	"jaaru/internal/conform"
	"jaaru/internal/core"
	"jaaru/internal/obs"
)

var update = flag.Bool("update", false, "rewrite testdata/conformance_golden.json")

// goldenCell is one pinned reference cell: the deterministic Result fields
// and canonical counters of a serial run with Observe on, refinements_skipped
// — zeroed by Canonical() because it is engine-dependent, but exact for one
// engine and the counter a load-path change is most likely to drift — and
// per bug its key, choices and a hash of its 64-operation trace as fmt.Sprint
// renders it.
type goldenCell struct {
	Cell               string      `json:"cell"`
	Program            string      `json:"program"`
	Scenarios          int         `json:"scenarios"`
	Executions         int         `json:"executions"`
	FailurePoints      int         `json:"failure_points"`
	Steps              int64       `json:"steps"`
	RFChoicePoints     int         `json:"rf_choice_points"`
	FailDecisionPoints int         `json:"fail_decision_points"`
	MaxRFCandidates    int         `json:"max_rf_candidates"`
	Complete           bool        `json:"complete"`
	RefinementsSkipped int64       `json:"refinements_skipped"`
	Canonical          obs.Metrics `json:"canonical"`
	Bugs               []goldenBug `json:"bugs,omitempty"`
}

type goldenBug struct {
	Key     string `json:"key"`
	Choices string `json:"choices"`
	Ops     int    `json:"ops"`
	Trace   string `json:"trace_sha256"`
}

// TestConformanceGolden pins the matrix's reference cell — what every column
// is compared with — of three benchmark-shaped workloads and the 25 seeded
// bugs against testdata/conformance_golden.json: the matrix compares the
// engine with itself, so only a committed golden fails when every
// configuration drifts together. The load-path counters were generated from
// the commit before loads were resolved per operation, and the traces from
// the last commit whose exploration recorded a 64-entry ring in every
// report. On a deliberate change, `go test ./internal/benchlist -run
// TestConformanceGolden -update` rewrites the file; the diff is the change to
// review.
func TestConformanceGolden(t *testing.T) {
	var rows []conform.Row
	for _, big := range []struct {
		bench string
		n     int
	}{{"part", 32}, {"cceh-update", 64}, {"pmserver", 8}} {
		b := Find(big.bench)
		rows = append(rows, fixedRow(fmt.Sprintf("%s-%d", big.bench, big.n),
			func() core.Program { return b.Build(big.n, false) }, core.Options{}))
	}
	var got []goldenCell
	rows = append(rows, seededRows()...)
	for _, rw := range rows {
		rw.Opts.Observe = true
		r := core.New(rw.Build(nil), rw.Opts).Run()
		g := goldenCell{
			Cell: rw.Name, Program: r.Program,
			Scenarios: r.Scenarios, Executions: r.Executions, FailurePoints: r.FailurePoints,
			Steps: r.Steps, RFChoicePoints: r.RFChoicePoints, FailDecisionPoints: r.FailDecisionPoints,
			MaxRFCandidates: r.MaxRFCandidates, Complete: r.Complete,
			RefinementsSkipped: r.Metrics.RefinementsSkipped,
			Canonical:          r.Metrics.Canonical(),
		}
		for _, b := range r.Bugs {
			trace := b.Trace(64)
			g.Bugs = append(g.Bugs, goldenBug{
				Key:     fmt.Sprintf("%v: %s", b.Type, b.Message),
				Choices: b.Choices,
				Ops:     len(trace),
				Trace:   fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprint(trace)))),
			})
		}
		got = append(got, g)
	}
	gotJSON, err := json.MarshalIndent(got, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	gotJSON = append(gotJSON, '\n')
	const path = "testdata/conformance_golden.json"
	if *update {
		if err := os.WriteFile(path, gotJSON, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v\ngot:\n%s", err, gotJSON)
	}
	if !bytes.Equal(gotJSON, want) {
		t.Errorf("conformance golden drifted\ngot:\n%s\nwant:\n%s", gotJSON, want)
	}
}

// TestBytePathRefinements gates the pinned summary's mechanism by a count that
// repeats exactly: the post-failure load bytes that still take the byte path
// (load_refinements - refinements_skipped) in a default serial run. A summary
// that a restore, a flush of another line or the next scenario retires shows
// here long before it shows on a clock (601 297 and 58 520 before summaries
// were invalidated per line).
func TestBytePathRefinements(t *testing.T) {
	for _, tc := range []struct {
		bench string
		n     int
		max   int64
	}{{"part", 32, 170_000}, {"pmserver", 8, 7_000}} {
		m := core.New(Find(tc.bench).Build(tc.n, false), core.Options{Observe: true}).Run().Metrics
		if got := m.LoadRefinements - m.RefinementsSkipped; got > tc.max {
			t.Errorf("%s n=%d: %d load bytes refined on the byte path (of %d), want <= %d",
				tc.bench, tc.n, got, m.LoadRefinements, tc.max)
		} else {
			t.Logf("%s n=%d: %d of %d load bytes on the byte path", tc.bench, tc.n, got, m.LoadRefinements)
		}
	}
}

// TestTraceIsReplayTail: for every bug of the seeded programs, under eager
// and at-fences eviction and one and two failures, BugReport.Trace(n) is the
// last n operations of Replay — for an n below, at and above the old ring
// sizes, and at Replay's own capacity.
func TestTraceIsReplayTail(t *testing.T) {
	for _, cfg := range []core.Options{
		{},
		{MaxFailures: 2},
		{Eviction: core.EvictAtFences, SBCapacity: 2},
		{Eviction: core.EvictAtFences, SBCapacity: 2, MaxFailures: 2},
	} {
		cfg.MaxSteps, cfg.MaxScenarios, cfg.MaxBugs = 2_000, 400, 4
		reports := 0
		for _, rw := range seededRows() {
			prog := rw.Build(nil)
			for _, b := range core.New(prog, cfg).Run().Bugs {
				reports++
				full := core.Replay(prog, cfg, b)
				for _, n := range []int{1, 64, 128, 1 << 16} {
					want := full[max(0, len(full)-n):]
					if got := b.Trace(n); len(got) == 0 || !reflect.DeepEqual(got, want) {
						t.Errorf("%s %+v %q: Trace(%d) has %d ops, the replay tail %d",
							prog.Name, cfg, b.Choices, n, len(got), len(want))
					}
				}
			}
		}
		if reports < 25 {
			t.Errorf("%+v: only %d bug reports over the 25 seeded programs", cfg, reports)
		}
	}
}
