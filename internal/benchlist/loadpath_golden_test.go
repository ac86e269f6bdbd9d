package benchlist

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"testing"

	"jaaru/internal/core"
	"jaaru/internal/obs"
)

var update = flag.Bool("update", false, "rewrite testdata/loadpath_golden.json")

// loadPathGolden is one pinned exploration: the deterministic Result fields
// and the canonical counters of a default serial run with Observe on, plus
// refinements_skipped — engine-dependent and therefore zeroed by Canonical(),
// but exact for one fixed engine, and the counter a load-path change is most
// likely to drift.
type loadPathGolden struct {
	Bench              string      `json:"bench"`
	N                  int         `json:"n"`
	Scenarios          int         `json:"scenarios"`
	Executions         int         `json:"executions"`
	FailurePoints      int         `json:"failure_points"`
	Steps              int64       `json:"steps"`
	RFChoicePoints     int         `json:"rf_choice_points"`
	FailDecisionPoints int         `json:"fail_decision_points"`
	MaxRFCandidates    int         `json:"max_rf_candidates"`
	Bugs               int         `json:"bugs"`
	Complete           bool        `json:"complete"`
	RefinementsSkipped int64       `json:"refinements_skipped"`
	Canonical          obs.Metrics `json:"canonical"`
}

// TestLoadPathGolden pins Result and the load-path counters (load_sb_hits,
// load_cache_hits, load_refinements, rf_candidates, refinements_skipped) of
// three benchmark-shaped workloads against testdata/loadpath_golden.json,
// which was generated from the commit before loads were resolved per
// operation: the equivalence suites compare the engine with itself, so only
// a committed golden makes tier-1 fail when every mode drifts together. On a
// deliberate change, `go test ./internal/benchlist -run TestLoadPathGolden
// -update` rewrites the file; the diff is the change to review.
func TestLoadPathGolden(t *testing.T) {
	var got []loadPathGolden
	for _, tc := range []struct {
		bench string
		n     int
	}{{"part", 32}, {"cceh-update", 64}, {"pmserver", 8}} {
		r := core.New(Find(tc.bench).Build(tc.n, false), core.Options{Observe: true}).Run()
		got = append(got, loadPathGolden{
			Bench: tc.bench, N: tc.n,
			Scenarios: r.Scenarios, Executions: r.Executions, FailurePoints: r.FailurePoints,
			Steps: r.Steps, RFChoicePoints: r.RFChoicePoints, FailDecisionPoints: r.FailDecisionPoints,
			MaxRFCandidates: r.MaxRFCandidates, Bugs: len(r.Bugs), Complete: r.Complete,
			RefinementsSkipped: r.Metrics.RefinementsSkipped,
			Canonical:          r.Metrics.Canonical(),
		})
	}
	gotJSON, err := json.MarshalIndent(got, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	gotJSON = append(gotJSON, '\n')
	if *update {
		if err := os.WriteFile("testdata/loadpath_golden.json", gotJSON, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile("testdata/loadpath_golden.json")
	if err != nil {
		t.Fatalf("%v\ngot:\n%s", err, gotJSON)
	}
	if !bytes.Equal(gotJSON, want) {
		t.Errorf("load-path golden drifted\ngot:\n%s\nwant:\n%s", gotJSON, want)
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
