package benchlist

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"jaaru/internal/core"
	"jaaru/internal/obs"
)

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
// deliberate change, replace the file with the JSON this test prints.
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
	want, err := os.ReadFile("testdata/loadpath_golden.json")
	if err != nil {
		t.Fatalf("%v\ngot:\n%s", err, gotJSON)
	}
	if !bytes.Equal(gotJSON, want) {
		t.Errorf("load-path golden drifted\ngot:\n%s\nwant:\n%s", gotJSON, want)
	}
}
