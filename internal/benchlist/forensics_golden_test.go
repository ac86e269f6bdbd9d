package benchlist

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"testing"

	"jaaru/internal/core"
	"jaaru/internal/pmdk"
	"jaaru/internal/recipe"
	"jaaru/internal/report"
)

// forensicsCase is one pinned seeded bug: its first bug's key, a hash of the
// witness `jaaru explain -json` would print for it, and what the minimizer
// made of its choice vector.
type forensicsCase struct {
	Case             string `json:"case"`
	Key              string `json:"key"`
	Witness          string `json:"witness_sha256"`
	MinimizedChoices string `json:"minimized_choices"`
	Trials           int    `json:"trials"`
}

// TestForensicsGolden pins the forensics path of the 25 seeded Figure 12/13
// bugs against testdata/forensics_golden.json: each case is explored to its
// first bug under the benchmark's bugs25 options (FlagMultiRF,
// StopAtFirstBug, and a 20 000-step budget for RECIPE), then witnessed and
// minimized. The three infinite-loop cases run at a 2 000-step budget, so
// their witnesses (one load resolution per loaded byte of the whole looping
// execution) stay small. The witness records a source location per load and
// per multi-rf finding, so a location computed for the wrong operation, and
// a minimizer trial that sees state left by the one before, show here. `go
// test ./internal/benchlist -run TestForensicsGolden -update` rewrites the
// file.
func TestForensicsGolden(t *testing.T) {
	type seeded struct {
		name   string
		prog   func() core.Program
		expect []core.BugType
		steps  int
	}
	var cases []seeded
	for _, bc := range pmdk.BugCases() {
		cases = append(cases, seeded{fmt.Sprintf("pmdk#%d", bc.ID), bc.Program, bc.Expect, 0})
	}
	for _, bc := range recipe.BugCases() {
		steps := 20_000
		if slices.Contains(bc.Expect, core.BugInfiniteLoop) {
			steps = 2_000
		}
		cases = append(cases, seeded{fmt.Sprintf("recipe#%d", bc.ID), bc.Program, bc.Expect, steps})
	}
	var got []forensicsCase
	for _, sc := range cases {
		opts := core.Options{FlagMultiRF: true, StopAtFirstBug: true, MaxSteps: sc.steps}
		prog := sc.prog()
		r := core.New(prog, opts).Run()
		if !r.Buggy() || !slices.Contains(sc.expect, r.Bugs[0].Type) {
			t.Fatalf("%s: bugs %v, want a first bug of type %v", sc.name, r.Bugs, sc.expect)
		}
		b := r.Bugs[0]
		w := core.BuildWitness(prog, opts, b)
		if !w.Reproduced {
			t.Errorf("%s: witness does not reproduce %v: %s", sc.name, b.Type, b.Message)
		}
		data, err := report.WitnessJSON(w)
		if err != nil {
			t.Fatal(err)
		}
		_, m := core.Minimize(prog, opts, b)
		got = append(got, forensicsCase{
			Case:             sc.name,
			Key:              fmt.Sprintf("%v: %s", b.Type, b.Message),
			Witness:          fmt.Sprintf("%x", sha256.Sum256(data)),
			MinimizedChoices: m.MinimizedChoices,
			Trials:           m.Trials,
		})
	}
	gotJSON, err := json.MarshalIndent(got, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	gotJSON = append(gotJSON, '\n')
	const path = "testdata/forensics_golden.json"
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
		t.Errorf("forensics golden drifted\ngot:\n%s\nwant:\n%s", gotJSON, want)
	}
}
