package benchlist

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"jaaru/internal/core"
	"jaaru/internal/pmdk"
	"jaaru/internal/recipe"
)

// traceGolden is one seeded program's pinned bug reports: per bug its key,
// the decisions of its canonical scenario and a hash of its 64-operation
// trace as fmt.Sprint renders it.
type traceGolden struct {
	Program string           `json:"program"`
	Bugs    []traceGoldenBug `json:"bugs"`
}

type traceGoldenBug struct {
	Key     string `json:"key"`
	Choices string `json:"choices"`
	Ops     int    `json:"ops"`
	Trace   string `json:"trace_sha256"`
}

// goldenTraceLen is the trace length the golden pins: the capacity of the ring
// every report carried by default in the commit the file was generated from.
const goldenTraceLen = 64

// seededPrograms is the Figure 12 + Figure 13 registry: 7 PMDK and 18 RECIPE
// seeded bugs.
func seededPrograms() []func() core.Program {
	var progs []func() core.Program
	for _, bc := range pmdk.BugCases() {
		progs = append(progs, bc.Program)
	}
	for _, bc := range recipe.BugCases() {
		progs = append(progs, bc.Program)
	}
	return progs
}

func traceGoldenJSON(t *testing.T, workers int) []byte {
	var got []traceGolden
	for _, prog := range seededPrograms() {
		// Full exploration; the step budget is tightened so the seeded
		// infinite loops cost 2 000 operations per manifestation, not 2^20.
		r := core.New(prog(), core.Options{MaxSteps: 2_000, Workers: workers}).Run()
		g := traceGolden{Program: r.Program}
		for _, b := range r.Bugs {
			trace := b.Trace(goldenTraceLen)
			g.Bugs = append(g.Bugs, traceGoldenBug{
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
	return append(gotJSON, '\n')
}

// TestTraceGolden pins every bug report of the 25 seeded programs — key,
// Choices, and its last 64 operations — against testdata/trace_golden.json,
// which was generated from the commit that still recorded a 64-entry ring
// during exploration and stored it in the report: a trace obtained by
// replaying the report must equal the one exploration used to carry, serial
// and partitioned. On a deliberate change, replace the file with the JSON
// this test prints.
func TestTraceGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/trace_golden.json")
	for _, workers := range []int{1, 4} {
		got := traceGoldenJSON(t, workers)
		if err != nil {
			t.Fatalf("%v\ngot:\n%s", err, got)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("workers=%d: trace golden drifted\ngot:\n%s\nwant:\n%s", workers, got, want)
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
		for _, build := range seededPrograms() {
			prog := build()
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
