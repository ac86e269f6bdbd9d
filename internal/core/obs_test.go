package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// Without Observe/EventTrace the layer must stay entirely off.
func TestMetricsNilWhenDisabled(t *testing.T) {
	c := New(parallelTreeProgram(), Options{})
	if c.Observability() != nil {
		t.Fatal("registry created without Observe")
	}
	if res := c.Run(); res.Metrics != nil {
		t.Fatalf("Result.Metrics = %+v, want nil", res.Metrics)
	}
}

// The observability counters must agree exactly with the Result fields the
// checker already maintains — the two are accumulated independently.
func TestMetricsMatchResultCounters(t *testing.T) {
	res := New(parallelTreeProgram(), Options{Observe: true}).Run()
	m := res.Metrics
	if m == nil {
		t.Fatal("Result.Metrics nil with Observe set")
	}
	if m.Scenarios != int64(res.Scenarios) {
		t.Errorf("Metrics.Scenarios = %d, Result.Scenarios = %d", m.Scenarios, res.Scenarios)
	}
	if m.Executions != int64(res.Executions) || m.ExecutionsPost != int64(res.Executions-1) {
		t.Errorf("Metrics executions = %d/%d, Result.Executions = %d",
			m.Executions, m.ExecutionsPost, res.Executions)
	}
	if m.Steps != res.Steps {
		t.Errorf("Metrics.Steps = %d, Result.Steps = %d", m.Steps, res.Steps)
	}
	if m.MaxRFCandidates != int64(res.MaxRFCandidates) {
		t.Errorf("Metrics.MaxRFCandidates = %d, Result.MaxRFCandidates = %d",
			m.MaxRFCandidates, res.MaxRFCandidates)
	}
	// Fresh choice points = the distinct points Result counts, by kind.
	if m.ChoicesFresh != int64(res.RFChoicePoints+res.FailDecisionPoints) {
		t.Errorf("Metrics.ChoicesFresh = %d, Result points = %d+%d",
			m.ChoicesFresh, res.RFChoicePoints, res.FailDecisionPoints)
	}
	// Sanity on counters with no Result twin.
	if m.LoadRefinements == 0 || m.RFCandidates < m.LoadRefinements {
		t.Errorf("load refinement counters implausible: %+v", m)
	}
	if m.PreFailureNs <= 0 || m.PostFailureNs <= 0 {
		t.Errorf("phase timings missing: pre=%d post=%d", m.PreFailureNs, m.PostFailureNs)
	}
	if m.ReplayNs != 0 {
		t.Errorf("ReplayNs = %d without any replay", m.ReplayNs)
	}
	if m.MaxChoiceDepth == 0 || m.SBEvictions == 0 || m.MaxSBOccupancy == 0 {
		t.Errorf("choice/buffer counters missing: %+v", m)
	}
}

// The canonical counter subset must be bit-identical between a full serial
// exploration and a full parallel one — partition independence is the same
// property the Result equivalence suite asserts, extended to the new layer.
func TestMetricsSerialParallelEquivalence(t *testing.T) {
	serial := New(parallelTreeProgram(), Options{Observe: true}).Run()
	for _, workers := range []int{2, 4} {
		par := New(parallelTreeProgram(), Options{Workers: workers, Observe: true}).Run()
		if par.Metrics == nil {
			t.Fatalf("workers=%d: no metrics", workers)
		}
		if got, want := par.Metrics.Canonical(), serial.Metrics.Canonical(); got != want {
			t.Errorf("workers=%d: canonical metrics diverge\nserial:   %+v\nparallel: %+v",
				workers, want, got)
		}
		if par.Metrics.Workers != int64(workers) {
			t.Errorf("workers=%d: Metrics.Workers = %d", workers, par.Metrics.Workers)
		}
		if par.Metrics.FrontierClaimed == 0 || par.Metrics.FrontierPushed == 0 {
			t.Errorf("workers=%d: frontier counters empty: %+v", workers, par.Metrics)
		}
	}
}

// The JSONL event stream: every line parses, the envelope is ordered
// run_start..run_end, and scenario events agree with the Result.
func TestEventTraceJSONL(t *testing.T) {
	var buf bytes.Buffer
	res := New(parallelTreeProgram(), Options{EventTrace: &buf}).Run()
	if res.Metrics == nil {
		t.Fatal("EventTrace alone must imply metrics collection")
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) < 3 {
		t.Fatalf("only %d events emitted", len(lines))
	}
	type event struct {
		Ev       string `json:"ev"`
		Scenario *int   `json:"scenario"`
	}
	var evs []event
	for i, ln := range lines {
		var e event
		if err := json.Unmarshal([]byte(ln), &e); err != nil {
			t.Fatalf("line %d not JSON: %v\n%s", i, err, ln)
		}
		evs = append(evs, e)
	}
	if evs[0].Ev != "run_start" || evs[len(evs)-1].Ev != "run_end" {
		t.Fatalf("envelope = %q..%q, want run_start..run_end", evs[0].Ev, evs[len(evs)-1].Ev)
	}
	starts, ends := 0, 0
	for _, e := range evs {
		switch e.Ev {
		case "scenario_start":
			starts++
		case "scenario_end":
			ends++
		}
	}
	if starts != res.Scenarios || ends != res.Scenarios {
		t.Errorf("scenario events = %d starts / %d ends, Result.Scenarios = %d",
			starts, ends, res.Scenarios)
	}
	if res.Metrics.Events != int64(len(evs)) {
		t.Errorf("Metrics.Events = %d, stream has %d", res.Metrics.Events, len(evs))
	}
}

// Under Workers>1 the registry serializes event writes, so a plain buffer
// sink must be safe, and bug events must appear for a buggy program.
func TestEventTraceParallel(t *testing.T) {
	var buf bytes.Buffer
	res := New(buggyReplayProgram(), Options{Workers: 4, EventTrace: &buf}).Run()
	if !res.Buggy() {
		t.Fatal("no bug found")
	}
	out := buf.String()
	for _, want := range []string{`"ev":"run_start"`, `"ev":"frontier_claim"`,
		`"ev":"bug"`, `"ev":"run_end"`} {
		if !strings.Contains(out, want) {
			t.Errorf("event stream missing %s", want)
		}
	}
}

// Result accounting under parallel runs (satellite check): the admission
// counter and the independently accumulated metrics must agree exactly —
// no double count from the merge, no drift from cooperative stops.
func TestParallelResultAccounting(t *testing.T) {
	// Full run: duplicate-free admission.
	res := New(parallelTreeProgram(), Options{Workers: 4, Observe: true}).Run()
	if res.Metrics.Scenarios != int64(res.Scenarios) {
		t.Errorf("full: Metrics.Scenarios = %d, Result.Scenarios = %d",
			res.Metrics.Scenarios, res.Scenarios)
	}
	if res.Metrics.Steps != res.Steps {
		t.Errorf("full: Metrics.Steps = %d, Result.Steps = %d", res.Metrics.Steps, res.Steps)
	}
	if res.Duration <= 0 {
		t.Errorf("full: Duration = %v", res.Duration)
	}

	// MaxScenarios cap: admissions stop exactly at the cap.
	capped := New(parallelTreeProgram(), Options{Workers: 4, MaxScenarios: 5, Observe: true}).Run()
	if capped.Scenarios != 5 || capped.Metrics.Scenarios != 5 {
		t.Errorf("capped: Result=%d Metrics=%d, want 5", capped.Scenarios, capped.Metrics.Scenarios)
	}

	// Cooperative StopAtFirstBug: every admitted scenario ran and was
	// counted exactly once, even though workers wind down mid-flight.
	stop := New(Program{
		Name: "stop-accounting",
		Run: func(c *Context) {
			r := c.Root()
			for i := uint64(0); i < 12; i++ {
				c.Store64(r.Add(i*64), i+1)
				c.Clflush(r.Add(i*64), 8)
			}
		},
		Recover: func(c *Context) {
			if c.Load64(c.Root()) == 0 {
				c.Bug("first line unpersisted")
			}
		},
	}, Options{Workers: 4, StopAtFirstBug: true, Observe: true}).Run()
	if !stop.Buggy() {
		t.Fatal("no bug found")
	}
	if stop.Metrics.Scenarios != int64(stop.Scenarios) {
		t.Errorf("stop: Metrics.Scenarios = %d, Result.Scenarios = %d",
			stop.Metrics.Scenarios, stop.Scenarios)
	}
	if stop.Metrics.Executions != int64(stop.Executions) {
		t.Errorf("stop: Metrics.Executions = %d, Result.Executions = %d",
			stop.Metrics.Executions, stop.Executions)
	}
}

// Replay time lands in the replay phase bucket, not the exploration ones.
func TestReplayPhaseAccounting(t *testing.T) {
	res := New(buggyReplayProgram(), Options{Observe: true}).Run()
	if !res.Buggy() {
		t.Fatal("no bug")
	}
	// Replay builds its own checker; verify via a directly observed one.
	c := newReplayChecker(buggyReplayProgram(), Options{Observe: true}, res.Bugs[0].replay, witnessTraceLen)
	c.runScenario()
	m := c.reg.Snapshot()
	if m.ReplayNs <= 0 {
		t.Errorf("ReplayNs = %d after a replayed scenario", m.ReplayNs)
	}
	if m.PreFailureNs != 0 || m.PostFailureNs != 0 {
		t.Errorf("replay leaked into exploration phases: pre=%d post=%d",
			m.PreFailureNs, m.PostFailureNs)
	}
}

// Only the eager policy bypasses the store buffer: with EvictAtFences entries
// still wait in it up to its capacity, and every one of them is still counted
// as an eviction when it leaves.
func TestStoreBufferOccupancyByPolicy(t *testing.T) {
	prog := Program{
		Name: "sb-occupancy",
		Run: func(c *Context) {
			for i := uint64(0); i < 10; i++ {
				c.Store64(c.Root().Add(8*i), i+1)
			}
			c.Persist(c.Root(), 80)
		},
		Recover: func(c *Context) { _ = c.Load64(c.Root()) },
	}
	for _, tc := range []struct {
		opts Options
		want int64
	}{
		{Options{Observe: true}, 1},
		{Options{Observe: true, Eviction: EvictAtFences, SBCapacity: 4}, 4},
	} {
		m := New(prog, tc.opts).Run().Metrics
		if m.MaxSBOccupancy != tc.want {
			t.Errorf("%v capacity %d: MaxSBOccupancy = %d, want %d",
				tc.opts.Eviction, tc.opts.SBCapacity, m.MaxSBOccupancy, tc.want)
		}
		// 10 stores, 2 clflushopt and 1 sfence in the pre-failure run alone.
		if m.SBEvictions < 13 {
			t.Errorf("%v capacity %d: SBEvictions = %d, want >= 13", tc.opts.Eviction, tc.opts.SBCapacity, m.SBEvictions)
		}
	}
}
