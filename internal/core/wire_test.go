package core

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"jaaru/internal/obs"
)

// TestWireClaimRoundTripProperty: randomized chooser claims — frozen donated
// prefixes, residuals with partial limits, POR-clamped fail decisions, and
// failMemo aux state — survive encode -> JSON -> decode -> compile exactly.
func TestWireClaimRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(0x1a52))
	kinds := []choiceKind{chooseFail, chooseReadFrom, chooseEvict}
	for iter := 0; iter < 1000; iter++ {
		depth := rng.Intn(8)
		pts := make([]choicePoint, depth)
		var limits []int
		memos := make([]*failMemo, depth)
		residual := rng.Intn(2) == 0
		if residual {
			limits = make([]int, depth)
		}
		anyMemo := false
		for i := range pts {
			kind := kinds[rng.Intn(len(kinds))]
			n := 1 + rng.Intn(5)
			if kind == chooseFail {
				n = 2 // fail decisions are binary
			}
			idx := rng.Intn(n)
			pts[i] = choicePoint{kind: kind, n: n, idx: idx}
			if residual {
				// idx < limit <= n; for a clamped fail decision the limit
				// equals idx+1 (the sibling was pruned by POR and its delta
				// already committed).
				limits[i] = idx + 1 + rng.Intn(n-idx)
				if kind == chooseFail && idx == 0 && rng.Intn(3) == 0 {
					limits[i] = 1 // POR clamp
				}
			}
			if kind == chooseFail && rng.Intn(2) == 0 {
				m := &failMemo{fp: rng.Uint64(), steps: rng.Int63n(1 << 20)}
				if rng.Intn(2) == 0 {
					m.vec[obs.Scenarios] = rng.Int63n(100)
					m.vec[obs.Steps] = rng.Int63n(10000)
				}
				memos[i] = m
				anyMemo = true
			}
		}
		if !anyMemo {
			memos = nil
		}

		w := encodeClaim(pts, limits, memos)
		data, err := json.Marshal(w)
		if err != nil {
			t.Fatalf("iter %d: marshal: %v", iter, err)
		}
		var back WireClaim
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("iter %d: unmarshal: %v", iter, err)
		}
		gp, gl, gm, err := back.compile()
		if err != nil {
			t.Fatalf("iter %d: compile: %v\nclaim: %s", iter, err, data)
		}
		if !reflect.DeepEqual(gp, pts) && !(len(gp) == 0 && len(pts) == 0) {
			t.Fatalf("iter %d: points differ:\nwant %v\ngot  %v", iter, pts, gp)
		}
		if !reflect.DeepEqual(gl, limits) && !(len(gl) == 0 && len(limits) == 0) {
			t.Fatalf("iter %d: limits differ:\nwant %v\ngot  %v", iter, limits, gl)
		}
		wantMemos := memos
		if !anyMemo {
			wantMemos = nil
		}
		if !reflect.DeepEqual(gm, wantMemos) && !(len(gm) == 0 && len(wantMemos) == 0) {
			t.Fatalf("iter %d: memos differ:\nwant %v\ngot  %v", iter, wantMemos, gm)
		}
	}
}

// TestWireClaimSeedClaimRoundTrip: a decoded claim seeds a chooser whose
// immediate claimSnapshot re-encodes to the identical wire form — the
// exactness residual commits and expiry-requeues depend on.
func TestWireClaimSeedClaimRoundTrip(t *testing.T) {
	pts := []choicePoint{
		{kind: chooseFail, n: 2, idx: 0},
		{kind: chooseReadFrom, n: 4, idx: 1},
		{kind: chooseFail, n: 2, idx: 0},
		{kind: chooseEvict, n: 3, idx: 2},
	}
	limits := []int{1, 3, 2, 3} // first fail decision POR-clamped
	memos := make([]*failMemo, len(pts))
	memos[2] = &failMemo{fp: 0xfeedface, steps: 321}
	w := encodeClaim(pts, limits, memos)

	gp, gl, gm, err := w.compile()
	if err != nil {
		t.Fatal(err)
	}
	ch := &chooser{}
	ch.seedClaim(gp, gl, gm)
	rp, rl, rm := ch.claimSnapshot()
	if again := encodeClaim(rp, rl, rm); !reflect.DeepEqual(again, w) {
		t.Errorf("claimSnapshot re-encode differs:\nwant %+v\ngot  %+v", w, again)
	}
}

func TestWireClaimCompileRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		w    WireClaim
	}{
		{"unknown kind", WireClaim{Points: []WirePoint{{Kind: "coin", N: 2, Idx: 0}}}},
		{"idx out of range", WireClaim{Points: []WirePoint{{Kind: "rf", N: 2, Idx: 2}}}},
		{"negative idx", WireClaim{Points: []WirePoint{{Kind: "rf", N: 2, Idx: -1}}}},
		{"zero n", WireClaim{Points: []WirePoint{{Kind: "fail", N: 0, Idx: 0}}}},
		{"limit count mismatch", WireClaim{Points: []WirePoint{{Kind: "rf", N: 2, Idx: 0}}, Limits: []int{1, 2}}},
		{"limit below idx", WireClaim{Points: []WirePoint{{Kind: "rf", N: 3, Idx: 2}}, Limits: []int{2}}},
		{"limit above n", WireClaim{Points: []WirePoint{{Kind: "rf", N: 3, Idx: 0}}, Limits: []int{4}}},
		{"memo count mismatch", WireClaim{Points: []WirePoint{{Kind: "fail", N: 2, Idx: 0}}, Memos: []*WireMemo{nil, {}}}},
		{"memo on non-fail point", WireClaim{Points: []WirePoint{{Kind: "rf", N: 2, Idx: 0}}, Memos: []*WireMemo{{FP: 1}}}},
		{"memo vec length", WireClaim{Points: []WirePoint{{Kind: "fail", N: 2, Idx: 0}}, Memos: []*WireMemo{{FP: 1, Vec: []int64{1, 2}}}}},
	}
	for _, tc := range cases {
		err := tc.w.Validate()
		if err == nil {
			t.Errorf("%s: validated without error", tc.name)
			continue
		}
		if _, _, _, cerr := tc.w.compile(); cerr == nil || cerr.Error() != err.Error() {
			t.Errorf("%s: compile error %v, Validate %v", tc.name, cerr, err)
		}
	}
}

// TestWireClaimValidateAllocFree: the coordinator validates every split and
// residual of every commit, and a residual is as deep as the guest's
// failure-point chain — validation must check the wire form where it lies,
// not build the compiled claim and drop it.
func TestWireClaimValidateAllocFree(t *testing.T) {
	const depth = 600
	pts := make([]choicePoint, depth)
	limits := make([]int, depth)
	memos := make([]*failMemo, depth)
	for i := range pts {
		pts[i] = choicePoint{kind: chooseFail, n: 2}
		limits[i] = 1 + i%2
		memos[i] = &failMemo{fp: uint64(i), steps: int64(i)}
		memos[i].vec[obs.Steps] = int64(i)
	}
	pts[depth-1] = choicePoint{kind: chooseReadFrom, n: 4, idx: 1}
	limits[depth-1], memos[depth-1] = 3, nil
	w := encodeClaim(pts, limits, memos)
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _ = w.Validate() }); n != 0 {
		t.Errorf("Validate allocates %.0f times on a %d-point claim, want 0", n, depth)
	}
}

// TestWireGoldenFixture freezes the JSON wire format. A diff here means the
// protocol changed: coordinator and workers from different builds would stop
// interoperating, so bump deliberately (and update the fixture with
// UPDATE_GOLDEN=1 go test ./internal/core/ -run TestWireGoldenFixture).
func TestWireGoldenFixture(t *testing.T) {
	pts := []choicePoint{
		{kind: chooseFail, n: 2, idx: 0},
		{kind: chooseReadFrom, n: 4, idx: 1},
		{kind: chooseFail, n: 2, idx: 0},
		{kind: chooseEvict, n: 3, idx: 2},
	}
	limits := []int{1, 3, 2, 3}
	memos := make([]*failMemo, len(pts))
	var vec obs.CounterVec
	vec[obs.Scenarios] = 3
	vec[obs.Steps] = 512
	memos[2] = &failMemo{fp: 0xfeedface, steps: 321, vec: vec}

	fixture := struct {
		Claim  WireClaim      `json:"claim"`
		Frozen WireClaim      `json:"frozen"`
		Stats  WireStats      `json:"stats"`
		Por    []WirePorEntry `json:"por"`
	}{
		Claim:  encodeClaim(pts, limits, memos),
		Frozen: encodeClaim(pts[:2], nil, nil),
		Stats: WireStats{
			Scenarios:  7,
			ExecsPost:  7,
			FpointsPre: 5,
			Steps:      910,
			MaxRF:      3,
			NewPoints:  [3]int{4, 2, 1},
			Bugs: []WireBug{{
				Type:      int(BugAssertion),
				Message:   "second line persisted before first",
				Execution: 1,
				Scenario:  4,
				Count:     2,
				Choices:   "fail@3",
				Replay:    encodePoints(pts[:1]),
			}},
			MultiRF:    []MultiRF{{Loc: "probe.go:12", Count: 2, Values: []string{"7", "9"}}},
			PerfIssues: []PerfIssue{{Kind: PerfRedundantFlush, Loc: "probe.go:20", Count: 1}},
			Obs: &WireObs{Counters: []int64{7, 7}, Peaks: []int64{2},
				Hists: []WireHist{{
					Timer: int(obs.TimerPreFailure), Count: 2, Sum: 300,
					Buckets: [][2]int64{
						{int64(obs.HistBucketIndex(100)), 1},
						{int64(obs.HistBucketIndex(200)), 1},
					},
				}}},
		},
		Por: []WirePorEntry{{
			FP: 0xabcdef12,
			Delta: WirePorDelta{
				Scenarios: 2, Execs: 2, Steps: 64, MaxRF: 2, MaxRel: 1,
				NewPoints: [3]int{1, 1, 0}, Replayed: 10, Fresh: 54,
			},
		}},
	}

	got, err := json.MarshalIndent(fixture, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "wire_golden.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("wire format drifted from golden fixture %s:\n--- want\n%s\n--- got\n%s", path, want, got)
	}
}

// TestWireStatsCompileMergesLikeParallel: a compiled WireStats folds into an
// aggregate through the same mergeBug/mergeMultiRF paths the in-process
// parallel driver uses — duplicate bug keys sum counts and keep the
// canonically smallest representative.
func TestWireStatsCompileMergesLikeParallel(t *testing.T) {
	ws := &WireStats{
		Scenarios: 3,
		Bugs: []WireBug{
			{Type: int(BugExplicit), Message: "m", Execution: 1, Count: 2, Choices: "b"},
			{Type: int(BugExplicit), Message: "m", Execution: 1, Count: 1, Choices: "a"},
		},
		MultiRF:    []MultiRF{{Loc: "x.go:1", Count: 1, Values: []string{"1"}}},
		PerfIssues: []PerfIssue{{Kind: PerfRedundantFlush, Loc: "x.go:2", Count: 2}},
	}
	s, err := compileStats(ws)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.bugs) != 1 {
		t.Fatalf("bugs = %d, want 1 (same canonical key)", len(s.bugs))
	}
	for _, b := range s.bugs {
		if b.Count != 3 {
			t.Errorf("merged Count = %d, want 3", b.Count)
		}
		if b.Choices != "a" {
			t.Errorf("representative Choices = %q, want the canonically smallest %q", b.Choices, "a")
		}
	}
	if len(s.multiRF) != 1 || len(s.perfIssues) != 1 {
		t.Errorf("multiRF/perf = %d/%d entries, want 1/1", len(s.multiRF), len(s.perfIssues))
	}
}

// TestWireStatsValidateRejectsMalformed: the coordinator validates every
// commit's cumulative stats at ingest; Validate must catch each class of
// malformation its later unchecked Absorb would otherwise swallow.
func TestWireStatsValidateRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		ws   WireStats
	}{
		{"negative scenarios", WireStats{Scenarios: -1}},
		{"negative execs", WireStats{ExecsPost: -2}},
		{"bad replay point", WireStats{Bugs: []WireBug{{Replay: []WirePoint{{Kind: "coin", N: 2}}}}}},
		{"obs counter width", WireStats{Obs: &WireObs{Counters: []int64{1, 2}}}},
		{"hist timer range", WireStats{Obs: &WireObs{Counters: make([]int64, obs.NumCounters),
			Hists: []WireHist{{Timer: obs.NumTimers, Count: 0}}}}},
		{"hist bucket order", WireStats{Obs: &WireObs{Counters: make([]int64, obs.NumCounters),
			Hists: []WireHist{{Timer: 0, Count: 2, Buckets: [][2]int64{{5, 1}, {5, 1}}}}}}},
		{"hist bucket range", WireStats{Obs: &WireObs{Counters: make([]int64, obs.NumCounters),
			Hists: []WireHist{{Timer: 0, Count: 1, Buckets: [][2]int64{{int64(obs.NumHistBuckets), 1}}}}}}},
		{"hist count mismatch", WireStats{Obs: &WireObs{Counters: make([]int64, obs.NumCounters),
			Hists: []WireHist{{Timer: 0, Count: 3, Buckets: [][2]int64{{5, 1}}}}}}},
		{"hist negative bucket count", WireStats{Obs: &WireObs{Counters: make([]int64, obs.NumCounters),
			Hists: []WireHist{{Timer: 0, Count: -1, Buckets: [][2]int64{{5, -1}}}}}}},
	}
	for _, tc := range cases {
		if err := tc.ws.Validate(); err == nil {
			t.Errorf("%s: Validate accepted malformed stats", tc.name)
		}
	}
	good := WireStats{Scenarios: 3}
	if err := good.Validate(); err != nil {
		t.Errorf("valid stats rejected: %v", err)
	}
}
