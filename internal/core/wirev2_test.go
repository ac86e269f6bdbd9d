package core

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"jaaru/internal/obs"
)

// randWireClaims builds a batch of randomized claims in canonical wire shape
// (the shapes encodeClaim emits: limits nil or full-length, memos nil or
// full-length), sharing prefixes the way real frontier batches do.
func randWireClaims(rng *rand.Rand, batch int) []WireClaim {
	kinds := []choiceKind{chooseFail, chooseReadFrom, chooseEvict}
	var prefix []choicePoint
	ws := make([]WireClaim, batch)
	for ci := range ws {
		depth := rng.Intn(8)
		pts := make([]choicePoint, depth)
		// Reuse a shared prefix half the time, like sibling frontier claims.
		if len(prefix) > 0 && rng.Intn(2) == 0 {
			copy(pts, prefix[:min(len(prefix), depth)])
		}
		var limits []int
		memos := make([]*failMemo, depth)
		residual := rng.Intn(2) == 0
		if residual {
			limits = make([]int, depth)
		}
		anyMemo := false
		for i := range pts {
			if pts[i].n == 0 { // not copied from the prefix
				kind := kinds[rng.Intn(len(kinds))]
				n := 1 + rng.Intn(5)
				if kind == chooseFail {
					n = 2
				}
				pts[i] = choicePoint{kind: kind, n: n, idx: rng.Intn(n)}
			}
			if residual {
				p := pts[i]
				limits[i] = p.idx + 1 + rng.Intn(p.n-p.idx)
			}
			if pts[i].kind == chooseFail && rng.Intn(3) == 0 {
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
		prefix = pts
		ws[ci] = encodeClaim(branch{pts, limits, memos})
	}
	return ws
}

// richWireStats builds a stats snapshot exercising every field the codec
// carries: bugs with replay vectors, flagged loads, perf issues,
// and an observability shard with sparse counters and histograms.
func richWireStats() *WireStats {
	pts := []choicePoint{
		{kind: chooseFail, n: 2, idx: 0},
		{kind: chooseReadFrom, n: 4, idx: 1},
		{kind: chooseEvict, n: 3, idx: 2},
	}
	counters := make([]int64, obs.NumCounters)
	counters[obs.Scenarios] = 7
	counters[obs.Steps] = 910
	return &WireStats{
		Scenarios:  7,
		ExecsPost:  7,
		FpointsPre: 5,
		Steps:      910,
		MaxRF:      3,
		NewPoints:  [3]int{4, 2, 1},
		Truncated:  true,
		Bugs: []WireBug{{
			Type:      int(BugAssertion),
			Message:   "second line persisted before first",
			Execution: 1,
			Scenario:  4,
			Count:     2,
			Choices:   "fail@3",
			Replay:    encodePoints(pts),
		}},
		MultiRF: []MultiRF{{
			Loc: "probe.go:12", Addr: 128, Candidates: 3,
			Values: []string{"7", "9"}, Count: 2,
		}},
		PerfIssues: []PerfIssue{{Kind: PerfRedundantFlush, Loc: "probe.go:20", Line: 20, Count: 1}},
		Obs: &WireObs{
			Counters: counters,
			Peaks:    []int64{2},
			Hists: []WireHist{{
				Timer: int(obs.TimerPreFailure), Count: 2, Sum: 300,
				Buckets: [][2]int64{
					{int64(obs.HistBucketIndex(100)), 1},
					{int64(obs.HistBucketIndex(200)), 1},
				},
			}},
		},
	}
}

func richPorEntries() []WirePorEntry {
	suffix := []choicePoint{
		{kind: chooseFail, n: 2, idx: 1},
		{kind: chooseReadFrom, n: 3, idx: 0},
	}
	vec := make([]int64, obs.NumCounters)
	vec[obs.Scenarios] = 2
	return []WirePorEntry{
		{
			FP: 0xabcdef12,
			Delta: WirePorDelta{
				Scenarios: 2, Execs: 2, Steps: 64, MaxRF: 2, MaxRel: 1,
				NewPoints: [3]int{1, 1, 0}, Replayed: 10, Fresh: 54,
				Vec: vec,
				Bugs: []WirePorBug{{
					Type: int(BugAssertion), Message: "torn pair", Exec: 1,
					Count: 1, Rel: "fail@2",
					Suffix: encodePoints(suffix),
				}},
				Perf: []WirePorPerf{{
					Count: 2,
					Issue: PerfIssue{Kind: PerfRedundantFence, Loc: "p.go:3", Line: 3, Count: 2},
				}},
				Multi: []WirePorMulti{{
					Count: 1,
					Multi: MultiRF{Loc: "p.go:9", Addr: 16, Candidates: 2, Values: []string{"0"}, Count: 1},
				}},
			},
		},
		{
			FP: 0x22,
			Delta: WirePorDelta{
				Scenarios: 1, Execs: 1, Steps: 8, NewPoints: [3]int{0, 1, 0}, Fresh: 8,
			},
		},
	}
}

// TestWireV2ClaimRoundTripProperty: randomized claim batches survive the
// binary codec exactly and still validate (grantable verbatim).
func TestWireV2ClaimRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(0x2b52))
	for iter := 0; iter < 500; iter++ {
		ws := randWireClaims(rng, 1+rng.Intn(4))

		e := NewWireEncoder(nil)
		e.Claims(ws)
		d := NewWireDecoder(e.Bytes())
		got := d.Claims()
		if err := d.Done(); err != nil {
			t.Fatalf("iter %d: decode: %v", iter, err)
		}
		if !reflect.DeepEqual(got, ws) {
			t.Fatalf("iter %d: v2 round trip differs:\nwant %+v\ngot  %+v", iter, ws, got)
		}
		for i := range got {
			if err := got[i].Validate(); err != nil {
				t.Fatalf("iter %d: decoded claim %d invalid: %v", iter, i, err)
			}
		}
	}
}

// TestWireV2DeepSharedPrefixTail: a batch of chained residual claims — each
// sharing all but one point with its predecessor, no limits, no memos — puts
// point streams whose declared length far exceeds their wire footprint at the
// very end of the message. Interned points cost zero bytes, so a decoder
// plausibility bound that charges a byte per point rejects this valid shape
// (observed live: a 4-worker lease grant of donated splits). Must round-trip.
func TestWireV2DeepSharedPrefixTail(t *testing.T) {
	mk := func(n int) WireClaim {
		pts := make([]WirePoint, n)
		for i := range pts {
			pts[i] = WirePoint{Kind: "rf", N: 2, Idx: i % 2}
		}
		return WireClaim{Points: pts}
	}
	// Descending lengths: each claim is a fresh prefix chain ending in a
	// different last point, so shared = len-1 against its predecessor's
	// truncation — the exact shape handleLease emits for split donations.
	batch := []WireClaim{mk(18), mk(17), mk(16), mk(15), mk(14)}

	e := NewWireEncoder(nil)
	e.Claims(batch)
	wire := e.Bytes()
	// The whole point of the test: the tail claims must be mostly interned,
	// leaving fewer wire bytes than declared points.
	if len(wire) > 80 {
		t.Fatalf("batch no longer interns tightly (%d bytes); test shape is stale", len(wire))
	}

	d := NewWireDecoder(wire)
	got := d.Claims()
	if err := d.Done(); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, batch) {
		t.Fatalf("deep-shared-prefix batch differs:\nwant %+v\ngot  %+v", batch, got)
	}
}

// TestWireV2StatsRoundTrip: a fully populated stats snapshot (and the nil
// absence marker) survive the binary codec bit-exactly.
func TestWireV2StatsRoundTrip(t *testing.T) {
	ws := richWireStats()
	e := NewWireEncoder(nil)
	e.Stats(ws)
	d := NewWireDecoder(e.Bytes())
	got := d.Stats()
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ws) {
		t.Errorf("stats round trip differs:\nwant %+v\ngot  %+v", ws, got)
	}

	e.Reset()
	e.Stats(nil)
	d = NewWireDecoder(e.Bytes())
	if got := d.Stats(); got != nil || d.Done() != nil {
		t.Errorf("nil stats round trip: got %+v, err %v", got, d.Done())
	}
}

// TestWireV2PorEntriesRoundTrip: publication-log batches with bugs, perf
// deltas, and flagged loads survive the binary codec exactly.
func TestWireV2PorEntriesRoundTrip(t *testing.T) {
	es := richPorEntries()
	e := NewWireEncoder(nil)
	e.PorEntries(es)
	d := NewWireDecoder(e.Bytes())
	got := d.PorEntries()
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, es) {
		t.Errorf("por round trip differs:\nwant %+v\ngot  %+v", es, got)
	}
	for i := range got {
		if err := AbsorbPorEntry(&got[i]); err != nil {
			t.Errorf("decoded por entry %d invalid: %v", i, err)
		}
	}
}

// TestWireV2CompositeMessage: the codec has no sub-message framing, so a
// commit-shaped sequence (claims, more claims, stats, por log) must decode
// through one decoder in encode order — exactly how internal/dist frames it.
func TestWireV2CompositeMessage(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	splits := randWireClaims(rng, 2)
	residuals := randWireClaims(rng, 3)
	ws := richWireStats()
	es := richPorEntries()

	e := NewWireEncoder(nil)
	e.Claims(splits)
	e.Claims(residuals)
	e.Stats(ws)
	e.PorEntries(es)

	d := NewWireDecoder(e.Bytes())
	gotSplits := d.Claims()
	gotResiduals := d.Claims()
	gotStats := d.Stats()
	gotEs := d.PorEntries()
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotSplits, splits) || !reflect.DeepEqual(gotResiduals, residuals) ||
		!reflect.DeepEqual(gotStats, ws) || !reflect.DeepEqual(gotEs, es) {
		t.Error("composite message did not round trip field-for-field")
	}
}

// TestWireV2SmallerThanJSON: the codec's reason to exist — a realistic
// commit payload (prefix-sharing claims + stats + por) must be much smaller
// in v2 than as JSON.
func TestWireV2SmallerThanJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	claims := randWireClaims(rng, 8)
	ws := richWireStats()

	e := NewWireEncoder(nil)
	e.Claims(claims)
	e.Stats(ws)
	v2 := len(e.Bytes())

	j1, _ := json.Marshal(claims)
	j2, _ := json.Marshal(ws)
	v1 := len(j1) + len(j2)
	if v2*2 > v1 {
		t.Errorf("v2 payload %dB is not at least 2x smaller than JSON %dB", v2, v1)
	}
}

// TestWireV2DecoderRejectsMalformed: the decoder must fail cleanly — sticky
// error, no panic, no silent truncation — on hostile or skewed input.
func TestWireV2DecoderRejectsMalformed(t *testing.T) {
	e := NewWireEncoder(nil)
	e.Claims(randWireClaims(rand.New(rand.NewSource(3)), 3))
	good := e.Bytes()

	// Every truncation of a valid message must error (via Err or Done), not
	// decode to a plausible value.
	for cut := 0; cut < len(good); cut++ {
		d := NewWireDecoder(good[:cut])
		d.Claims()
		if d.Err() == nil && d.Done() == nil {
			t.Fatalf("truncation at %d/%d decoded cleanly", cut, len(good))
		}
	}

	// Trailing garbage after a complete message is a framing error.
	d := NewWireDecoder(append(append([]byte(nil), good...), 0xee))
	d.Claims()
	if err := d.Done(); err == nil {
		t.Error("trailing bytes accepted")
	}

	// A shared-prefix count pointing past the interning context must fail.
	bad := NewWireEncoder(nil)
	bad.Uvarint(1) // one claim
	bad.Uvarint(2) // two points
	bad.Uvarint(2) // sharing 2 points of an empty context
	d = NewWireDecoder(bad.Bytes())
	d.Claims()
	if d.Err() == nil {
		t.Error("out-of-context shared prefix accepted")
	}

	// An unknown kind code must fail rather than alias a real kind.
	bad = NewWireEncoder(nil)
	bad.Uvarint(1)
	bad.Uvarint(1)
	bad.Uvarint(0)
	bad.Byte(0x7f)
	bad.Int(2)
	bad.Int(0)
	bad.Bool(false)
	bad.Bool(false)
	d = NewWireDecoder(bad.Bytes())
	d.Claims()
	if d.Err() == nil {
		t.Error("unknown kind code accepted")
	}

	// Allocation stays in proportion to the message. Interning makes a
	// stream's length independent of its bytes, so claims that each re-share
	// one long prefix must hit the per-message point budget instead of
	// decoding to their product; and no vector is wider than the counters.
	long := make([]WirePoint, 600)
	for i := range long {
		long[i] = WirePoint{Kind: "rf", N: 2}
	}
	batch := make([]WireClaim, 1000)
	for i := range batch {
		batch[i] = WireClaim{Points: long}
	}
	bad = NewWireEncoder(nil)
	bad.Claims(batch)
	d = NewWireDecoder(bad.Bytes())
	if d.Claims(); d.Err() == nil {
		t.Errorf("%d bytes decoded to %d points", len(bad.Bytes()), len(batch)*len(long))
	}
	bad = NewWireEncoder(nil)
	bad.Stats(&WireStats{Obs: &WireObs{Counters: make([]int64, obs.NumCounters+1)}})
	d = NewWireDecoder(bad.Bytes())
	if d.Stats(); d.Err() == nil {
		t.Error("a vector wider than the counter space decoded")
	}

	// An unknown-but-escaped kind survives (future-proofing) and is caught
	// by Validate, not the codec.
	esc := NewWireEncoder(nil)
	esc.Claims([]WireClaim{{Points: []WirePoint{{Kind: "coin", N: 2, Idx: 0}}}})
	d = NewWireDecoder(esc.Bytes())
	got := d.Claims()
	if err := d.Done(); err != nil {
		t.Fatalf("escaped kind did not round trip: %v", err)
	}
	if got[0].Points[0].Kind != "coin" {
		t.Errorf("escaped kind = %q, want %q", got[0].Points[0].Kind, "coin")
	}
	if got[0].Validate() == nil {
		t.Error("unknown kind passed Validate")
	}
}

const goldenPath = "testdata/wire_golden_v2.hex"

// goldenClaims is the claim batch of the golden message: a residual with a
// POR-clamped limit and a memo, and a frozen split sharing its prefix.
func goldenClaims() []WireClaim {
	pts := []choicePoint{
		{kind: chooseFail, n: 2, idx: 0},
		{kind: chooseReadFrom, n: 4, idx: 1},
		{kind: chooseFail, n: 2, idx: 0},
		{kind: chooseEvict, n: 3, idx: 2},
	}
	memos := make([]*failMemo, len(pts))
	var vec obs.CounterVec
	vec[obs.Scenarios] = 3
	vec[obs.Steps] = 512
	memos[2] = &failMemo{fp: 0xfeedface, steps: 321, vec: vec}
	return []WireClaim{encodeClaim(branch{pts, []int{1, 3, 2, 3}, memos}), encodeClaim(branch{points: pts[:2]})}
}

// TestWireV2GoldenFixture freezes the wire format's bytes. A diff here means
// the codec changed shape: workers and coordinators from different builds
// would misparse each other, so bump deliberately (and regenerate with
// UPDATE_GOLDEN=1 go test ./internal/core/ -run TestWireV2GoldenFixture).
func TestWireV2GoldenFixture(t *testing.T) {
	// One composite message covering every encoder entry point, in the
	// field order a commit frame uses.
	e := NewWireEncoder(nil)
	e.Claims(goldenClaims())
	e.Stats(richWireStats())
	e.PorEntries(richPorEntries())

	got := []byte(hexDump(e.Bytes()))
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("wire format drifted from golden fixture %s:\n--- want\n%s\n--- got\n%s", goldenPath, want, got)
	}
}

// TestWireGoldenFixture pins the golden bytes' meaning: the committed message
// decodes to exactly the structs it was made from, and re-encodes to the
// same bytes.
func TestWireGoldenFixture(t *testing.T) {
	text, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	data, err := hex.DecodeString(strings.ReplaceAll(string(text), "\n", ""))
	if err != nil {
		t.Fatal(err)
	}
	d := NewWireDecoder(data)
	claims, stats, por := d.Claims(), d.Stats(), d.PorEntries()
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(claims, goldenClaims()) {
		t.Errorf("golden claims decode to %+v, want %+v", claims, goldenClaims())
	}
	if !reflect.DeepEqual(stats, richWireStats()) || !reflect.DeepEqual(por, richPorEntries()) {
		t.Errorf("golden stats/por decode mismatch:\n%+v\n%+v", stats, por)
	}
	e := NewWireEncoder(nil)
	e.Claims(claims)
	e.Stats(stats)
	e.PorEntries(por)
	if !bytes.Equal(e.Bytes(), data) {
		t.Error("decoded golden message re-encodes to different bytes")
	}
}

// hexDump renders bytes as lowercase hex, 32 bytes per line, trailing
// newline — a line-diffable fixture format.
func hexDump(b []byte) string {
	var sb strings.Builder
	for off := 0; off < len(b); off += 32 {
		end := min(off+32, len(b))
		sb.WriteString(hex.EncodeToString(b[off:end]))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestDiffWireStatsSequentialAbsorption: absorbing a lease's delta commits
// in sequence must land the coordinator in exactly the state absorbing the
// final cumulative snapshot once would have — the soundness condition of
// the delta-commit protocol.
func TestDiffWireStatsSequentialAbsorption(t *testing.T) {
	replay := encodePoints([]choicePoint{{kind: chooseFail, n: 2, idx: 1}})
	counters := func(scen, steps int64) []int64 {
		v := make([]int64, obs.NumCounters)
		v[obs.Scenarios] = scen
		v[obs.Steps] = steps
		return v
	}
	// Three cumulative snapshots of one worker: counts only grow, the bug
	// representative improves canonically ("b" -> "a"), a second bug and a
	// perf issue appear mid-lease, histogram buckets fill in.
	cum1 := &WireStats{
		Scenarios: 3, ExecsPost: 3, FpointsPre: 4, Steps: 100, MaxRF: 2,
		NewPoints: [3]int{1, 1, 0},
		Bugs: []WireBug{{Type: 1, Message: "m", Execution: 2, Scenario: 1,
			Count: 1, Choices: "b", Replay: replay}},
		MultiRF: []MultiRF{{Loc: "x.go:1", Addr: 8, Candidates: 2, Values: []string{"3"}, Count: 1}},
		Obs: &WireObs{Counters: counters(3, 100), Peaks: []int64{1},
			Hists: []WireHist{{Timer: 0, Count: 1, Sum: 50, Buckets: [][2]int64{{4, 1}}}}},
	}
	cum2 := &WireStats{
		Scenarios: 7, ExecsPost: 7, FpointsPre: 5, Steps: 250, MaxRF: 3,
		NewPoints: [3]int{2, 1, 1},
		Bugs: []WireBug{
			{Type: 1, Message: "m", Execution: 1, Scenario: 1, Count: 3, Choices: "a", Replay: replay},
			{Type: 2, Message: "n", Execution: 5, Scenario: 6, Count: 1, Choices: "c"},
		},
		// The flagged load's representative legitimately changed: a bigger
		// candidate set displaced it, the same join the worker's own
		// flagMultiRF applies (a representative never changes otherwise).
		MultiRF:    []MultiRF{{Loc: "x.go:1", Addr: 8, Candidates: 3, Values: []string{"3", "5", "7"}, Count: 2}},
		PerfIssues: []PerfIssue{{Kind: PerfRedundantFlush, Loc: "x.go:2", Line: 2, Count: 1}},
		Obs: &WireObs{Counters: counters(7, 250), Peaks: []int64{2},
			Hists: []WireHist{{Timer: 0, Count: 3, Sum: 150, Buckets: [][2]int64{{4, 2}, {6, 1}}}}},
	}
	cum3 := &WireStats{
		Scenarios: 10, ExecsPost: 10, FpointsPre: 5, Steps: 400, MaxRF: 3,
		NewPoints: [3]int{2, 2, 1},
		Bugs: []WireBug{
			{Type: 1, Message: "m", Execution: 1, Scenario: 1, Count: 4, Choices: "a", Replay: replay},
			{Type: 2, Message: "n", Execution: 5, Scenario: 6, Count: 2, Choices: "c"},
		},
		MultiRF:    []MultiRF{{Loc: "x.go:1", Addr: 8, Candidates: 3, Values: []string{"3", "5", "7"}, Count: 3}},
		PerfIssues: []PerfIssue{{Kind: PerfRedundantFlush, Loc: "x.go:2", Line: 2, Count: 2}},
		Obs: &WireObs{Counters: counters(10, 400), Peaks: []int64{2},
			Hists: []WireHist{{Timer: 0, Count: 5, Sum: 260, Buckets: [][2]int64{{4, 3}, {6, 2}}}}},
	}

	prog := Program{Name: "delta-probe", Run: func(*Context) {}}
	opts := Options{Observe: true}

	seq := NewMergeAcc(prog, opts)
	var prev *WireStats
	for _, cum := range []*WireStats{cum1, cum2, cum3} {
		if err := seq.Absorb(DiffWireStats(cum, prev)); err != nil {
			t.Fatal(err)
		}
		prev = cum
	}
	oneShot := NewMergeAcc(prog, opts)
	if err := oneShot.Absorb(DiffWireStats(cum3, nil)); err != nil {
		t.Fatal(err)
	}

	a, b := seq.BuildResult(true), oneShot.BuildResult(true)
	if a.Scenarios != b.Scenarios || a.Executions != b.Executions ||
		a.FailurePoints != b.FailurePoints || a.Steps != b.Steps ||
		a.RFChoicePoints != b.RFChoicePoints || a.FailDecisionPoints != b.FailDecisionPoints ||
		a.MaxRFCandidates != b.MaxRFCandidates || a.Complete != b.Complete {
		t.Errorf("scalar results differ:\nseq %+v\none %+v", a, b)
	}
	if len(a.Bugs) != len(b.Bugs) {
		t.Fatalf("bugs = %d vs %d", len(a.Bugs), len(b.Bugs))
	}
	for i := range a.Bugs {
		x, y := a.Bugs[i], b.Bugs[i]
		if x.Type != y.Type || x.Message != y.Message || x.Execution != y.Execution ||
			x.Scenario != y.Scenario || x.Count != y.Count || x.Choices != y.Choices ||
			!reflect.DeepEqual(x.Trace(64), y.Trace(64)) || !reflect.DeepEqual(x.replay, y.replay) {
			t.Errorf("bug %d differs:\nseq %+v\none %+v", i, *x, *y)
		}
	}
	if len(a.MultiRF) != len(b.MultiRF) || len(a.PerfIssues) != len(b.PerfIssues) {
		t.Fatalf("finding counts differ: %d/%d vs %d/%d",
			len(a.MultiRF), len(a.PerfIssues), len(b.MultiRF), len(b.PerfIssues))
	}
	for i := range a.MultiRF {
		if !reflect.DeepEqual(*a.MultiRF[i], *b.MultiRF[i]) {
			t.Errorf("multiRF %d differs:\nseq %+v\none %+v", i, *a.MultiRF[i], *b.MultiRF[i])
		}
	}
	for i := range a.PerfIssues {
		if !reflect.DeepEqual(*a.PerfIssues[i], *b.PerfIssues[i]) {
			t.Errorf("perf issue %d differs:\nseq %+v\none %+v", i, *a.PerfIssues[i], *b.PerfIssues[i])
		}
	}
	if a.Metrics == nil || b.Metrics == nil {
		t.Fatal("Observe run produced no metrics")
	}
	ac, bc := a.Metrics.Canonical(), b.Metrics.Canonical()
	if !reflect.DeepEqual(ac, bc) {
		t.Errorf("canonical metrics differ:\nseq %+v\none %+v", ac, bc)
	}
}
