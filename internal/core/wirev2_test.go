package core

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"jaaru/internal/obs"
)

// randWireClaims builds a batch of randomized claims in the shapes the
// engine produces (limits nil or full-length, memos nil or full-length),
// sharing prefixes the way real frontier batches do.
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
		residual := depth > 0 && rng.Intn(2) == 0
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
				m := &failMemo{fp: rng.Uint64(), acct: account{steps: rng.Int63n(1 << 20)}}
				if rng.Intn(2) == 0 {
					m.acct.vec = new(obs.CounterVec)
					m.acct.vec[obs.Scenarios] = rng.Int63n(100)
					m.acct.vec[obs.Steps] = rng.Int63n(10000)
				}
				memos[i] = m
				anyMemo = true
			}
		}
		if !anyMemo {
			memos = nil
		}
		if depth == 0 {
			pts = nil // an empty vector decodes as nil
		}
		prefix = pts
		ws[ci] = WireClaim{pts, limits, memos}
	}
	return ws
}

// newWireStats is an empty stats batch ready for findings.
func newWireStats() *WireStats {
	ws := &WireStats{}
	ws.initStats()
	return ws
}

// histOf is a histogram snapshot with the given bucket counts.
func histOf(sum int64, buckets map[int]int64) obs.HistSnapshot {
	h := obs.HistSnapshot{Sum: sum}
	for i, n := range buckets {
		if i >= len(h.Counts) {
			h.Counts = append(h.Counts, make([]int64, i+1-len(h.Counts))...)
		}
		h.Counts[i] = n
		h.Count += n
	}
	return h
}

// richWireStats builds a stats snapshot exercising every field the codec
// carries: bugs with replay vectors, flagged loads, perf issues,
// and an observability shard with sparse counters and histograms.
func richWireStats() *WireStats {
	ws := newWireStats()
	ws.scenarios, ws.execsPost, ws.fpointsPre, ws.totalSteps, ws.maxRF = 7, 7, 5, 910, 3
	ws.newPoints = [3]int{4, 2, 1}
	ws.truncated = true
	ws.mergeBug(&BugReport{
		Type:      BugAssertion,
		Message:   "second line persisted before first",
		Execution: 1,
		Scenario:  4,
		Count:     2,
		Choices:   "fail@3",
		replay: []choicePoint{
			{kind: chooseFail, n: 2, idx: 0},
			{kind: chooseReadFrom, n: 4, idx: 1},
			{kind: chooseEvict, n: 3, idx: 2},
		},
	})
	ws.mergeMultiRF("probe.go:12", &MultiRF{
		Loc: "probe.go:12", Addr: 128, Candidates: 3,
		Values: []string{"7", "9"}, Count: 2,
	})
	ws.mergePerfIssue(perfKey(PerfRedundantFlush, "probe.go:20"),
		&PerfIssue{Kind: PerfRedundantFlush, Loc: "probe.go:20", Line: 20, Count: 1})
	ws.observed = true
	ws.counters[obs.Scenarios] = 7
	ws.counters[obs.Steps] = 910
	ws.peaks[obs.PeakRFCandidates] = 2
	ws.hists[obs.TimerPreFailure] = histOf(300, map[int]int64{
		obs.HistBucketIndex(100): 1,
		obs.HistBucketIndex(200): 1,
	})
	return ws
}

func richPorEntries() []WirePorEntry {
	d := &porDelta{
		scenarios: 2, execs: 2, maxRF: 2, maxRel: 1,
		newPoints: [3]int{1, 1, 0}, replayed: 10, fresh: 54,
		bugs: []porBug{{
			typ: BugAssertion, msg: "torn pair", exec: 1, count: 1, rel: "fail@2",
			suffix: []choicePoint{
				{kind: chooseFail, n: 2, idx: 1},
				{kind: chooseReadFrom, n: 3, idx: 0},
			},
		}},
		acct: account{steps: 64, vec: &obs.CounterVec{obs.Scenarios: 2}, found: &findings{
			perf: []perfShare{{
				key: perfKey(PerfRedundantFence, "p.go:3"),
				n:   2,
				rep: PerfIssue{Kind: PerfRedundantFence, Loc: "p.go:3", Line: 3, Count: 2},
			}},
			multi: []multiShare{{
				key: "p.go:9",
				n:   1,
				rep: MultiRF{Loc: "p.go:9", Addr: 16, Candidates: 2, Values: []string{"0"}, Count: 1},
			}},
		}},
	}
	return []WirePorEntry{
		{0xabcdef12, d},
		{0x22, &porDelta{scenarios: 1, execs: 1, acct: account{steps: 8}, newPoints: [3]int{0, 1, 0}, fresh: 8}},
	}
}

// TestWireV2ClaimRoundTripProperty: randomized claim batches survive the
// binary codec exactly.
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
		pts := make([]choicePoint, n)
		for i := range pts {
			pts[i] = choicePoint{kind: chooseReadFrom, n: 2, idx: i % 2}
		}
		return WireClaim{points: pts}
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

// rawStatsShard is a stats message with no counts or findings whose obs
// shard write encodes: the encoder cannot produce a malformed shard from the
// engine's fixed-width types, so these cases write it field by field.
func rawStatsShard(write func(e *WireEncoder)) []byte {
	e := NewWireEncoder(nil)
	e.Stats(&WireStats{})
	e.buf = e.buf[:len(e.buf)-1] // the shard's absence flag
	e.Bool(true)
	write(e)
	return e.Bytes()
}

// fullCounters writes an all-zero counter vector of the right width.
func fullCounters(e *WireEncoder) {
	e.Uvarint(uint64(obs.NumCounters))
	e.Uvarint(0)
}

// fullPeaks writes an all-zero peak vector of the right width.
func fullPeaks(e *WireEncoder) {
	e.Uvarint(uint64(obs.NumPeaks))
	e.Uvarint(0)
}

// rejectCase is one decoder check: a message well-formed but for the field
// the case names, the reader that decodes it (Claims when nil), and a
// fragment the decode error must mention. The encoder writes whatever
// engine value it is handed, so most cases are an invalid engine value,
// encoded.
type rejectCase struct {
	name, want string
	msg        []byte
	read       func(d *WireDecoder)
}

// checkRejects decodes each case's message and wants Done to report the
// case's error.
func checkRejects(t *testing.T, cases []rejectCase) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			read := tc.read
			if read == nil {
				read = func(d *WireDecoder) { d.Claims() }
			}
			d := NewWireDecoder(tc.msg)
			read(d)
			if err := d.Done(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("decode error %v, want one mentioning %q", err, tc.want)
			}
		})
	}
}

func claimsMsg(ws ...WireClaim) []byte {
	e := NewWireEncoder(nil)
	e.Claims(ws)
	return e.Bytes()
}

func statsMsg(edit func(ws *WireStats)) []byte {
	ws := newWireStats()
	edit(ws)
	e := NewWireEncoder(nil)
	e.Stats(ws)
	return e.Bytes()
}

// histMsg is a stats message whose one replay-timer histogram edit alters.
func histMsg(edit func(h *obs.HistSnapshot)) []byte {
	return statsMsg(func(ws *WireStats) {
		ws.observed = true
		ws.hists[obs.TimerReplay] = histOf(9, map[int]int64{5: 1})
		edit(&ws.hists[obs.TimerReplay])
	})
}

func porMsg(edit func(d *porDelta)) []byte {
	d := &porDelta{scenarios: 1}
	edit(d)
	e := NewWireEncoder(nil)
	e.PorEntries([]WirePorEntry{{1, d}})
	return e.Bytes()
}

func onePoint(kind choiceKind, n, idx int) []choicePoint {
	return []choicePoint{{kind: kind, n: n, idx: idx}}
}

func readStats(d *WireDecoder) { d.Stats() }
func readPor(d *WireDecoder)   { d.PorEntries() }

// TestWireV2DecoderRejectsMalformed: the decoder is the one validator. It
// must fail cleanly — sticky error, no panic, no silent truncation — on
// hostile or skewed input, and reject every value the engine could not use:
// a claim that would crash-loop its claimants (TestWireClaimCompileRejectsMalformed),
// stats that would corrupt the merge (TestWireStatsValidateRejectsMalformed),
// a POR delta that would corrupt a pruned subtree's accounting.
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

	// Allocation stays in proportion to the message. Interning makes a
	// stream's length independent of its bytes, so claims that each re-share
	// one long prefix must hit the per-message point budget instead of
	// decoding to their product.
	long := make([]choicePoint, 600)
	for i := range long {
		long[i] = choicePoint{kind: chooseReadFrom, n: 2}
	}
	batch := make([]WireClaim, 1000)
	for i := range batch {
		batch[i] = WireClaim{points: long}
	}
	bad := NewWireEncoder(nil)
	bad.Claims(batch)
	d = NewWireDecoder(bad.Bytes())
	if d.Claims(); d.Err() == nil {
		t.Errorf("%d bytes decoded to %d points", len(bad.Bytes()), len(batch)*len(long))
	}

	checkRejects(t, []rejectCase{
		// Bug types are the enum's values, BugCrash the last.
		{"stats bug type past the enum", "bug type 6 out of range", statsMsg(func(ws *WireStats) {
			ws.mergeBug(&BugReport{Type: BugCrash + 1, Message: "x", Count: 1})
		}), readStats},
		{"stats bug type negative", "bug type -1 out of range", statsMsg(func(ws *WireStats) {
			ws.mergeBug(&BugReport{Type: -1, Message: "x", Count: 1})
		}), readStats},
		{"por bug type past the enum", "bug type 6 out of range", porMsg(func(d *porDelta) {
			d.bugs = []porBug{{typ: BugCrash + 1, msg: "x", count: 1}}
		}), readPor},
		{"por suffix point", "out of range", porMsg(func(d *porDelta) {
			d.bugs = []porBug{{msg: "x", count: 1, suffix: onePoint(chooseReadFrom, 2, 3)}}
		}), readPor},
		{"por vec width", "counters, want", func() []byte {
			e := NewWireEncoder(nil)
			e.PorEntries([]WirePorEntry{{1, &porDelta{}}})
			b := e.Bytes()
			// Replace the vec's absence flag and the three empty lists.
			e.buf = b[:len(b)-4]
			e.Bool(true)
			e.Uvarint(2)
			e.Uvarint(0)
			e.Uvarint(0)
			e.Uvarint(0)
			e.Uvarint(0)
			return e.Bytes()
		}(), readPor},
		// Peak vectors are exactly obs.NumPeaks wide, every mark >= 0.
		{"peaks width 6", "vector width", rawStatsShard(func(e *WireEncoder) {
			fullCounters(e)
			e.sparseVec(make([]int64, obs.NumPeaks+1))
		}), readStats},
		{"peaks width 28, index 20", "vector width", rawStatsShard(func(e *WireEncoder) {
			fullCounters(e)
			v := make([]int64, obs.NumCounters)
			v[20] = 7
			e.sparseVec(v)
		}), readStats},
		{"negative peak", "negative peak", rawStatsShard(func(e *WireEncoder) {
			fullCounters(e)
			e.sparseVec([]int64{obs.PeakSB: -1, obs.PeakSnapshotBytes: 0})
		}), readStats},
	})
}

// TestWireClaimCompileRejectsMalformed: a claim that decodes is one a
// chooser can seed and replay. One case per check on point streams and
// claims.
func TestWireClaimCompileRejectsMalformed(t *testing.T) {
	rf2 := onePoint(chooseReadFrom, 2, 0)
	checkRejects(t, []rejectCase{
		// Point streams.
		{"unknown kind", "unknown kind", claimsMsg(WireClaim{points: onePoint(3, 2, 0)}), nil},
		{"escaped kind", "unknown kind", func() []byte {
			// How the codec once carried kinds it did not know: 0xff, then
			// the kind's name.
			e := NewWireEncoder(nil)
			e.Uvarint(1)
			e.Uvarint(1)
			e.Uvarint(0)
			e.Byte(0xff)
			e.String("coin")
			e.Int(2)
			e.Int(0)
			e.Bool(false)
			e.Bool(false)
			return e.Bytes()
		}(), nil},
		{"idx out of range", "out of range", claimsMsg(WireClaim{points: onePoint(chooseReadFrom, 2, 2)}), nil},
		{"negative idx", "out of range", claimsMsg(WireClaim{points: onePoint(chooseReadFrom, 2, -1)}), nil},
		{"zero n", "out of range", claimsMsg(WireClaim{points: onePoint(chooseFail, 0, 0)}), nil},
		{"too many options", "options, more than", claimsMsg(WireClaim{points: onePoint(chooseReadFrom, maxWireOptions+1, 0)}), nil},
		{"shared prefix out of context", "shared prefix", func() []byte {
			e := NewWireEncoder(nil)
			e.Uvarint(1) // one claim
			e.Uvarint(2) // two points
			e.Uvarint(2) // sharing 2 points of an empty context
			return e.Bytes()
		}(), nil},
		{"point count overflows int", "shared prefix", func() []byte {
			e := NewWireEncoder(nil)
			e.Uvarint(1)
			e.Uvarint(1 << 63)
			e.Uvarint(1 << 63)
			return e.Bytes()
		}(), nil},
		// Claims.
		{"limit count mismatch", "limits for", claimsMsg(WireClaim{points: rf2, limits: []int{1, 2}}), nil},
		{"limit at idx", "limit", claimsMsg(WireClaim{points: onePoint(chooseReadFrom, 3, 2), limits: []int{2}}), nil},
		{"limit above n", "limit", claimsMsg(WireClaim{points: onePoint(chooseReadFrom, 3, 0), limits: []int{4}}), nil},
		{"more memos than points", "memos for", claimsMsg(WireClaim{points: onePoint(chooseFail, 2, 0), memos: []*failMemo{nil, {}}}), nil},
		{"fewer memos than points", "memos for", claimsMsg(WireClaim{
			points: []choicePoint{{kind: chooseFail, n: 2}, {kind: chooseFail, n: 2}},
			memos:  []*failMemo{{fp: 1}},
		}), nil},
		{"memo on non-fail point", "non-fail", claimsMsg(WireClaim{points: rf2, memos: []*failMemo{{fp: 1}}}), nil},
		{"memo vec width", "counters, want", func() []byte {
			e := NewWireEncoder(nil)
			e.Uvarint(1)
			e.points(onePoint(chooseFail, 2, 0))
			e.Bool(false) // no limits
			e.Bool(true)  // memos
			e.Uvarint(1)
			e.Bool(true)
			e.Fixed64(1)
			e.Varint(0)
			e.Bool(true) // a vec two counters wide
			e.Uvarint(2)
			e.Uvarint(0)
			return e.Bytes()
		}(), nil},
	})
}

// TestWireStatsValidateRejectsMalformed: a stats delta that decodes is one
// MergeAcc.Absorb can fold in unchecked. One case per check on counts,
// findings and the obs shard.
func TestWireStatsValidateRejectsMalformed(t *testing.T) {
	checkRejects(t, []rejectCase{
		{"negative scenarios", "negative", statsMsg(func(ws *WireStats) { ws.scenarios = -1 }), readStats},
		{"negative execs", "negative", statsMsg(func(ws *WireStats) { ws.execsPost = -2 }), readStats},
		{"negative fpoints", "negative", statsMsg(func(ws *WireStats) { ws.fpointsPre = -3 }), readStats},
		{"bad bug replay point", "unknown kind", statsMsg(func(ws *WireStats) {
			ws.mergeBug(&BugReport{Message: "x", Count: 1, replay: onePoint(7, 2, 0)})
		}), readStats},
		{"obs counters too narrow", "counters, want", rawStatsShard(func(e *WireEncoder) {
			e.Uvarint(1)
			e.Uvarint(0)
		}), readStats},
		{"obs counters too wide", "vector width", rawStatsShard(func(e *WireEncoder) {
			e.sparseVec(make([]int64, obs.NumCounters+1))
		}), readStats},
		{"peaks too wide", "vector width", rawStatsShard(func(e *WireEncoder) {
			fullCounters(e)
			e.sparseVec(make([]int64, obs.NumCounters+1))
		}), readStats},
		{"hist timer range", "timer", rawStatsShard(func(e *WireEncoder) {
			fullCounters(e)
			fullPeaks(e)
			e.Uvarint(1)
			h := histOf(1, map[int]int64{0: 1})
			e.hist(obs.NumTimers, &h)
		}), readStats},
		{"hist timer repeated", "timer", rawStatsShard(func(e *WireEncoder) {
			fullCounters(e)
			fullPeaks(e)
			e.Uvarint(2)
			h := histOf(1, map[int]int64{0: 1})
			e.hist(0, &h)
			e.hist(0, &h)
		}), readStats},
		{"hist without samples", "count/sum", rawStatsShard(func(e *WireEncoder) {
			fullCounters(e)
			fullPeaks(e)
			e.Uvarint(1)
			e.hist(0, &obs.HistSnapshot{})
		}), readStats},
		{"hist negative sum", "count/sum", histMsg(func(h *obs.HistSnapshot) { h.Sum = -1 }), readStats},
		{"hist bucket order", "out of order", rawStatsShard(func(e *WireEncoder) {
			fullCounters(e)
			fullPeaks(e)
			e.Uvarint(1)
			e.Int(0)
			e.Varint(2) // count
			e.Varint(0) // sum
			e.Uvarint(2)
			e.Varint(5) // bucket 5
			e.Varint(1)
			e.Varint(0) // bucket 5 again
			e.Varint(1)
		}), readStats},
		{"hist empty bucket", "non-positive", rawStatsShard(func(e *WireEncoder) {
			fullCounters(e)
			fullPeaks(e)
			e.Uvarint(1)
			e.Int(0)
			e.Varint(1) // count
			e.Varint(0) // sum
			e.Uvarint(2)
			e.Varint(3) // bucket 3, empty
			e.Varint(0)
			e.Varint(2) // bucket 5
			e.Varint(1)
		}), readStats},
		{"hist bucket range", "out of order or range", histMsg(func(h *obs.HistSnapshot) {
			*h = histOf(1, map[int]int64{obs.NumHistBuckets: 1})
		}), readStats},
		{"hist count mismatch", "sum to", histMsg(func(h *obs.HistSnapshot) { h.Count = 3 }), readStats},
		{"hist negative bucket count", "non-positive", histMsg(func(h *obs.HistSnapshot) { h.Counts[5] = -1 }), readStats},
	})

	// A well-formed delta still decodes.
	d := NewWireDecoder(statsMsg(func(ws *WireStats) { ws.scenarios = 3 }))
	d.Stats()
	if err := d.Done(); err != nil {
		t.Errorf("valid stats rejected: %v", err)
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
	memos[2] = &failMemo{fp: 0xfeedface, acct: account{steps: 321, vec: &vec}}
	return []WireClaim{{pts, []int{1, 3, 2, 3}, memos}, {points: pts[:2]}}
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
	replay := []choicePoint{{kind: chooseFail, n: 2, idx: 1}}
	// cumulative builds one snapshot of the worker: its scalars, its bugs
	// and its flagged load (count, then the representative's candidates and
	// values), and an obs shard whose timer-0 histogram has the given
	// buckets.
	cumulative := func(scen, fpoints, steps, maxRF int, points [3]int, bugs []BugReport,
		multi MultiRF, perf int, sum int64, buckets map[int]int64) *WireStats {
		ws := newWireStats()
		ws.scenarios, ws.execsPost, ws.fpointsPre, ws.totalSteps, ws.maxRF = scen, scen, fpoints, int64(steps), maxRF
		ws.newPoints = points
		for i := range bugs {
			ws.mergeBug(&bugs[i])
		}
		ws.multiRF[multi.Loc] = &multi
		if perf > 0 {
			ws.perfIssues[perfKey(PerfRedundantFlush, "x.go:2")] = &PerfIssue{
				Kind: PerfRedundantFlush, Loc: "x.go:2", Line: 2, Count: perf}
		}
		ws.observed = true
		ws.counters[obs.Scenarios] = int64(scen)
		ws.counters[obs.Steps] = int64(steps)
		ws.peaks[obs.PeakRFCandidates] = int64(maxRF - 1)
		ws.hists[0] = histOf(sum, buckets)
		return ws
	}
	// Three cumulative snapshots of one worker: counts only grow, the bug
	// representative improves canonically ("b" -> "a"), a second bug and a
	// perf issue appear mid-lease, histogram buckets fill in. The flagged
	// load's representative legitimately changes: a bigger candidate set
	// displaces it, the same join the worker's own flagMultiRF applies (a
	// representative never changes otherwise).
	cum1 := cumulative(3, 4, 100, 2, [3]int{1, 1, 0},
		[]BugReport{{Type: 1, Message: "m", Execution: 2, Scenario: 1, Count: 1, Choices: "b", replay: replay}},
		MultiRF{Loc: "x.go:1", Addr: 8, Candidates: 2, Values: []string{"3"}, Count: 1}, 0,
		50, map[int]int64{4: 1})
	cum2 := cumulative(7, 5, 250, 3, [3]int{2, 1, 1},
		[]BugReport{
			{Type: 1, Message: "m", Execution: 1, Scenario: 1, Count: 3, Choices: "a", replay: replay},
			{Type: 2, Message: "n", Execution: 5, Scenario: 6, Count: 1, Choices: "c"},
		},
		MultiRF{Loc: "x.go:1", Addr: 8, Candidates: 3, Values: []string{"3", "5", "7"}, Count: 2}, 1,
		150, map[int]int64{4: 2, 6: 1})
	cum3 := cumulative(10, 5, 400, 3, [3]int{2, 2, 1},
		[]BugReport{
			{Type: 1, Message: "m", Execution: 1, Scenario: 1, Count: 4, Choices: "a", replay: replay},
			{Type: 2, Message: "n", Execution: 5, Scenario: 6, Count: 2, Choices: "c"},
		},
		MultiRF{Loc: "x.go:1", Addr: 8, Candidates: 3, Values: []string{"3", "5", "7"}, Count: 3}, 2,
		260, map[int]int64{4: 3, 6: 2})

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
