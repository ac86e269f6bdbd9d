package core

import (
	"math/rand"
	"reflect"
	"testing"

	"jaaru/internal/obs"
)

// TestWireClaimRoundTripProperty: randomized chooser claims — frozen donated
// prefixes, residuals with partial limits, POR-clamped fail decisions, and
// failMemo aux state — survive the wire codec exactly.
func TestWireClaimRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(0x1a52))
	kinds := []choiceKind{chooseFail, chooseReadFrom, chooseEvict}
	for iter := 0; iter < 1000; iter++ {
		depth := 1 + rng.Intn(7)
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

		w := WireClaim{pts, limits, memos}
		e := NewWireEncoder(nil)
		e.claim(&w)
		d := NewWireDecoder(e.Bytes())
		got := d.claim()
		if err := d.Done(); err != nil {
			t.Fatalf("iter %d: decode: %v\nclaim: %+v", iter, err, w)
		}
		if !reflect.DeepEqual(got, w) {
			t.Fatalf("iter %d: claim differs:\nwant %+v\ngot  %+v", iter, w, got)
		}
	}
}

// TestWireClaimSeedClaimRoundTrip: a decoded claim seeds a chooser whose
// immediate claimSnapshot re-encodes to the identical bytes — the exactness
// residual commits and expiry-requeues depend on.
func TestWireClaimSeedClaimRoundTrip(t *testing.T) {
	pts := []choicePoint{
		{kind: chooseFail, n: 2, idx: 0},
		{kind: chooseReadFrom, n: 4, idx: 1},
		{kind: chooseFail, n: 2, idx: 0},
		{kind: chooseEvict, n: 3, idx: 2},
	}
	limits := []int{1, 3, 2, 3} // first fail decision POR-clamped
	memos := make([]*failMemo, len(pts))
	memos[2] = &failMemo{fp: 0xfeedface, acct: account{steps: 321}}
	e := NewWireEncoder(nil)
	e.Claims([]WireClaim{{pts, limits, memos}})
	wire := append([]byte(nil), e.Bytes()...)

	d := NewWireDecoder(wire)
	claims := d.Claims()
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	ch := &chooser{}
	ch.seedClaim(claims[0].points, claims[0].limits, claims[0].memos)
	e.Reset()
	e.Claims([]WireClaim{ch.claimSnapshot()})
	if !reflect.DeepEqual(e.Bytes(), wire) {
		t.Errorf("claimSnapshot re-encodes differently:\nwant %x\ngot  %x", wire, e.Bytes())
	}
}

// TestWireStatsCompileMergesLikeParallel: a decoded WireStats folds keyed
// findings that repeat a key through the same mergeBug/mergeMultiRF paths
// the in-process parallel driver uses — duplicate bug keys sum counts and
// keep the canonically smallest representative.
func TestWireStatsCompileMergesLikeParallel(t *testing.T) {
	e := NewWireEncoder(nil)
	e.Bool(true) // present
	for range 8 {
		e.Int(0) // scenarios, execs, fpoints, steps, max rf, new points
	}
	e.Bool(false) // truncated
	e.Uvarint(2)
	for _, b := range []struct {
		choices string
		count   int
	}{{"b", 2}, {"a", 1}} {
		e.Int(int(BugExplicit))
		e.String("m")
		e.Int(1) // execution
		e.Int(0) // scenario
		e.Int(b.count)
		e.String(b.choices)
		e.points(nil)
	}
	e.Uvarint(1)
	e.multiRF(&MultiRF{Loc: "x.go:1", Count: 1, Values: []string{"1"}})
	e.Uvarint(1)
	e.perfIssue(&PerfIssue{Kind: PerfRedundantFlush, Loc: "x.go:2", Count: 2})
	e.Bool(false) // no obs shard

	d := NewWireDecoder(e.Bytes())
	s := d.Stats()
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	if len(s.bugs) != 1 {
		t.Fatalf("bugs = %d, want 1 (same canonical key)", len(s.bugs))
	}
	if b := s.bugs[0]; b.Count != 3 || b.Choices != "a" {
		t.Errorf("merged bug: Count %d Choices %q, want 3 and the canonically smallest %q", b.Count, b.Choices, "a")
	}
	if len(s.multiRF) != 1 || len(s.perfIssues) != 1 {
		t.Errorf("multiRF/perf = %d/%d entries, want 1/1", len(s.multiRF), len(s.perfIssues))
	}
}
