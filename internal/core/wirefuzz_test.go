package core

import (
	"encoding/binary"
	"runtime"
	"testing"

	"jaaru/internal/obs"
)

// fuzzReader turns fuzz bytes into the fields of a wire value: single bytes
// for shapes and flags, zig-zag varints for numbers (so any int64 is a few
// bytes away), length-prefixed strings. Reading past the end yields zeros
// and empty strings, so every input builds some value.
type fuzzReader []byte

func (r *fuzzReader) byte() byte {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return b
}

func (r *fuzzReader) int() int {
	v, n := binary.Varint(*r)
	if n <= 0 {
		*r = nil
		return 0
	}
	*r = (*r)[n:]
	return int(v)
}

func (r *fuzzReader) str() string {
	n := min(int(r.byte()), len(*r))
	s := string((*r)[:n])
	*r = (*r)[n:]
	return s
}

// point reads a choice point; kind "?" (one flag value in four) is invalid.
func (r *fuzzReader) point() WirePoint {
	kind := [4]string{"fail", "rf", "evict", "?"}[r.byte()&3]
	return WirePoint{Kind: kind, N: r.int(), Idx: r.int()}
}

// fuzzClaim builds a claim: a header byte (bit 0: limits, bit 1: memos) and
// then one point per record until the input runs out. A record's flag byte
// picks the kind and whether it carries a memo (bit 2) with a counter vector
// (bit 3; bit 4 makes the vector one counter short).
func fuzzClaim(data []byte) WireClaim {
	r := fuzzReader(data)
	h := r.byte()
	var w WireClaim
	if h&2 != 0 {
		w.Memos = []*WireMemo{}
	}
	for len(r) > 0 {
		f := r.byte()
		w.Points = append(w.Points, r.point())
		if h&1 != 0 {
			w.Limits = append(w.Limits, r.int())
		}
		if h&2 == 0 {
			continue
		}
		var m *WireMemo
		if f&4 != 0 {
			m = &WireMemo{FP: uint64(r.int()), Steps: int64(r.int())}
			if n := obs.NumCounters - int(f>>4&1); f&8 != 0 && len(r) >= n {
				m.Vec = make([]int64, n)
				for i := range m.Vec {
					m.Vec[i] = int64(r.int())
				}
			}
		}
		w.Memos = append(w.Memos, m)
	}
	return w
}

// fuzzStats builds a stats batch: a header byte (bit 0: Truncated, bit 1: an
// obs shard, bit 2: its counter vector one short), the scalar counts, then
// records until the input runs out — a bug, a flagged load, a perf issue or
// (with a shard) a histogram, by the low two bits of the record's tag byte.
func fuzzStats(data []byte) *WireStats {
	r := fuzzReader(data)
	h := r.byte()
	ws := &WireStats{
		Truncated:  h&1 != 0,
		Scenarios:  r.int(),
		ExecsPost:  r.int(),
		FpointsPre: r.int(),
		Steps:      int64(r.int()),
		MaxRF:      r.int(),
		NewPoints:  [3]int{r.int(), r.int(), r.int()},
	}
	if h&2 != 0 {
		ws.Obs = &WireObs{}
		if n := obs.NumCounters - int(h>>2&1); len(r) >= n {
			ws.Obs.Counters = make([]int64, n)
			for i := range ws.Obs.Counters {
				ws.Obs.Counters[i] = int64(r.int())
			}
		}
		for range r.byte() & 7 {
			ws.Obs.Peaks = append(ws.Obs.Peaks, int64(r.int()))
		}
	}
	for len(r) > 0 {
		tag := r.byte()
		switch tag & 3 {
		case 0:
			b := WireBug{Type: r.int(), Message: r.str(), Execution: r.int(),
				Scenario: r.int(), Count: r.int(), Choices: r.str()}
			for range tag >> 2 & 7 {
				b.Replay = append(b.Replay, r.point())
			}
			ws.Bugs = append(ws.Bugs, b)
		case 1:
			m := MultiRF{Loc: r.str(), Addr: Addr(r.int()), Candidates: r.int()}
			for range tag >> 2 & 3 {
				m.Values = append(m.Values, r.str())
			}
			m.Count = r.int()
			ws.MultiRF = append(ws.MultiRF, m)
		case 2:
			ws.PerfIssues = append(ws.PerfIssues, PerfIssue{Kind: PerfIssueKind(r.int()),
				Loc: r.str(), Line: Addr(r.int()), Count: r.int()})
		case 3:
			if ws.Obs == nil {
				continue
			}
			hist := WireHist{Timer: r.int(), Sum: int64(r.int())}
			for range tag >> 2 & 7 {
				b := [2]int64{int64(r.int()), int64(r.int())}
				hist.Buckets = append(hist.Buckets, b)
				hist.Count += b[1]
			}
			if tag&32 != 0 {
				hist.Count = int64(r.int())
			}
			ws.Obs.Hists = append(ws.Obs.Hists, hist)
		}
	}
	return ws
}

// allocBudget fails t if fn allocates more than a constant factor of the
// input size plus slack for whatever else the runtime allocated meanwhile.
func allocBudget(t *testing.T, what string, inputLen int, fn func()) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	if grew, budget := after.TotalAlloc-before.TotalAlloc, uint64(512*inputLen+1<<20); grew > budget {
		t.Fatalf("%s of a %d-byte input allocated %d, budget %d", what, inputLen, grew, budget)
	}
}

// FuzzWireClaimValidate: a claim that passes Validate — the coordinator's
// check on every split and residual a worker commits — compiles, seeds a
// chooser that replays its vector, exports a residual and donates a half
// that validate again, and walks its siblings, all without a panic and in
// allocation proportional to the input. split sums the open options of every
// point, which is why validation bounds each count by maxWireOptions.
func FuzzWireClaimValidate(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		w := fuzzClaim(data)
		if w.Validate() != nil {
			return
		}
		allocBudget(t, "compiling and seeding", len(data), func() {
			br, err := w.compile()
			if err != nil {
				t.Fatalf("validated claim does not compile: %v\n%+v", err, w)
			}
			var ch chooser
			ch.seedClaim(br.points, br.limits, br.memos)
			for i, p := range br.points {
				if got := ch.choose(p.kind, p.n); got != p.idx {
					t.Fatalf("point %d replays option %d, want %d", i, got, p.idx)
				}
			}
			if err := encodeClaim(ch.claimSnapshot()).Validate(); err != nil {
				t.Fatalf("seeded chooser exports an invalid residual: %v", err)
			}
			if half, ok := ch.split(); ok {
				if err := encodeClaim(half).Validate(); err != nil {
					t.Fatalf("seeded chooser donates an invalid claim: %v", err)
				}
				if err := encodeClaim(ch.claimSnapshot()).Validate(); err != nil {
					t.Fatalf("residual after a donation is invalid: %v", err)
				}
			}
			for i := 0; i < 64 && ch.advance(); i++ {
			}
		})
	})
}

// FuzzWireStatsValidate: a stats batch that passes Validate — the
// coordinator's check at commit ingest — is absorbed by MergeAcc, twice, and
// the merged Result builds, without a panic and in allocation proportional
// to the input.
func FuzzWireStatsValidate(f *testing.F) {
	prog := Program{Name: "fuzz", Run: func(*Context) {}}
	f.Fuzz(func(t *testing.T, data []byte) {
		ws := fuzzStats(data)
		if ws.Validate() != nil {
			return
		}
		acc := NewMergeAcc(prog, Options{Observe: true})
		allocBudget(t, "absorbing", len(data), func() {
			for range 2 {
				if err := acc.Absorb(ws); err != nil {
					t.Fatalf("validated stats are not absorbed: %v", err)
				}
			}
			acc.BuildResult(true)
		})
	})
}
