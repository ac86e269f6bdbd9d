package core

import (
	"runtime"
	"testing"
)

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

// reencodes fails t unless w survives the codec: what a chooser exports must
// decode wherever it is shipped.
func reencodes(t *testing.T, what string, w WireClaim) {
	t.Helper()
	e := NewWireEncoder(nil)
	e.claim(&w)
	d := NewWireDecoder(e.Bytes())
	d.claim()
	if err := d.Done(); err != nil {
		t.Fatalf("seeded chooser's %s does not decode: %v\n%+v", what, err, w)
	}
}

// FuzzWireClaimValidate: the decoder is the coordinator's one check on every
// split and residual a worker commits, and a worker's on every claim it is
// granted. A claim that decodes seeds a chooser that replays its vector,
// exports a residual and donates a half that both re-encode and decode, and
// walks its siblings, all without a panic and in allocation proportional to
// the input. split sums the open options of every point, which is why the
// decoder bounds each count by maxWireOptions (the split_overflow seed fails
// without the bound).
func FuzzWireClaimValidate(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewWireDecoder(data)
		w := d.claim()
		if d.Done() != nil {
			return
		}
		allocBudget(t, "seeding", len(data), func() {
			var ch chooser
			ch.seedClaim(w.points, w.limits, w.memos)
			for i, p := range w.points {
				if got := ch.choose(p.kind, p.n); got != p.idx {
					t.Fatalf("point %d replays option %d, want %d", i, got, p.idx)
				}
			}
			reencodes(t, "residual", ch.claimSnapshot())
			if half, ok := ch.split(); ok {
				reencodes(t, "donation", half)
				reencodes(t, "residual after a donation", ch.claimSnapshot())
			}
			for i := 0; i < 64 && ch.advance(); i++ {
			}
		})
	})
}

// FuzzWireStatsValidate: the decoder is the coordinator's one check at
// commit ingest. A stats batch that decodes is absorbed by MergeAcc, twice,
// and the merged Result builds, without a panic and in allocation
// proportional to the input; absorbing leaves the batch as it was.
func FuzzWireStatsValidate(f *testing.F) {
	prog := Program{Name: "fuzz", Run: func(*Context) {}}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewWireDecoder(data)
		ws := d.Stats()
		if d.Done() != nil || ws == nil {
			return
		}
		e := NewWireEncoder(nil)
		e.Stats(ws)
		before := string(e.Bytes())
		acc := NewMergeAcc(prog, Options{Observe: true})
		allocBudget(t, "absorbing", len(data), func() {
			for range 2 {
				if err := acc.Absorb(ws); err != nil {
					t.Fatalf("decoded stats are not absorbed: %v", err)
				}
			}
			acc.BuildResult(true)
		})
		e.Reset()
		if e.Stats(ws); string(e.Bytes()) != before {
			t.Fatal("absorbing changed the stats batch")
		}
	})
}
