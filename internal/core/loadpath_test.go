package core_test

import (
	"fmt"
	"testing"

	"jaaru/internal/conform"
	"jaaru/internal/core"
)

// loadDispatchProgram drives every branch of resolveLoad's per-operation
// dispatch from recovery code and asserts each loaded value in the guest:
//
//   - recovery Store8s into the middle of a persisted word, then a Load64 of
//     it — bytes from the store buffer (EvictAtFences), the current
//     execution's cache and the pre-failure execution in one access (mixed:
//     byte path), and narrower loads the cache alone answers;
//   - a Load64 at line offset 60 (cross-line: byte path);
//   - a word re-read until the pinned summary answers it, then a CAS64 on it
//     (the RMW read takes the summary after its leading mfence drained the
//     buffer into the current execution) and a load of the CAS result;
//   - a re-read after a recovery Clflush, which retires that line's pinned
//     summary on the flushing execution (and no other pin).
//
// Under MaxFailures 2 the recovery's own flush is a failure point, so the
// same code also runs two executions deep, reading recovery's stores back as
// pre-failure candidates.
func loadDispatchProgram() core.Program {
	const a1, a2, xv = 0x0101010101010101, 0x0202020202020202, 0x1122334455667788
	return core.Program{
		Name: "load-dispatch",
		Run: func(c *core.Context) {
			w, x, p, q := c.Root(), c.Root().Add(60), c.Root().Add(128), c.Root().Add(192)
			c.Store64(w, a1)
			c.Clflush(w, 8)
			c.Store64(w, a2) // never flushed: a1 and a2 both reachable
			c.Store64(x, xv) // bytes 60..67: two lines, two flushes
			c.Clflush(x, 8)
			c.Store64(p, 40)
			c.Store64(q, 0xABCD)
			c.Clflush(p, 8)
			c.Clflush(q, 8)
		},
		Recover: func(c *core.Context) {
			w, x, p, q := c.Root(), c.Root().Add(60), c.Root().Add(128), c.Root().Add(192)
			first := c.Execution() == 1

			w0 := c.Load64(w)
			if first {
				c.Assert(w0 == 0 || w0 == a1 || w0 == a2, "w = %#x mixes two stores", w0)
			}
			c.Store8(w.Add(2), 0xAA)
			c.Store8(w.Add(3), 0xBB)
			c.Store8(w.Add(4), 0xCC)
			want := w0&^0x000000ffffff0000 | 0x000000ccbbaa0000
			for i := 0; i < 3; i++ {
				got := c.Load64(w)
				c.Assert(got == want, "mixed Load64 #%d = %#x, want %#x", i, got, want)
			}
			c.Assert(c.Load16(w.Add(2)) == 0xbbaa, "Load16 of two fresh bytes")
			got32 := c.Load32(w.Add(3))
			c.Assert(uint64(got32) == want>>24&0xffffffff, "Load32 across fresh and old bytes = %#x", got32)

			x0 := c.Load64(x)
			if first {
				lo, hi := x0&0xffffffff, x0>>32
				c.Assert((lo == 0 || lo == xv&0xffffffff) && (hi == 0 || hi == xv>>32), "x = %#x", x0)
			}
			for i := 0; i < 3; i++ {
				got := c.Load64(x)
				c.Assert(got == x0, "cross-line re-read #%d = %#x, want %#x", i, got, x0)
			}

			p0 := c.Load64(p)
			if first {
				c.Assert(p0 == 0 || p0 == 40, "p = %d", p0)
			}
			for i := 0; i < 3; i++ {
				got := c.Load64(p)
				c.Assert(got == p0, "pinned re-read #%d = %d, want %d", i, got, p0)
			}
			c.Assert(c.CAS64(p, p0, p0+1), "CAS64 on the pinned word failed")
			c.Assert(!c.CAS64(p, p0, p0+2), "CAS64 with a stale expectation succeeded")
			got := c.Load64(p)
			c.Assert(got == p0+1, "load after CAS64 = %d, want %d", got, p0+1)

			q0 := c.Load64(q)
			for i := 0; i < 2; i++ {
				c.Assert(c.Load64(q) == q0, "q re-read changed")
			}
			c.Clflush(q, 8)
			c.Mfence()
			got = c.Load64(q)
			c.Assert(got == q0, "re-read after recovery clflush = %#x, want %#x", got, q0)
			got = c.Load64(w)
			c.Assert(got == want, "w after recovery clflush = %#x, want %#x", got, want)
		},
	}
}

// TestLoadDispatchEquivalence checks the guest's own value assertions (no
// bug) and that the default serial engine, the full-replay oracle, the
// unpruned run and four workers explore bit-identically, under eager and
// at-fences eviction, one and two failures, with the load path's fast
// branches demonstrably taken.
func TestLoadDispatchEquivalence(t *testing.T) {
	var rows []conform.Row
	for _, base := range []core.Options{
		{},
		{MaxFailures: 2},
		{Eviction: core.EvictAtFences, SBCapacity: 2},
		{Eviction: core.EvictAtFences, SBCapacity: 2, MaxFailures: 2},
	} {
		rows = append(rows, conform.Row{
			Name:  fmt.Sprintf("eviction=%d/failures=%d", base.Eviction, base.MaxFailures),
			Build: func(func(string)) core.Program { return loadDispatchProgram() },
			Opts:  base,
			Check: func(t testing.TB, ref *core.Result) {
				for _, b := range ref.Bugs {
					t.Errorf("guest assertion failed: %v (%s)", b, b.Choices)
				}
				m := ref.Metrics
				if m.LoadCacheHits == 0 || m.RefinementsSkipped == 0 || m.LoadRefinements == m.RefinementsSkipped ||
					(base.Eviction == core.EvictAtFences) != (m.LoadSBHits > 0) {
					t.Errorf("load path not fully exercised: sb=%d cache=%d refinements=%d skipped=%d",
						m.LoadSBHits, m.LoadCacheHits, m.LoadRefinements, m.RefinementsSkipped)
				}
			},
		})
	}
	conform.Run(t, rows, []conform.Column{conform.SnapshotsOff, conform.POROff, conform.Workers(4)}, nil)
}
