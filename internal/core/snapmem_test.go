package core_test

import (
	"runtime"
	"testing"

	"jaaru/internal/core"
	"jaaru/internal/recipe"
)

// TestSnapshotMemoryLinear is the linear-memory gate for the snapshot stack.
// CCEH-update's choice depth, and with it the number of stack entries, grows
// linearly with the round count; an entry that carries its own copy of the
// choice prefix makes the stack's memory — and the bytes allocated to build
// it — quadratic (4x per doubling). With one prefix shared by the whole
// stack, doubling the workload must at most roughly double both.
func TestSnapshotMemoryLinear(t *testing.T) {
	const rounds, maxGrowth = 512, 2.5
	run := func(rounds int) (prefixCap int, allocated uint64) {
		prog := recipe.CCEHUpdateWorkload(3, rounds)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		ck := core.New(prog, core.Options{})
		res := ck.Run()
		runtime.ReadMemStats(&after)
		if res.Buggy() || !res.Complete {
			t.Fatalf("rounds=%d: unexpected result: complete=%v bugs=%v", rounds, res.Complete, res.Bugs)
		}
		return ck.SnapPrefixCap(), after.TotalAlloc - before.TotalAlloc
	}
	p1, a1 := run(rounds)
	p2, a2 := run(2 * rounds)
	t.Logf("rounds %d -> %d: retained prefix %d -> %d decisions, allocated %d -> %d bytes",
		rounds, 2*rounds, p1, p2, a1, a2)
	if p1 == 0 {
		t.Fatal("the snapshot stack retained no prefix: the gate measures nothing")
	}
	if g := float64(p2) / float64(p1); g > maxGrowth {
		t.Errorf("retained prefix storage grew %.2fx for a 2x workload, want <= %.1fx", g, maxGrowth)
	}
	if g := float64(a2) / float64(a1); g > maxGrowth {
		t.Errorf("bytes allocated grew %.2fx for a 2x workload, want <= %.1fx", g, maxGrowth)
	}
}

// TestSnapshotBytesPerCapture gates what one snapshot-stack entry costs: the
// bytes an exploration of CCEH-update allocates, divided by the entries it
// captures. The workload is nearly all failure points (one capture per
// scenario, a dozen live cache lines), so the quotient is the per-entry
// price: 1.4 KB, for a journal mark, a few scalars and the guest's own store
// queues at one arena node per store. The bound leaves 50 % headroom; one node
// per stored byte made the price 2.4 KB, an entry that copies per-scenario
// state — a 64-operation trace — 8.3 KB.
func TestSnapshotBytesPerCapture(t *testing.T) {
	const rounds, maxBytes = 512, 2100
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res := core.New(recipe.CCEHUpdateWorkload(3, rounds), core.Options{Observe: true}).Run()
	runtime.ReadMemStats(&after)
	captures := res.Metrics.SnapshotCaptures + res.Metrics.ChoiceSnapCaptures
	if res.Buggy() || !res.Complete || captures < rounds {
		t.Fatalf("unexpected result: complete=%v bugs=%v captures=%d", res.Complete, res.Bugs, captures)
	}
	per := (after.TotalAlloc - before.TotalAlloc) / uint64(captures)
	t.Logf("%d captures, %d bytes allocated: %d bytes per capture", captures, after.TotalAlloc-before.TotalAlloc, per)
	if per > maxBytes {
		t.Errorf("%d bytes allocated per snapshot capture, want <= %d", per, maxBytes)
	}
}

// TestPORRecordMemoryLinear is the same gate for the POR layer's open subtree
// records. The guest persists one fresh counter value per step, so no two
// crash states are equivalent: every failure point opens a record, rooted as
// deep as the failure-point chain is long. A record that carries its own copy
// of the choice prefix makes the bytes allocated quadratic in the step count;
// with one prefix shared by the record stack, doubling the steps must at most
// roughly double them.
func TestPORRecordMemoryLinear(t *testing.T) {
	const steps, maxGrowth = 1000, 2.2
	run := func(steps int) uint64 {
		prog := core.Program{
			Name: "por-chain",
			Run: func(c *core.Context) {
				for i := 1; i <= steps; i++ {
					c.Store64(c.Root(), uint64(i))
					c.Clflush(c.Root(), 8)
				}
			},
			Recover: func(c *core.Context) { _ = c.Load64(c.Root()) },
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res := core.New(prog, core.Options{Observe: true}).Run()
		runtime.ReadMemStats(&after)
		if res.Buggy() || !res.Complete || res.Metrics.FingerprintMisses < int64(steps) {
			t.Fatalf("steps=%d: unexpected result: complete=%v bugs=%v records=%d",
				steps, res.Complete, res.Bugs, res.Metrics.FingerprintMisses)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	a1, a2 := run(steps), run(2*steps)
	t.Logf("steps %d -> %d: allocated %d -> %d bytes", steps, 2*steps, a1, a2)
	if g := float64(a2) / float64(a1); g > maxGrowth {
		t.Errorf("bytes allocated grew %.2fx for a 2x workload, want <= %.1fx", g, maxGrowth)
	}
}
