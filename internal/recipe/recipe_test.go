package recipe

import (
	"fmt"
	"reflect"
	"testing"

	"jaaru/internal/core"
)

// ---- Direct (no-failure) operational tests ---------------------------------

func direct(t *testing.T, name string, fn func(*core.Context)) {
	t.Helper()
	res := core.Execute(name, fn, core.Options{})
	if res.Buggy() {
		t.Fatalf("%s: %v", name, res.Bugs[0])
	}
}

func TestCCEHOperations(t *testing.T) {
	direct(t, "cceh-ops", func(c *core.Context) {
		h := CreateCCEH(c, CCEHBugs{})
		for i := uint64(1); i <= 80; i++ {
			h.Insert(i, i*2)
		}
		for i := uint64(1); i <= 80; i++ {
			v, ok := h.Lookup(i)
			if !ok || v != i*2 {
				t.Fatalf("Lookup(%d) = %d, %v", i, v, ok)
			}
		}
		if _, ok := h.Lookup(999); ok {
			t.Error("found a key never inserted")
		}
		h.Insert(5, 123)
		if v, _ := h.Lookup(5); v != 123 {
			t.Error("update lost")
		}
		if n := h.Check(func(k uint64) uint64 {
			if k == 5 {
				return 123
			}
			return k * 2
		}); n != 80 {
			t.Errorf("Check counted %d keys, want 80", n)
		}
	})
}

func TestFastFairOperations(t *testing.T) {
	direct(t, "fastfair-ops", func(c *core.Context) {
		tr := CreateFastFair(c, FFBugs{})
		for i := uint64(1); i <= 60; i++ {
			k := i*31%127 + 1
			tr.Insert(k, k+7)
		}
		for i := uint64(1); i <= 60; i++ {
			k := i*31%127 + 1
			v, ok := tr.Lookup(k)
			if !ok || v != k+7 {
				t.Fatalf("Lookup(%d) = %d, %v", k, v, ok)
			}
		}
		if _, ok := tr.Lookup(999); ok {
			t.Error("found a key never inserted")
		}
		if n := tr.Check(func(k uint64) uint64 { return k + 7 }); n != 60 {
			t.Errorf("Check counted %d keys, want 60", n)
		}
	})
}

func TestARTOperations(t *testing.T) {
	direct(t, "art-ops", func(c *core.Context) {
		tr := CreateART(c, ARTBugs{})
		for i := uint64(1); i <= 50; i++ {
			k := i * 0x1111
			tr.Insert(k, k^0xff)
		}
		for i := uint64(1); i <= 50; i++ {
			k := i * 0x1111
			v, ok := tr.Lookup(k)
			if !ok || v != k^0xff {
				t.Fatalf("Lookup(%#x) = %d, %v", k, v, ok)
			}
		}
		if _, ok := tr.Lookup(0x999999); ok {
			t.Error("found a key never inserted")
		}
		if n := tr.Check(func(k uint64) uint64 { return k ^ 0xff }); n != 50 {
			t.Errorf("Check counted %d leaves, want 50", n)
		}
	})
}

func TestBwTreeOperations(t *testing.T) {
	direct(t, "bwtree-ops", func(c *core.Context) {
		tr := CreateBwTree(c, BwTreeBugs{})
		for i := uint64(1); i <= 14; i++ {
			tr.Insert(i, i*3)
		}
		for i := uint64(1); i <= 14; i++ {
			v, ok := tr.Lookup(i)
			if !ok || v != i*3 {
				t.Fatalf("Lookup(%d) = %d, %v", i, v, ok)
			}
		}
		tr.Insert(7, 99)
		if v, _ := tr.Lookup(7); v != 99 {
			t.Error("update lost")
		}
		if n := tr.Check(func(k uint64) uint64 {
			if k == 7 {
				return 99
			}
			return k * 3
		}); n != 14 {
			t.Errorf("Check counted %d keys, want 14", n)
		}
	})
}

func TestCLHTOperations(t *testing.T) {
	direct(t, "clht-ops", func(c *core.Context) {
		h := CreateCLHT(c, 4, CLHTBugs{})
		for i := uint64(1); i <= 30; i++ {
			h.Insert(i, i+100)
		}
		for i := uint64(1); i <= 30; i++ {
			v, ok := h.Lookup(i)
			if !ok || v != i+100 {
				t.Fatalf("Lookup(%d) = %d, %v", i, v, ok)
			}
		}
		if _, ok := h.Lookup(999); ok {
			t.Error("found a key never inserted")
		}
		if n := h.Check(func(k uint64) uint64 { return k + 100 }); n != 30 {
			t.Errorf("Check counted %d keys, want 30", n)
		}
	})
}

func TestMasstreeOperations(t *testing.T) {
	direct(t, "masstree-ops", func(c *core.Context) {
		tr := CreateMasstree(c, MasstreeBugs{})
		for i := uint64(1); i <= 40; i++ {
			k := i*53%101 + 1
			tr.Insert(k, k*9)
		}
		for i := uint64(1); i <= 40; i++ {
			k := i*53%101 + 1
			v, ok := tr.Lookup(k)
			if !ok || v != k*9 {
				t.Fatalf("Lookup(%d) = %d, %v", k, v, ok)
			}
		}
		if _, ok := tr.Lookup(999); ok {
			t.Error("found a key never inserted")
		}
		if n := tr.Check(func(k uint64) uint64 { return k * 9 }); n != 40 {
			t.Errorf("Check counted %d keys, want 40", n)
		}
	})
}

// ---- Crash consistency: fixed variants explore clean ------------------------

func TestRECIPEFixedVariantsExploreClean(t *testing.T) {
	for _, prog := range FixedPrograms(5) {
		prog := prog
		t.Run(prog.Name, func(t *testing.T) {
			t.Parallel()
			res := core.New(prog, core.Options{}).Run()
			if res.Buggy() {
				t.Fatalf("fixed variant buggy: %v\nchoices: %s\ntrace: %v",
					res.Bugs[0], res.Bugs[0].Choices, res.Bugs[0].Trace(64))
			}
			if !res.Complete {
				t.Fatal("exploration incomplete")
			}
		})
	}
}

// The larger Figure 14 workloads must also explore clean (this is the
// precondition for the performance table: "Providing performance results
// for a model checker requires first fixing the bugs").
func TestRECIPEPerfWorkloadsExploreClean(t *testing.T) {
	if testing.Short() {
		t.Skip("perf workloads take seconds each")
	}
	for _, prog := range PerfWorkloads(1) {
		prog := prog
		t.Run(prog.Name, func(t *testing.T) {
			t.Parallel()
			res := core.New(prog, core.Options{}).Run()
			if res.Buggy() {
				t.Fatalf("perf workload buggy: %v\nchoices: %s",
					res.Bugs[0], res.Bugs[0].Choices)
			}
			if res.FailurePoints < 5 {
				t.Errorf("suspiciously few failure points: %d", res.FailurePoints)
			}
		})
	}
}

// ---- Crash consistency: the 18 seeded bugs are found (Figure 13) ------------

func TestRECIPEBugs(t *testing.T) {
	for _, bc := range BugCases() {
		bc := bc
		t.Run(fmt.Sprintf("%02d-%s", bc.ID, bc.Benchmark), func(t *testing.T) {
			t.Parallel()
			res := core.New(bc.Program(), core.Options{
				FlagMultiRF:    true,
				MaxSteps:       20_000, // tighten the infinite-loop detector
				StopAtFirstBug: true,   // detection is the claim; loop scenarios are costly
			}).Run()
			if !res.Buggy() {
				t.Fatalf("bug %d (%s: %s) not detected", bc.ID, bc.Benchmark, bc.Type)
			}
			ok := false
			for _, b := range res.Bugs {
				for _, want := range bc.Expect {
					if b.Type == want {
						ok = true
					}
				}
			}
			if !ok {
				t.Errorf("bug %d: no manifestation of expected type %v in %v",
					bc.ID, bc.Expect, res.Bugs)
			}
		})
	}
}

func TestRECIPERegistryShape(t *testing.T) {
	cases := BugCases()
	if len(cases) != 18 {
		t.Fatalf("Figure 13 has 18 bugs, registry has %d", len(cases))
	}
	newCount := 0
	perBench := map[string]int{}
	for _, bc := range cases {
		if bc.New {
			newCount++
		}
		perBench[bc.Benchmark]++
	}
	if newCount != 12 {
		t.Errorf("Figure 13 stars 12 new bugs, registry stars %d", newCount)
	}
	want := map[string]int{
		"CCEH": 3, "FAST_FAIR": 3, "P-ART": 3, "P-BwTree": 5, "P-CLHT": 3, "P-MassTree": 1,
	}
	for b, n := range want {
		if perBench[b] != n {
			t.Errorf("%s: %d bugs, want %d", b, perBench[b], n)
		}
	}
}

// TestMinimizedTraceFollowsVector: ddmin moves P-BwTree's GC atomicity bug
// from failure point 34 to 19 (36 -> 21 decisions, EXPERIMENTS.md). A report's
// trace is replayed from its vector, so the minimized report's trace is the
// minimized scenario's — the tail of its Replay — not the original's.
func TestMinimizedTraceFollowsVector(t *testing.T) {
	prog := BwTreeWorkload(6, BwTreeBugs{GCReversedLink: true})
	opts := core.Options{MaxSteps: 20_000, StopAtFirstBug: true}
	res := core.New(prog, opts).Run()
	if !res.Buggy() {
		t.Fatal("no bug")
	}
	b := res.Bugs[0]
	nb, m := core.Minimize(prog, opts, b)
	if m.OriginalLen != 36 || m.MinimizedLen != 21 || b.Choices == nb.Choices {
		t.Fatalf("minimization %d -> %d (%q -> %q), want 36 -> 21 with the failure point moved",
			m.OriginalLen, m.MinimizedLen, b.Choices, nb.Choices)
	}
	const n = 64
	full := core.Replay(prog, opts, nb)
	got := nb.Trace(n)
	if len(full) < n || !reflect.DeepEqual(got, full[len(full)-n:]) {
		t.Errorf("minimized report's trace is not the tail of its Replay (%d ops, replay %d)", len(got), len(full))
	}
	if reflect.DeepEqual(got, b.Trace(n)) {
		t.Error("minimized report still carries the un-minimized scenario's trace")
	}
}
