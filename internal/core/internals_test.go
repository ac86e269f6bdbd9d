package core

import (
	"strings"
	"testing"
	"testing/quick"

	"jaaru/internal/pmem"
)

// ---- chooser ----------------------------------------------------------------

func TestChooserEnumeratesFullTree(t *testing.T) {
	// A chooser over a fixed shape (2 × 3 options) must enumerate exactly
	// the 6 leaves, depth-first, never repeating.
	ch := &chooser{}
	seen := make(map[[2]int]bool)
	for {
		ch.begin()
		a := ch.choose(chooseFail, 2)
		b := ch.choose(chooseReadFrom, 3)
		key := [2]int{a, b}
		if seen[key] {
			t.Fatalf("repeated combination %v", key)
		}
		seen[key] = true
		if !ch.advance() {
			break
		}
	}
	if len(seen) != 6 {
		t.Fatalf("enumerated %d combinations, want 6", len(seen))
	}
}

func TestChooserVariableShape(t *testing.T) {
	// The second choice exists only on one branch of the first — the
	// chooser must handle branch-dependent shapes.
	ch := &chooser{}
	var paths []string
	for {
		ch.begin()
		path := ""
		if ch.choose(chooseFail, 2) == 1 {
			path = "fail"
			switch ch.choose(chooseReadFrom, 2) {
			case 0:
				path += "-rf0"
			case 1:
				path += "-rf1"
			}
		} else {
			path = "continue"
		}
		paths = append(paths, path)
		if !ch.advance() {
			break
		}
	}
	want := "continue,fail-rf0,fail-rf1"
	if got := strings.Join(paths, ","); got != want {
		t.Fatalf("paths = %s, want %s", got, want)
	}
}

func TestChooserReplayMismatchPanics(t *testing.T) {
	ch := &chooser{}
	ch.begin()
	ch.choose(chooseFail, 2)
	ch.advance()
	ch.begin()
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("mismatched replay did not panic")
		}
	}()
	ch.choose(chooseReadFrom, 2) // kind differs from the recorded point
}

func TestChooserDescribe(t *testing.T) {
	ch := &chooser{points: []choicePoint{
		{kind: chooseFail, n: 2, idx: 0},
		{kind: chooseFail, n: 2, idx: 1},
		{kind: chooseReadFrom, n: 4, idx: 2},
	}}
	got := ch.describe()
	if !strings.Contains(got, "fail@1") || !strings.Contains(got, "rf[2/4]") {
		t.Errorf("describe() = %q", got)
	}
}

func TestChooserEnumerationCountProperty(t *testing.T) {
	// For any shape (sequence of option counts), the chooser visits the
	// product of the counts exactly once.
	f := func(shape []uint8) bool {
		if len(shape) > 6 {
			shape = shape[:6]
		}
		want := 1
		counts := make([]int, len(shape))
		for i, s := range shape {
			counts[i] = int(s%3) + 1
			want *= counts[i]
		}
		ch := &chooser{}
		visited := 0
		for {
			ch.begin()
			for _, n := range counts {
				ch.choose(chooseReadFrom, n)
			}
			visited++
			if !ch.advance() {
				break
			}
		}
		return visited == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// ---- trace ring ---------------------------------------------------------------

func TestTraceRing(t *testing.T) {
	r := newTraceRing(3)
	if got := r.snapshot(); len(got) != 0 {
		t.Fatalf("fresh ring snapshot = %v", got)
	}
	r.add(TraceOp{Kind: "a"})
	r.add(TraceOp{Kind: "b"})
	if got := r.snapshot(); len(got) != 2 || got[0].Kind != "a" {
		t.Fatalf("partial ring = %v", got)
	}
	r.add(TraceOp{Kind: "c"})
	r.add(TraceOp{Kind: "d"}) // evicts "a"
	got := r.snapshot()
	if len(got) != 3 || got[0].Kind != "b" || got[2].Kind != "d" {
		t.Fatalf("wrapped ring = %v", got)
	}
}

func TestTraceOpString(t *testing.T) {
	cases := []struct {
		op   TraceOp
		want string
	}{
		{TraceOp{Thread: 0, Kind: "sfence"}, "T0 sfence"},
		{TraceOp{Thread: 1, Kind: "clflush", Addr: 0x40}, "T1 clflush 0x40"},
		{TraceOp{Thread: 2, Kind: "store", Addr: 0x10, Size: 8, Val: 7}, "T2 store 0x10/8 = 0x7"},
	}
	for _, c := range cases {
		if got := c.op.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

// ---- snapshots (Yat instrumentation) -------------------------------------------

func TestSnapshotCuts(t *testing.T) {
	s := &Snapshot{
		Queues: map[pmem.Addr][]pmem.ByteStore{
			0x1000: {{Val: 1, Seq: 1}, {Val: 2, Seq: 5}},
			0x1001: {{Val: 9, Seq: 3}},
			0x2000: {{Val: 4, Seq: 2}},
		},
		Begins: map[pmem.Addr]pmem.Seq{0x2000: 7},
	}
	dirty := s.DirtyLines()
	if len(dirty) != 1 || dirty[0] != 0x1000 {
		t.Fatalf("DirtyLines = %v (line 0x2000 is flushed past its store)", dirty)
	}
	cuts := s.Cuts(0x1000)
	if len(cuts) != 4 || cuts[0] != 0 || cuts[1] != 1 || cuts[2] != 3 || cuts[3] != 5 {
		t.Fatalf("Cuts = %v", cuts)
	}
}

func TestInstrumentFiresPerFailurePoint(t *testing.T) {
	prog := Program{
		Name: "instrument",
		Run: func(c *Context) {
			r := c.Root()
			c.Store64(r, 1)
			c.Clflush(r, 8)
			c.Store64(r.Add(64), 2)
			c.Clflush(r.Add(64), 8)
		},
		Recover: func(c *Context) {},
	}
	var fps []int
	ck := New(prog, Options{MaxScenarios: 1})
	ck.Instrument(func(s *Snapshot) { fps = append(fps, s.FP) })
	ck.Run()
	// Two pre-flush points plus the end (-1).
	if len(fps) != 3 || fps[0] != 0 || fps[1] != 1 || fps[2] != -1 {
		t.Fatalf("snapshot points = %v", fps)
	}
}

// ---- guest locations ------------------------------------------------------------

func TestGuestLocationFindsTestFrame(t *testing.T) {
	res := Execute("loc", func(c *Context) {
		c.Bug("marker")
	}, Options{})
	if !res.Buggy() || !strings.Contains(res.Bugs[0].Message, "internals_test.go") {
		t.Fatalf("bug message lacks guest location: %v", res.Bugs)
	}
}

// ---- Result helpers ---------------------------------------------------------------

func TestResultBugTypeStrings(t *testing.T) {
	for _, bt := range []BugType{BugAssertion, BugIllegalAccess, BugInfiniteLoop, BugExplicit} {
		if bt.String() == "" || strings.HasPrefix(bt.String(), "BugType(") {
			t.Errorf("BugType %d has no name", bt)
		}
	}
	if !strings.HasPrefix(BugType(42).String(), "BugType(") {
		t.Error("unknown BugType should fall back to numeric form")
	}
	b := &BugReport{Type: BugAssertion, Message: "m", Execution: 1, Scenario: 2, Count: 3}
	if s := b.String(); !strings.Contains(s, "assertion failure") || !strings.Contains(s, "3×") {
		t.Errorf("BugReport.String() = %q", s)
	}
	m := &MultiRF{Loc: "f.go:1", Addr: 0x40, Candidates: 2, Values: []string{"a", "b"}, Count: 5}
	if s := m.String(); !strings.Contains(s, "f.go:1") || !strings.Contains(s, "2 stores") {
		t.Errorf("MultiRF.String() = %q", s)
	}
}

// ---- MaxScenarios / MaxBugs caps ---------------------------------------------------

func TestMaxScenariosCap(t *testing.T) {
	prog := Program{
		Name: "cap",
		Run: func(c *Context) {
			r := c.Root()
			for i := uint64(0); i < 20; i++ {
				c.Store64(r.Add(i*64), i+1)
				c.Clflush(r.Add(i*64), 8)
			}
		},
		Recover: func(c *Context) {},
	}
	res := New(prog, Options{MaxScenarios: 5}).Run()
	if res.Scenarios != 5 {
		t.Errorf("Scenarios = %d, want the cap 5", res.Scenarios)
	}
	if res.Complete {
		t.Error("capped exploration reported complete")
	}
}

func TestMaxBugsCap(t *testing.T) {
	n := 0
	prog := Program{
		Name: "many-bugs",
		Run: func(c *Context) {
			r := c.Root()
			for i := uint64(0); i < 10; i++ {
				c.Store64(r.Add(i*64), i+1)
				c.Clflush(r.Add(i*64), 8)
			}
		},
		Recover: func(c *Context) {
			n++
			c.Bug("distinct bug number %d", n) // unique message each scenario
		},
	}
	res := New(prog, Options{MaxBugs: 3}).Run()
	if len(res.Bugs) != 3 {
		t.Errorf("Bugs = %d, want the cap 3", len(res.Bugs))
	}
	if res.Complete {
		t.Error("capped exploration reported complete")
	}
}

func TestExplorationStatistics(t *testing.T) {
	prog := Program{
		Name: "stats",
		Run: func(c *Context) {
			r := c.Root()
			c.Store64(r, 1)
			c.Store64(r, 2)
			c.Store64(r, 3)
			c.Clflush(r, 8) // one mid-run failure decision
		},
		Recover: func(c *Context) {
			_ = c.Load64(c.Root())
		},
	}
	res := New(prog, Options{}).Run()
	if res.Buggy() {
		t.Fatalf("bugs: %v", res.Bugs)
	}
	if res.FailDecisionPoints != 1 {
		t.Errorf("FailDecisionPoints = %d, want 1", res.FailDecisionPoints)
	}
	if res.RFChoicePoints == 0 {
		t.Error("RFChoicePoints = 0; the pre-flush failure branch has choices")
	}
	// Failing before the clflush, the load of r sees {3, 2, 1, initial}.
	if res.MaxRFCandidates != 4 {
		t.Errorf("MaxRFCandidates = %d, want 4", res.MaxRFCandidates)
	}
}
