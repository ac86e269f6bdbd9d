package core

import (
	"testing"

	"jaaru/internal/obs"
	"jaaru/internal/pmem"
)

// snapProgram is a small two-failure-point program with a recovery that
// reads the committed state — enough choice-tree structure for snapshots to
// capture, restore, and invalidate.
func snapProgram(o *obsSet) Program {
	return Program{
		Name: "snap-test",
		Run: func(c *Context) {
			root := c.Root()
			data := c.AllocLine(8)
			c.Store64(data, 7)
			c.Clflush(data, 8)
			c.StorePtr(root, data)
			c.Clflush(root, 8)
		},
		Recover: func(c *Context) {
			p := c.LoadPtr(c.Root())
			if p == 0 {
				o.add("empty")
				return
			}
			o.add("v=%d", c.Load64(p))
		},
	}
}

func TestSnapshotEligibilityGates(t *testing.T) {
	prog := snapProgram(&obsSet{})
	cases := []struct {
		name string
		opts Options
		want bool
	}{
		{"default", Options{}, true},
		{"disabled", Options{Snapshots: -1}, false},
		{"no failure injection", Options{MaxFailures: -1}, false},
		{"random scheduler", Options{RandomScheduler: true, Seed: 1}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New(prog, tc.opts)
			if got := c.snapEligible(); got != tc.want {
				t.Errorf("snapEligible = %v, want %v", got, tc.want)
			}
		})
	}
	t.Run("no recovery", func(t *testing.T) {
		p := prog
		p.Recover = nil
		if New(p, Options{}).snapEligible() {
			t.Error("snapEligible without a Recover function")
		}
	})
}

func TestSnapshotRunUsesRestores(t *testing.T) {
	offObs, onObs := &obsSet{}, &obsSet{}
	off := New(snapProgram(offObs), Options{Snapshots: -1, Observe: true}).Run()
	on := New(snapProgram(onObs), Options{Observe: true}).Run()

	if off.Scenarios != on.Scenarios || off.Executions != on.Executions ||
		off.Steps != on.Steps || len(off.Bugs) != len(on.Bugs) {
		t.Errorf("results diverge: off %+v\non %+v", off, on)
	}
	if !sameStrings(offObs.set(), onObs.set()) {
		t.Errorf("observations diverge: off %v, on %v", offObs.set(), onObs.set())
	}
	if off.Metrics.Canonical() != on.Metrics.Canonical() {
		t.Errorf("canonical metrics diverge:\noff %+v\non  %+v",
			off.Metrics.Canonical(), on.Metrics.Canonical())
	}
	if on.Metrics.SnapshotRestores == 0 {
		t.Error("no scenario restored a snapshot")
	}
	if on.Metrics.SnapshotRestores >= int64(on.Scenarios) {
		t.Errorf("SnapshotRestores = %d out of %d scenarios: the first full run cannot restore",
			on.Metrics.SnapshotRestores, on.Scenarios)
	}
	if off.Metrics.SnapshotCaptures != 0 {
		t.Errorf("disabled engine captured %d snapshots", off.Metrics.SnapshotCaptures)
	}
}

// failPts builds a choice vector of binary failure decisions with the given
// options selected.
func failPts(idx ...int) []choicePoint {
	pts := make([]choicePoint, len(idx))
	for i, v := range idx {
		pts[i] = choicePoint{kind: chooseFail, n: 2, idx: v}
	}
	return pts
}

// snapTestChecker returns a checker with the snapshot stack armed over a
// fresh journaled pmem stack, ready for captureSnap / usableSnapshot to be
// driven by hand.
func snapTestChecker(t *testing.T, opts Options) *Checker {
	t.Helper()
	c := New(snapProgram(&obsSet{}), opts)
	c.stack = pmem.NewStack()
	c.stack.EnableJournal()
	c.beginSnapScenario()
	if !c.snapActive {
		t.Fatal("engine inactive")
	}
	return c
}

// seedOpen installs pts as the chooser's vector with every sibling option
// still open, as after a fresh pass.
func seedOpen(ch *chooser, pts []choicePoint) {
	limits := make([]int, len(pts))
	for i, p := range pts {
		limits[i] = p.n
	}
	ch.seedClaim(pts, limits, nil)
}

// captureAlong replays a capture pass over the chooser's current vector: one
// entry of the given kind at each listed cursor, shallowest first.
func captureAlong(c *Checker, kind snapKind, cursors ...int) {
	for _, cur := range cursors {
		c.chooser.cursor = cur
		c.captureSnap(kind)
	}
}

// TestSnapshotStalePrefixPruned drives usableSnapshot directly: entries
// captured under decisions the chooser has backtracked away from must be
// dropped — together with their share of the common prefix — and a matching
// fail-decision entry selected.
func TestSnapshotStalePrefixPruned(t *testing.T) {
	c := snapTestChecker(t, Options{})
	// Capture pass: both failure points continued; one entry before each.
	seedOpen(c.chooser, failPts(0, 0))
	captureAlong(c, fpSnap, 0, 1)
	if len(c.snaps) != 2 || len(c.snapPrefix) != 1 {
		t.Fatalf("capture pass left %d entries over a %d-point prefix, want 2 over 1",
			len(c.snaps), len(c.snapPrefix))
	}

	// Backtrack: the second point is exhausted and popped, the first flips to
	// fail. The depth-1 entry (captured under "first point continued") is
	// stale, the depth-0 entry usable.
	c.chooser.points = failPts(1)
	c.chooser.stable = 0
	s := c.usableSnapshot()
	if s == nil || s.depth != 0 {
		t.Fatalf("usableSnapshot = %+v, want the depth-0 entry", s)
	}
	if len(c.snaps) != 1 || len(c.snapPrefix) != 0 {
		t.Errorf("stale entry not pruned: %d entries over a %d-point prefix remain",
			len(c.snaps), len(c.snapPrefix))
	}

	// A scenario whose prefix takes no captured fail decision restores
	// nothing, but keeps the still-valid entry cached.
	c.chooser.points = failPts(0)
	c.chooser.stable = 0
	if s := c.usableSnapshot(); s != nil {
		t.Errorf("usableSnapshot = %+v for a continue decision, want nil", s)
	}
	if len(c.snaps) != 1 {
		t.Errorf("valid-but-unusable entry dropped: %d entries remain", len(c.snaps))
	}
}

// TestSnapshotCaptureDepthGuard: re-passing a capture site at or below the
// top entry's depth (a restored prefix) must not duplicate the entry.
func TestSnapshotCaptureDepthGuard(t *testing.T) {
	c := snapTestChecker(t, Options{Observe: true})
	seedOpen(c.chooser, failPts(0, 0, 0))
	captureAlong(c, fpSnap, 2, 2) // same cursor twice: must dedup
	if len(c.snaps) != 1 {
		t.Fatalf("duplicate capture: %d entries", len(c.snaps))
	}
	captureAlong(c, fpSnap, 1) // shallower: a replayed prefix site
	if len(c.snaps) != 1 {
		t.Fatalf("shallow re-capture accepted: %d entries", len(c.snaps))
	}
	captureAlong(c, endSnap, 3)
	if len(c.snaps) != 2 {
		t.Fatalf("deeper capture rejected: %d entries", len(c.snaps))
	}
	if len(c.snapPrefix) != 3 {
		t.Errorf("shared prefix holds %d decisions, want the top entry's depth 3", len(c.snapPrefix))
	}
	if got := c.col.Counters()[obs.SnapshotCaptures]; got != 2 {
		t.Errorf("SnapshotCaptures = %d, want 2", got)
	}
}

// TestSnapshotSkipsFrozenContinue: replaying a claimed vector, a failure
// decision frozen on "continue" (limit 1: its crash subtree was donated
// elsewhere or pruned) gets no entry — no vector of the claim fails there, so
// nothing would ever restore it. Open decisions and the one the vector fails
// at still do.
func TestSnapshotSkipsFrozenContinue(t *testing.T) {
	c := snapTestChecker(t, Options{})
	c.chooser.seedClaim(failPts(0, 0, 0, 1), []int{1, 2, 1, 2}, nil)
	captureAlong(c, fpSnap, 0, 1, 2, 3)
	if len(c.snaps) != 2 || c.snaps[0].depth != 1 || c.snaps[1].depth != 3 {
		t.Fatalf("captured %d entries, want one at the open decision (depth 1) and one at the crash (depth 3)", len(c.snaps))
	}
	if len(c.snapPrefix) != 3 {
		t.Errorf("shared prefix holds %d decisions, want the top entry's depth 3", len(c.snapPrefix))
	}
}

// TestChoiceSnapshotPushPopAllocs is the hot-path allocation gate: once the
// entry pool, the shared prefix and the chooser's slices are warm, a full
// choice-snapshot push (captureSnap) plus the stale-prefix pop back into the
// pool (usableSnapshot) must not allocate.
func TestChoiceSnapshotPushPopAllocs(t *testing.T) {
	c := snapTestChecker(t, Options{})
	c.stack.Push() // post-failure execution: Top().ID == 1
	c.segLogs = append(c.segLogs[:0], nil)
	pts := []choicePoint{
		{kind: chooseFail, n: 2, idx: 1},
		{kind: chooseReadFrom, n: 3, idx: 0},
		{kind: chooseReadFrom, n: 2, idx: 0},
	}
	cycle := func() {
		c.chooser.points = append(c.chooser.points[:0], pts...)
		captureAlong(c, choiceSnap, 2)
		if len(c.snaps) != 1 || len(c.snapPrefix) != 2 {
			t.Fatalf("capture pushed %d entries over a %d-point prefix, want 1 over 2",
				len(c.snaps), len(c.snapPrefix))
		}
		// Backtrack away from the captured prefix: point 2 is exhausted and
		// popped, point 1 flips, the entry goes stale, and the scan pools it.
		c.chooser.points = c.chooser.points[:2]
		c.chooser.points[1].idx = 1
		c.chooser.stable = 1
		if s := c.usableSnapshot(); s != nil {
			t.Fatalf("stale entry survived as %+v", s)
		}
		if len(c.snaps) != 0 || len(c.snapPrefix) != 0 {
			t.Fatalf("pop left %d entries over a %d-point prefix", len(c.snaps), len(c.snapPrefix))
		}
	}
	cycle() // warm the pool and every reused slice
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Errorf("warmed choice-snapshot push/pop allocates %.1f times per cycle, want 0", allocs)
	}
}

// TestChoiceSnapExciseBelow: when porPruneSweep clamps a failure decision,
// the subtree under its fail branch leaves the schedule. The stack needs no
// excision of its own — entries are captured along the live path, which
// stays on the clamped point's continue branch, and advance can no longer
// flip into the excised one — so the next validation must keep the entries
// the live vector still extends, drop the one hanging off the flipped
// sibling, and never hand out an entry under the excised branch.
func TestChoiceSnapExciseBelow(t *testing.T) {
	c := snapTestChecker(t, Options{MaxFailures: 2})
	c.stack.Push()
	c.segLogs = append(c.segLogs[:0], nil)
	ch := c.chooser
	// Live path: crash at point 0, a recovery failure point left on continue
	// (point 1), then two read-from choices.
	ch.points = []choicePoint{
		{kind: chooseFail, n: 2, idx: 1},
		{kind: chooseFail, n: 2, idx: 0},
		{kind: chooseReadFrom, n: 2, idx: 0},
		{kind: chooseReadFrom, n: 2, idx: 0},
	}
	ch.limit = []int{2, 2, 2, 1} // point 3's sibling already explored
	ch.aux = make([]*failMemo, 4)
	captureAlong(c, fpSnap, 1)
	captureAlong(c, choiceSnap, 2, 3)
	if len(c.snaps) != 3 {
		t.Fatalf("capture pass left %d entries, want 3", len(c.snaps))
	}

	ch.limit[1] = 1 // the clamp porPruneSweep applies
	if !ch.advance() {
		t.Fatal("advance found no sibling")
	}
	if ch.points[1].idx != 0 || ch.points[2].idx != 1 || len(ch.points) != 3 {
		t.Fatalf("advance moved to %+v, want point 2 flipped under the un-excised branch", ch.points)
	}
	s := c.usableSnapshot()
	if s == nil || s.kind != choiceSnap || s.depth != 2 {
		t.Fatalf("usableSnapshot = %+v, want the depth-2 choice entry", s)
	}
	if len(c.snaps) != 2 || len(c.snapPrefix) != 2 {
		t.Fatalf("validation kept %d entries over a %d-point prefix, want 2 over 2",
			len(c.snaps), len(c.snapPrefix))
	}
	if c.snapPrefix[1].idx != 0 {
		t.Errorf("surviving prefix takes the excised branch: %+v", c.snapPrefix)
	}

	// Exhausting point 2 pops through the clamped point instead of flipping
	// it: the subtree is done and nothing resumes under fail@1.
	if ch.advance() {
		t.Fatalf("advance flipped into the excised branch: %+v", ch.points)
	}
}
