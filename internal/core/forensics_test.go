package core

import (
	"testing"
)

// deepBugProgram manifests only at a later failure point, so its recorded
// choice prefix carries leading fail=0 decisions the minimizer can try to
// strip.
func deepBugProgram() Program {
	return Program{
		Name: "deep-bug",
		Run: func(c *Context) {
			a := c.AllocLine(8)
			c.Store64(a, 1)
			c.Clflush(a, 8) // failure point: harmless, a is self-contained
			c.Store64(a, 2)
			c.Clflush(a, 8) // failure point: harmless
			inner := c.AllocLine(8)
			c.Store64(inner, 42)
			// BUG: inner never flushed before the commit.
			c.StorePtr(c.Root(), inner)
			c.Clflush(c.Root(), 8)
		},
		Recover: func(c *Context) {
			if p := c.LoadPtr(c.Root()); p != 0 {
				c.Assert(c.Load64(p) == 42, "lost inner value")
			}
		},
	}
}

func TestBuildWitnessReproducesAndAnnotates(t *testing.T) {
	prog := buggyReplayProgram()
	res := New(prog, Options{}).Run()
	if !res.Buggy() {
		t.Fatal("no bug")
	}
	w := BuildWitness(prog, Options{}, res.Bugs[0])
	if !w.Reproduced {
		t.Fatal("witness replay did not reproduce the bug")
	}
	if w.Program != "replay-me" || w.Bug.Message != res.Bugs[0].Message {
		t.Errorf("witness header mismatch: %+v", w.Bug)
	}
	// The witness replay carries no ring: the recorder captures the full
	// trace itself — including the pre-failure commit store.
	foundCommit, cacheTransition := false, false
	for _, op := range w.Ops {
		if op.Kind == "store" && op.Addr == uint64(PoolBase) && op.Exec == 0 {
			foundCommit = true
			for _, tr := range op.Transitions {
				if tr.Phase == "cache" {
					cacheTransition = true
				}
			}
		}
	}
	if !foundCommit {
		t.Error("pre-failure commit store missing from witness ops")
	}
	if !cacheTransition {
		t.Error("commit store has no cache transition")
	}
	if len(w.Failures) == 0 {
		t.Error("no failure mark recorded")
	}
	if len(w.Lines) == 0 {
		t.Error("no cache-line timelines recorded")
	}
	// The recovery's refined loads carry candidate verdicts, and at least
	// one candidate per resolved load is marked chosen.
	if len(w.Loads) == 0 {
		t.Fatal("no load resolutions recorded")
	}
	for _, l := range w.Loads {
		if len(l.Candidates) == 0 {
			t.Fatalf("load at op %d has no candidates", l.Op)
		}
		if !l.Candidates[l.Chosen].Chosen {
			t.Errorf("load at op %d: Chosen index %d not marked", l.Op, l.Chosen)
		}
		for _, c := range l.Candidates {
			if c.Reason == "" {
				t.Errorf("load at op %d: candidate without verdict reason", l.Op)
			}
		}
	}
	// Every consumed decision maps to an operation.
	for _, d := range w.Decisions {
		if d.Op < 0 {
			t.Errorf("decision %d (%s) not attributed to an operation", d.Index, d.Kind)
		}
	}
}

// The Result/BugReport accessors carry the exploration's program and options,
// so no re-supplying is needed.
func TestWitnessAccessors(t *testing.T) {
	res := New(buggyReplayProgram(), Options{}).Run()
	if !res.Buggy() {
		t.Fatal("no bug")
	}
	w, err := res.Witness(0)
	if err != nil || !w.Reproduced {
		t.Fatalf("Result.Witness: %v (reproduced=%v)", err, w != nil && w.Reproduced)
	}
	if _, err := res.Witness(5); err == nil {
		t.Error("out-of-range Witness index accepted")
	}
	if _, err := (&BugReport{}).Witness(); err == nil {
		t.Error("hand-built report produced a witness")
	}
	nb, m, err := res.Bugs[0].Minimize()
	if err != nil || nb == nil || m == nil {
		t.Fatalf("BugReport.Minimize: %v", err)
	}
}

func TestMinimizePreservesBugAndNeverGrows(t *testing.T) {
	for _, prog := range []Program{buggyReplayProgram(), deepBugProgram()} {
		t.Run(prog.Name, func(t *testing.T) {
			opts := Options{MaxFailures: 1}
			res := New(prog, opts).Run()
			if !res.Buggy() {
				t.Fatal("no bug")
			}
			b := res.Bugs[0]
			nb, m := Minimize(prog, opts, b)
			if m.MinimizedLen > m.OriginalLen {
				t.Fatalf("minimized prefix grew: %d -> %d", m.OriginalLen, m.MinimizedLen)
			}
			if len(nb.replay) != m.MinimizedLen || m.OriginalLen != len(b.replay) {
				t.Fatalf("lengths inconsistent: report %d/%d, stats %+v",
					len(b.replay), len(nb.replay), m)
			}
			if nb.key() != b.key() {
				t.Fatalf("minimized report changed key: %q vs %q", nb.key(), b.key())
			}
			// The minimized prefix still reproduces the same bug key, and is
			// locally minimal: dropping any single remaining decision loses it.
			if !minimizeTrial(prog, opts, nb.replay, b.key()) {
				t.Fatal("minimized prefix does not reproduce the bug")
			}
			for i := range nb.replay {
				cand := append([]choicePoint(nil), nb.replay[:i]...)
				cand = append(cand, nb.replay[i+1:]...)
				if minimizeTrial(prog, opts, cand, b.key()) {
					t.Errorf("decision %d removable: prefix not locally minimal", i)
				}
			}
			if m.Trials <= 0 || m.Trials > minimizeMaxTrials {
				t.Errorf("implausible trial count %d", m.Trials)
			}
		})
	}
}

// The witness replay runs with snapshots forced off even when the
// exploration used them, so the replayed trace always includes the
// pre-failure segment.
func TestWitnessWithSnapshotsOnRegression(t *testing.T) {
	prog := buggyReplayProgram()
	opts := Options{Snapshots: 4} // snapshot engine on during exploration
	res := New(prog, opts).Run()
	if !res.Buggy() {
		t.Fatal("no bug")
	}
	// Replay sees the pre-failure commit store...
	trace := Replay(prog, opts, res.Bugs[0])
	found := false
	for _, op := range trace {
		if op.Kind == "store" && op.Addr == PoolBase {
			found = true
		}
	}
	if !found {
		t.Error("Replay with snapshots-on options lost the pre-failure segment")
	}
	// ...and so does the structured witness.
	w := BuildWitness(prog, opts, res.Bugs[0])
	if !w.Reproduced {
		t.Fatal("witness with snapshots-on options did not reproduce")
	}
	preFailure := 0
	for _, op := range w.Ops {
		if op.Exec == 0 {
			preFailure++
		}
	}
	if preFailure == 0 {
		t.Error("structured witness has no pre-failure operations")
	}
}
