package core

import (
	"encoding/json"
	"testing"
)

func buggyReplayProgram() Program {
	return Program{
		Name: "replay-me",
		Run: func(c *Context) {
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

func TestReplayReproducesBug(t *testing.T) {
	// Explore (the cheap pass: exploration records no operations)...
	ck := New(buggyReplayProgram(), Options{})
	res := ck.Run()
	if !res.Buggy() {
		t.Fatal("no bug to replay")
	}
	if ck.trace != nil {
		t.Fatal("the exploration checker carries a trace ring")
	}
	// ...then replay the recorded scenario with full tracing.
	trace := Replay(buggyReplayProgram(), Options{}, res.Bugs[0])
	if len(trace) == 0 {
		t.Fatal("replay produced no trace")
	}
	stores, loads := 0, 0
	for _, op := range trace {
		switch op.Kind {
		case "store":
			stores++
		case "load":
			loads++
		}
	}
	if stores < 2 || loads < 1 {
		t.Errorf("replay trace implausible: %d stores, %d loads\n%v", stores, loads, trace)
	}
	// The last guest activity is the recovery's reads leading to the
	// assertion; the trace must include the pre-failure commit store too.
	foundCommit := false
	for _, op := range trace {
		if op.Kind == "store" && op.Addr == PoolBase {
			foundCommit = true
		}
	}
	if !foundCommit {
		t.Errorf("pre-failure commit store missing from replay trace:\n%v", trace)
	}
}

func TestReplayDeterministic(t *testing.T) {
	res := New(buggyReplayProgram(), Options{}).Run()
	if !res.Buggy() {
		t.Fatal("no bug")
	}
	t1 := Replay(buggyReplayProgram(), Options{}, res.Bugs[0])
	t2 := Replay(buggyReplayProgram(), Options{}, res.Bugs[0])
	if len(t1) != len(t2) {
		t.Fatalf("replay lengths differ: %d vs %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("replay diverged at op %d: %v vs %v", i, t1[i], t2[i])
		}
	}
}

// A report that went through encoding/json — the job API's path to a Go
// client — keeps Choices but loses the unexported choice vector. Replaying
// the empty vector would silently run scenario 0 and present its trace as
// the bug's; every replay entry point must decline instead.
func TestLostReplayVectorDeclines(t *testing.T) {
	prog := buggyReplayProgram()
	res := New(prog, Options{}).Run()
	if !res.Buggy() || res.Bugs[0].Choices == "" {
		t.Fatalf("need a bug past scenario 0, got %v", res.Bugs)
	}
	b := res.Bugs[0]
	buf, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	var lost BugReport
	if err := json.Unmarshal(buf, &lost); err != nil {
		t.Fatal(err)
	}
	if lost.Choices != b.Choices || lost.Message != b.Message || lost.replayable() {
		t.Fatalf("round trip: %+v (replayable %v), want the exported fields of %+v and no vector",
			lost, lost.replayable(), *b)
	}
	if ops := Replay(prog, Options{}, &lost); ops != nil {
		t.Errorf("Replay returned %d operations of some other scenario", len(ops))
	}
	if ops := lost.Trace(64); ops != nil {
		t.Errorf("Trace returned %d operations without an exploration reference", len(ops))
	}
	// Even with the exploration reference re-attached there is no vector.
	lost.prog, lost.opts = b.prog, b.opts
	if ops := lost.Trace(64); ops != nil {
		t.Errorf("Trace returned %d operations of some other scenario", len(ops))
	}
	if w := BuildWitness(prog, Options{}, &lost); w.Reproduced || len(w.Ops) != 0 {
		t.Errorf("BuildWitness replayed something: reproduced=%v, %d ops", w.Reproduced, len(w.Ops))
	}
	nb, m := Minimize(prog, Options{}, &lost)
	if nb.Choices != b.Choices || m.Trials != 0 || m.MinimizedChoices != b.Choices {
		t.Errorf("Minimize changed the report: choices %q, %+v", nb.Choices, *m)
	}
	// The intact report still does all of it.
	if len(b.Trace(64)) == 0 || !BuildWitness(prog, Options{}, b).Reproduced {
		t.Error("the intact report no longer replays")
	}
}

// Trace never panics: an engine-error report (its vector is the branch prefix
// that broke) and a guest that no longer presents the recorded choice points
// both yield nil, where Replay would propagate the engine error.
func TestTraceDeclinesEngineErrors(t *testing.T) {
	prog := buggyReplayProgram()
	res := New(prog, Options{}).Run()
	if !res.Buggy() {
		t.Fatal("no bug")
	}
	eng := *res.Bugs[0]
	eng.Type = BugEngine
	if ops := eng.Trace(64); ops != nil {
		t.Errorf("engine-error report traced %d operations", len(ops))
	}
	// A vector whose first point records another arity than the guest's first
	// failure decision presents: Replay panics, Trace declines.
	skew := *res.Bugs[0]
	skew.replay = append([]choicePoint(nil), skew.replay...)
	skew.replay[0].n++
	func() {
		defer func() {
			if _, ok := recover().(engineError); !ok {
				t.Error("Replay of a skewed vector did not raise the engine error")
			}
		}()
		Replay(prog, Options{}, &skew)
	}()
	if ops := skew.Trace(64); ops != nil {
		t.Errorf("a vector the guest does not follow traced %d operations", len(ops))
	}
	for _, n := range []int{0, -1} {
		if ops := res.Bugs[0].Trace(n); ops != nil {
			t.Errorf("Trace(%d) = %v, want nil", n, ops)
		}
	}
}
