package core

import (
	"fmt"
	"sort"
	"testing"
)

// obsSet collects recovery observations across scenarios.
type obsSet struct {
	m []string
}

func (o *obsSet) add(format string, args ...any) { o.m = append(o.m, fmt.Sprintf(format, args...)) }

func (o *obsSet) set() []string {
	seen := make(map[string]bool)
	var out []string
	for _, s := range o.m {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFigure2And3 checks the paper's running example end to end: the
// program y=1; x=2; clflush; y=3; x=4; y=5; x=6 with x and y on one cache
// line must expose exactly the post-failure states corresponding to the
// prefix cuts of the store order, bounded below by the clflush.
func TestFigure2And3(t *testing.T) {
	obs := &obsSet{}
	prog := Program{
		Name: "figure2",
		Run: func(c *Context) {
			base := c.Root()
			x, y := base, base.Add(8)
			c.Store64(y, 1)
			c.Store64(x, 2)
			c.Clflush(x, 8)
			c.Store64(y, 3)
			c.Store64(x, 4)
			c.Store64(y, 5)
			c.Store64(x, 6)
		},
		Recover: func(c *Context) {
			base := c.Root()
			x := c.Load64(base)
			y := c.Load64(base.Add(8))
			obs.add("x=%d y=%d", x, y)
		},
	}
	res := New(prog, Options{}).Run()
	want := []string{
		"x=0 y=0", "x=0 y=1",
		"x=2 y=1", "x=2 y=3",
		"x=4 y=3", "x=4 y=5",
		"x=6 y=5",
	}
	if got := obs.set(); !sameStrings(got, want) {
		t.Errorf("observed states = %v, want %v", got, want)
	}
	if !res.Complete {
		t.Error("exploration reported incomplete")
	}
	if res.Buggy() {
		t.Errorf("unexpected bugs: %v", res.Bugs)
	}
	// One mid-run failure point (before the clflush) plus the end.
	if res.FailurePoints != 2 {
		t.Errorf("FailurePoints = %d, want 2", res.FailurePoints)
	}
	if res.Scenarios != 8 {
		t.Errorf("Scenarios = %d, want 8", res.Scenarios)
	}
	if res.Executions != res.Scenarios+1 {
		t.Errorf("Executions = %d, want %d", res.Executions, res.Scenarios+1)
	}
}

// addChild/readChild of Figure 4: the commit-store pattern yields exactly
// 1 + 2 + 1 post-failure executions across the three failure points.
func figure4Program(obs *obsSet) Program {
	const dataVal = 0xd0d0
	return Program{
		Name: "figure4",
		Run: func(c *Context) {
			root := c.Root() // holds ptr->child
			tmp := c.AllocLine(8)
			c.Store64(tmp, dataVal) // tmp->data = data
			c.Clflush(tmp, 8)
			c.StorePtr(root, tmp) // commit store: ptr->child = tmp
			c.Clflush(root, 8)
		},
		Recover: func(c *Context) {
			root := c.Root()
			child := c.LoadPtr(root)
			if child != 0 {
				obs.add("data=%#x", c.Load64(child))
			} else {
				obs.add("null")
			}
		},
	}
}

func TestFigure4CommitStore(t *testing.T) {
	obs := &obsSet{}
	res := New(figure4Program(obs), Options{}).Run()
	if res.Buggy() {
		t.Fatalf("unexpected bugs: %v", res.Bugs)
	}
	if res.FailurePoints != 3 {
		t.Errorf("FailurePoints = %d, want 3", res.FailurePoints)
	}
	if res.Scenarios != 4 {
		t.Errorf("Scenarios = %d, want 4 (1+2+1 per failure point)", res.Scenarios)
	}
	want := []string{"data=0xd0d0", "null"}
	if got := obs.set(); !sameStrings(got, want) {
		t.Errorf("observations = %v, want %v", got, want)
	}
	// The commit store guarantees the data field is never read while
	// unflushed, so no multi-rf loads beyond the commit load itself.
}

// Without the commit-store check, recovery reads the data field directly;
// with the data flush missing this is a detectable crash (reading a stale
// pointer) — the situation §3.2 describes.
func TestMissingFlushDetected(t *testing.T) {
	prog := Program{
		Name: "missing-flush",
		Run: func(c *Context) {
			root := c.Root()
			tmp := c.AllocLine(16)
			inner := c.AllocLine(8)
			c.Store64(inner, 42)
			c.Clflush(inner, 8)
			c.StorePtr(tmp, inner)
			// BUG: tmp (holding the pointer) is never flushed.
			c.StorePtr(root, tmp)
			c.Clflush(root, 8)
		},
		Recover: func(c *Context) {
			root := c.Root()
			node := c.LoadPtr(root)
			if node == 0 {
				return
			}
			inner := c.LoadPtr(node)
			// Recovery trusts the commit store and dereferences without a
			// null check — crashes when the inner pointer did not persist.
			c.Assert(c.Load64(inner) == 42, "lost the inner value")
		},
	}
	res := New(prog, Options{FlagMultiRF: true}).Run()
	if !res.Buggy() {
		t.Fatal("missing flush not detected")
	}
	found := false
	for _, b := range res.Bugs {
		if b.Type == BugIllegalAccess {
			found = true
		}
	}
	if !found {
		t.Errorf("expected an illegal access, got %v", res.Bugs)
	}
	if len(res.MultiRF) == 0 {
		t.Error("debugging support did not flag the multi-rf load")
	}
}

// The fixed version of the same program must explore cleanly.
func TestFixedFlushClean(t *testing.T) {
	prog := Program{
		Name: "fixed-flush",
		Run: func(c *Context) {
			root := c.Root()
			tmp := c.AllocLine(16)
			inner := c.AllocLine(8)
			c.Store64(inner, 42)
			c.Clflush(inner, 8)
			c.StorePtr(tmp, inner)
			c.Clflush(tmp, 8)
			c.StorePtr(root, tmp)
			c.Clflush(root, 8)
		},
		Recover: func(c *Context) {
			root := c.Root()
			node := c.LoadPtr(root)
			if node == 0 {
				return
			}
			inner := c.LoadPtr(node)
			if inner == 0 {
				return
			}
			c.Assert(c.Load64(inner) == 42, "lost the inner value")
		},
	}
	res := New(prog, Options{}).Run()
	if res.Buggy() {
		t.Fatalf("fixed program reported bugs: %v", res.Bugs)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (*Result, []string) {
		obs := &obsSet{}
		res := New(figure4Program(obs), Options{}).Run()
		return res, obs.m
	}
	r1, o1 := run()
	r2, o2 := run()
	if r1.Scenarios != r2.Scenarios || r1.Executions != r2.Executions {
		t.Fatalf("nondeterministic exploration: %+v vs %+v", r1, r2)
	}
	if !sameStrings(o1, o2) {
		t.Fatalf("nondeterministic observations: %v vs %v", o1, o2)
	}
}

func TestExecuteDirect(t *testing.T) {
	ran := false
	res := Execute("direct", func(c *Context) {
		a := c.Alloc(64, 8)
		c.Store64(a, 7)
		if got := c.Load64(a); got != 7 {
			t.Errorf("Load64 = %d", got)
		}
		ran = true
	}, Options{})
	if !ran || res.Scenarios != 1 || res.Buggy() {
		t.Fatalf("direct execution: ran=%v res=%+v", ran, res)
	}
}

func TestIllegalAccessNull(t *testing.T) {
	res := Execute("null", func(c *Context) {
		c.Load64(0)
	}, Options{})
	if !res.Buggy() || res.Bugs[0].Type != BugIllegalAccess {
		t.Fatalf("null load: %+v", res.Bugs)
	}
}

func TestIllegalAccessWild(t *testing.T) {
	res := Execute("wild", func(c *Context) {
		c.Store64(c.PoolLimit().Add(1024), 1)
	}, Options{})
	if !res.Buggy() || res.Bugs[0].Type != BugIllegalAccess {
		t.Fatalf("wild store: %+v", res.Bugs)
	}
}

func TestInfiniteLoopDetection(t *testing.T) {
	res := Execute("loop", func(c *Context) {
		a := c.Alloc(8, 8)
		for c.Load64(a) == 0 {
		}
	}, Options{MaxSteps: 1000})
	if !res.Buggy() || res.Bugs[0].Type != BugInfiniteLoop {
		t.Fatalf("infinite loop: %+v", res.Bugs)
	}
}

func TestAssertionBug(t *testing.T) {
	res := Execute("assert", func(c *Context) {
		c.Assert(1 == 2, "math broke: %d", 42)
	}, Options{})
	if !res.Buggy() || res.Bugs[0].Type != BugAssertion {
		t.Fatalf("assert: %+v", res.Bugs)
	}
	if res.Bugs[0].Message == "" {
		t.Error("empty bug message")
	}
}

// Bugs with the same type and message are grouped, as in the paper's
// Figure 12 ("to be conservative we report each such group of bugs as one
// bug").
func TestBugDeduplication(t *testing.T) {
	prog := Program{
		Name: "dedupe",
		Run: func(c *Context) {
			r := c.Root()
			c.Store64(r, 1)
			c.Clflush(r, 8)
			c.Store64(r, 2)
			c.Clflush(r, 8)
			c.Store64(r, 3)
			c.Clflush(r, 8)
		},
		Recover: func(c *Context) {
			c.Bug("always broken")
		},
	}
	res := New(prog, Options{}).Run()
	if len(res.Bugs) != 1 {
		t.Fatalf("bugs = %v, want one deduplicated entry", res.Bugs)
	}
	if res.Bugs[0].Count < 2 {
		t.Errorf("bug count = %d, want several scenarios", res.Bugs[0].Count)
	}
}

func TestStopAtFirstBug(t *testing.T) {
	calls := 0
	prog := Program{
		Name: "stopfirst",
		Run: func(c *Context) {
			r := c.Root()
			for i := 0; i < 10; i++ {
				c.Store64(r.Add(uint64(i)*8), uint64(i))
				c.Clflush(r.Add(uint64(i)*8), 8)
			}
		},
		Recover: func(c *Context) {
			calls++
			c.Bug("boom")
		},
	}
	res := New(prog, Options{StopAtFirstBug: true}).Run()
	if !res.Buggy() || calls != 1 {
		t.Fatalf("StopAtFirstBug: calls=%d res=%+v", calls, res)
	}
	if res.Complete {
		t.Error("truncated exploration reported complete")
	}
}

// Figure 4 with failure injection enabled in recovery (MaxFailures=2): the
// scenario space grows but observations stay the same.
func TestMultiFailureDepth(t *testing.T) {
	obs := &obsSet{}
	res := New(figure4Program(obs), Options{MaxFailures: 2}).Run()
	if res.Buggy() {
		t.Fatalf("bugs: %v", res.Bugs)
	}
	single := New(figure4Program(&obsSet{}), Options{MaxFailures: 1}).Run()
	if res.Scenarios < single.Scenarios {
		t.Errorf("depth-2 scenarios (%d) < depth-1 scenarios (%d)",
			res.Scenarios, single.Scenarios)
	}
	want := []string{"data=0xd0d0", "null"}
	if got := obs.set(); !sameStrings(got, want) {
		t.Errorf("observations = %v, want %v", got, want)
	}
}

// A recovery that rewrites state and can itself crash: after writing and
// flushing a repair marker, a second failure and recovery must see either
// the original commit or the repair, never garbage.
func TestRecoveryFailureRecovery(t *testing.T) {
	obs := &obsSet{}
	prog := Program{
		Name: "recovery-crash",
		Run: func(c *Context) {
			r := c.Root()
			c.Store64(r, 100)
			c.Clflush(r, 8)
		},
		Recover: func(c *Context) {
			r := c.Root()
			v := c.Load64(r)
			obs.add("saw %d", v)
			c.Assert(v == 0 || v == 100 || v == 200, "garbage value %d", v)
			c.Store64(r, 200)
			c.Clflush(r, 8)
		},
	}
	res := New(prog, Options{MaxFailures: 3}).Run()
	if res.Buggy() {
		t.Fatalf("bugs: %v", res.Bugs)
	}
	got := obs.set()
	for _, w := range []string{"saw 0", "saw 100", "saw 200"} {
		found := false
		for _, g := range got {
			if g == w {
				found = true
			}
		}
		if !found {
			t.Errorf("missing observation %q in %v", w, got)
		}
	}
}

func TestMixedSizeAccesses(t *testing.T) {
	res := Execute("mixed", func(c *Context) {
		a := c.Alloc(8, 8)
		c.Store64(a, 0x1122334455667788)
		if got := c.Load32(a); got != 0x55667788 {
			t.Errorf("Load32 low = %#x", got)
		}
		if got := c.Load32(a.Add(4)); got != 0x11223344 {
			t.Errorf("Load32 high = %#x", got)
		}
		if got := c.Load16(a.Add(2)); got != 0x5566 {
			t.Errorf("Load16 = %#x", got)
		}
		c.Store8(a.Add(7), 0xff)
		if got := c.Load64(a); got != 0xff22334455667788 {
			t.Errorf("after Store8: %#x", got)
		}
		c.Store16(a, 0xaabb)
		if got := c.Load64(a); got != 0xff2233445566aabb {
			t.Errorf("after Store16: %#x", got)
		}
	}, Options{})
	if res.Buggy() {
		t.Fatalf("bugs: %v", res.Bugs)
	}
}

// A torn multi-byte value must be observable when the two halves were
// written by different stores and the line was not flushed between them —
// and refinement must forbid impossible combinations.
func TestMixedSizeTearing(t *testing.T) {
	obs := &obsSet{}
	prog := Program{
		Name: "tearing",
		Run: func(c *Context) {
			r := c.Root()
			c.Store32(r, 0x11111111)
			c.Store32(r.Add(4), 0x22222222)
			c.Clflush(r, 8)
		},
		Recover: func(c *Context) {
			obs.add("%#x", c.Load64(c.Root()))
		},
	}
	res := New(prog, Options{}).Run()
	if res.Buggy() {
		t.Fatalf("bugs: %v", res.Bugs)
	}
	want := []string{"0x0", "0x11111111", "0x2222222211111111"}
	if got := obs.set(); !sameStrings(got, want) {
		t.Errorf("torn values = %v, want %v", got, want)
	}
}

func TestCAS(t *testing.T) {
	res := Execute("cas", func(c *Context) {
		a := c.Alloc(8, 8)
		c.Store64(a, 5)
		if !c.CAS64(a, 5, 9) {
			t.Error("CAS should succeed")
		}
		if c.CAS64(a, 5, 11) {
			t.Error("CAS should fail")
		}
		if got := c.Load64(a); got != 9 {
			t.Errorf("after CAS: %d", got)
		}
		if old := c.AtomicAdd64(a, 3); old != 9 {
			t.Errorf("AtomicAdd old = %d", old)
		}
		if old := c.AtomicExchange64(a, 1); old != 12 {
			t.Errorf("AtomicExchange old = %d", old)
		}
	}, Options{})
	if res.Buggy() {
		t.Fatalf("bugs: %v", res.Bugs)
	}
}

// Locked RMW has mfence semantics: it drains the flush buffer, so a prior
// clflushopt's writeback is ordered before the RMW's own store. If recovery
// observes the RMW's store, the flushed value must have persisted.
func TestRMWDrainsFlushBuffer(t *testing.T) {
	obs := &obsSet{}
	prog := Program{
		Name: "rmw-fence",
		Run: func(c *Context) {
			r := c.Root()
			c.Store64(r, 77)
			c.Clflushopt(r, 8)
			c.AtomicAdd64(r.Add(64), 1) // locked RMW on another line
		},
		Recover: func(c *Context) {
			r := c.Root()
			obs.add("r=%d flag=%d", c.Load64(r), c.Load64(r.Add(64)))
		},
	}
	res := New(prog, Options{}).Run()
	if res.Buggy() {
		t.Fatalf("bugs: %v", res.Bugs)
	}
	sawUnflushed := false
	for _, o := range obs.set() {
		if o == "r=0 flag=1" {
			t.Fatal("RMW store persisted without the preceding clflushopt writeback")
		}
		if o == "r=0 flag=0" {
			sawUnflushed = true // failure before the writeback is a real state
		}
	}
	if !sawUnflushed {
		t.Errorf("failure before the writeback never explored: %v", obs.set())
	}
}

// Without any fence, a clflushopt alone must NOT guarantee persistence at a
// mid-run failure (it may still sit in the flush buffer)... but after the
// program completes, quiescence applies it.
func TestClflushoptAloneQuiesces(t *testing.T) {
	obs := &obsSet{}
	prog := Program{
		Name: "clflushopt-alone",
		Run: func(c *Context) {
			r := c.Root()
			c.Store64(r, 55)
			c.Clflushopt(r, 8)
		},
		Recover: func(c *Context) {
			obs.add("r=%d", c.Load64(c.Root()))
		},
	}
	res := New(prog, Options{}).Run()
	if res.Buggy() {
		t.Fatalf("bugs: %v", res.Bugs)
	}
	want := []string{"r=0", "r=55"}
	if got := obs.set(); !sameStrings(got, want) {
		t.Errorf("observations = %v, want %v", got, want)
	}
}

func TestSpawnJoin(t *testing.T) {
	res := Execute("threads", func(c *Context) {
		a := c.Alloc(16, 8)
		h1 := c.Spawn(func(c *Context) {
			c.Store64(a, 1)
		})
		h2 := c.Spawn(func(c *Context) {
			c.Store64(a.Add(8), 2)
		})
		h1.Join(c)
		h2.Join(c)
		if c.Load64(a) != 1 || c.Load64(a.Add(8)) != 2 {
			t.Error("spawned writes lost")
		}
	}, Options{})
	if res.Buggy() {
		t.Fatalf("bugs: %v", res.Bugs)
	}
}

// Store buffering (the classic SB litmus test): with EvictAtFences both
// threads may read 0 from the other's variable.
func TestStoreBufferingLitmus(t *testing.T) {
	obs := &obsSet{}
	prog := Program{
		Name: "sb-litmus",
		Run: func(c *Context) {
			x := c.Alloc(8, 64)
			y := c.Alloc(8, 64)
			var r1, r2 uint64
			h1 := c.Spawn(func(c *Context) {
				c.Store64(x, 1)
				r1 = c.Load64(y)
			})
			h2 := c.Spawn(func(c *Context) {
				c.Store64(y, 1)
				r2 = c.Load64(x)
			})
			h1.Join(c)
			h2.Join(c)
			obs.add("r1=%d r2=%d", r1, r2)
		},
	}
	res := New(prog, Options{Eviction: EvictAtFences}).Run()
	if res.Buggy() {
		t.Fatalf("bugs: %v", res.Bugs)
	}
	got := obs.set()
	if !sameStrings(got, []string{"r1=0 r2=0"}) {
		t.Errorf("round-robin at-fences schedule should observe r1=r2=0, got %v", got)
	}
	// A thread always sees its own buffered store (bypass).
	res2 := Execute("bypass", func(c *Context) {
		x := c.Alloc(8, 64)
		c.Store64(x, 7)
		if got := c.Load64(x); got != 7 {
			t.Errorf("bypass read %d", got)
		}
	}, Options{Eviction: EvictAtFences})
	if res2.Buggy() {
		t.Fatalf("bugs: %v", res2.Bugs)
	}
}

// A failure injected while a child thread is running must tear down all
// guest goroutines and still explore recovery correctly.
func TestCrashWithChildThreads(t *testing.T) {
	obs := &obsSet{}
	prog := Program{
		Name: "crash-children",
		Run: func(c *Context) {
			a := c.Alloc(64, 64)
			h := c.Spawn(func(c *Context) {
				for i := 0; i < 4; i++ {
					c.Store64(a.Add(uint64(i)*8), uint64(i+1))
					c.Clflush(a.Add(uint64(i)*8), 8)
				}
			})
			c.Store64(a.Add(32), 99)
			c.Clflush(a.Add(32), 8)
			h.Join(c)
			c.StorePtr(c.Root(), a)
			c.Clflush(c.Root(), 8)
		},
		Recover: func(c *Context) {
			p := c.LoadPtr(c.Root())
			if p == 0 {
				obs.add("uncommitted")
				return
			}
			obs.add("v0=%d", c.Load64(p))
		},
	}
	res := New(prog, Options{}).Run()
	if res.Buggy() {
		t.Fatalf("bugs: %v", res.Bugs)
	}
	if res.Scenarios < 5 {
		t.Errorf("expected several scenarios, got %d", res.Scenarios)
	}
	if len(obs.set()) < 2 {
		t.Errorf("observations = %v", obs.set())
	}
}

func TestGuestFaultOnChildThread(t *testing.T) {
	res := Execute("child-fault", func(c *Context) {
		h := c.Spawn(func(c *Context) {
			c.Load64(0) // null deref on child
		})
		h.Join(c)
	}, Options{})
	if !res.Buggy() || res.Bugs[0].Type != BugIllegalAccess {
		t.Fatalf("child fault: %+v", res.Bugs)
	}
}

func TestChecksumRecovery(t *testing.T) {
	// Checksum-based recovery without explicit flushes (§4): write data and
	// its checksum, never flush; recovery validates the checksum before
	// trusting the data. Valid data is only observed when the checksum
	// matches, and matching checksums always accompany intact data.
	obs := &obsSet{}
	prog := Program{
		Name: "checksum",
		Run: func(c *Context) {
			r := c.Root()
			c.Store64(r.Add(8), 0xabcdef)
			sum := c.Fnv64(r.Add(8), 8)
			c.Store64(r, sum)
		},
		Recover: func(c *Context) {
			r := c.Root()
			sum := c.Load64(r)
			if sum == 0 {
				obs.add("empty")
				return
			}
			if c.Fnv64(r.Add(8), 8) == sum {
				c.Assert(c.Load64(r.Add(8)) == 0xabcdef, "checksum matched corrupt data")
				obs.add("valid")
			} else {
				obs.add("corrupt")
			}
		},
	}
	res := New(prog, Options{}).Run()
	if res.Buggy() {
		t.Fatalf("bugs: %v", res.Bugs)
	}
	got := obs.set()
	foundValid := false
	for _, g := range got {
		if g == "valid" {
			foundValid = true
		}
	}
	if !foundValid {
		t.Errorf("checksum-valid state never explored: %v", got)
	}
}

func TestTraceInBugReport(t *testing.T) {
	prog := Program{
		Name: "trace",
		Run: func(c *Context) {
			r := c.Root()
			c.Store64(r, 1)
			c.Clflush(r, 8)
		},
		Recover: func(c *Context) {
			c.Bug("report me")
		},
	}
	res := New(prog, Options{}).Run()
	if !res.Buggy() {
		t.Fatal("no bug")
	}
	trace := res.Bugs[0].Trace(16)
	if len(trace) == 0 {
		t.Fatal("bug report has no trace")
	}
	if first := trace[0]; first.Kind != "store" || first.Addr != PoolBase {
		t.Errorf("trace starts at %v, want the pre-failure store", first)
	}
	if got := res.Bugs[0].Trace(1); len(got) != 1 || got[0] != trace[len(trace)-1] {
		t.Errorf("Trace(1) = %v, want the last operation of %v", got, trace)
	}
	if res.Bugs[0].Choices == "" && res.Bugs[0].Scenario > 0 {
		t.Error("bug report has no choice description")
	}
}

func TestRootAreaAlwaysAddressable(t *testing.T) {
	res := Execute("root", func(c *Context) {
		r := c.Root()
		c.Store64(r.Add(RootSize-8), 3)
		if c.Load64(r.Add(RootSize-8)) != 3 {
			t.Error("root area store/load failed")
		}
	}, Options{})
	if res.Buggy() {
		t.Fatalf("bugs: %v", res.Bugs)
	}
}

func TestInRecoveryAndExecutionIndex(t *testing.T) {
	var preIdx, recIdx int
	var preIn, recIn bool
	prog := Program{
		Name: "exec-index",
		Run: func(c *Context) {
			preIdx, preIn = c.Execution(), c.InRecovery()
			c.Store64(c.Root(), 1)
			c.Clflush(c.Root(), 8)
		},
		Recover: func(c *Context) {
			recIdx, recIn = c.Execution(), c.InRecovery()
		},
	}
	res := New(prog, Options{}).Run()
	if res.Buggy() {
		t.Fatal(res.Bugs)
	}
	if preIdx != 0 || preIn {
		t.Errorf("pre-failure: Execution=%d InRecovery=%v", preIdx, preIn)
	}
	if recIdx != 1 || !recIn {
		t.Errorf("recovery: Execution=%d InRecovery=%v", recIdx, recIn)
	}
}

func TestBulkByteHelpers(t *testing.T) {
	res := Execute("bulk", func(c *Context) {
		a := c.Alloc(32, 8)
		c.StoreBytes(a, []byte{9, 8, 7})
		got := c.LoadBytes(a, 3)
		if got[0] != 9 || got[1] != 8 || got[2] != 7 {
			c.Bug("StoreBytes/LoadBytes mismatch: %v", got)
		}
		c.Memset(a.Add(8), 0x5A, 4)
		if c.Load32(a.Add(8)) != 0x5A5A5A5A {
			c.Bug("Memset mismatch")
		}
		c.Clwb(a, 16)
		c.Sfence()
	}, Options{})
	if res.Buggy() {
		t.Fatal(res.Bugs)
	}
}

// A non-guest panic on a child thread must propagate to the caller, not be
// swallowed as a bug.
func TestUnexpectedChildPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("child panic did not propagate")
		} else if r != "genuine bug" {
			t.Fatalf("wrong panic: %v", r)
		}
	}()
	Execute("child-panic", func(c *Context) {
		h := c.Spawn(func(c *Context) {
			c.Store64(c.Root(), 1) // take at least one turn
			panic("genuine bug")
		})
		h.Join(c)
	}, Options{})
}
