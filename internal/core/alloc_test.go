package core

import (
	"testing"

	"jaaru/internal/pmem"
	"jaaru/internal/tso"
)

// Allocation-regression gates for the paged memory layout: the simulator's
// per-operation hot path and the per-scenario reset must stay allocation-free
// once the pooled state is warmed, or throughput regresses across the
// millions of replays an exploration performs.

// allocGateChecker builds a warmed checker with a live main thread whose
// Context can issue guest operations directly.
func allocGateChecker() (*Checker, *Context) {
	c := New(Program{Name: "alloc-gate", Run: func(*Context) {}}, Options{})
	c.resetScenario()
	main := c.sched.reset(c.opts.SBCapacity, nil)
	return c, &Context{ck: c, th: main}
}

// TestSteadyStateOpAllocations pins Store8 / Store64 (as one arena node, and
// over bytes of mixed history as eight) / Load64 / Clflush / Clflushopt /
// Sfence / Persist under the default eviction policy, a store with a forensics
// probe attached, and the post-failure Load64 answered from the pinned
// summary, at zero heap allocations per operation on a warmed scenario.
func TestSteadyStateOpAllocations(t *testing.T) {
	c, ctx := allocGateChecker()
	a := ctx.Root()
	b := a.Add(64)
	w := a.Add(128)
	// Warm: grow the store-queue arena, page index, line table and TSO
	// buffers to steady-state capacity (11 arena nodes per round: 25 300,
	// 4 000 short of the next growth; the pins below append 2 010).
	for i := 0; i < 2300; i++ {
		ctx.Store64(a, uint64(i))
		ctx.Store64(b, uint64(i))
		ctx.Store8(w.Add(3), uint8(i))
		ctx.Store64(w, uint64(i))
		_ = ctx.Load64(a)
		ctx.Clflush(a, 8)
	}

	if n := testing.AllocsPerRun(200, func() { ctx.Store64(a, 7) }); n != 0 {
		t.Errorf("Store64 allocates %.3f times per op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { ctx.Store8(w.Add(3), 7) }); n != 0 {
		t.Errorf("Store8 allocates %.3f times per op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { ctx.Store64(w, 7) }); n != 0 {
		t.Errorf("Store64 over a word with a byte stored into it allocates %.3f times per op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { _ = ctx.Load64(a) }); n != 0 {
		t.Errorf("Load64 allocates %.3f times per op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { ctx.Clflush(b, 8) }); n != 0 {
		t.Errorf("Clflush allocates %.3f times per op, want 0", n)
	}
	// The eager flush buffer, warmed past the 201 writebacks the Clflushopt
	// pin appends: a clflushopt appends to it, an sfence drains it.
	for i := 0; i < 256; i++ {
		ctx.Clflushopt(b, 8)
	}
	ctx.Sfence()
	if n := testing.AllocsPerRun(200, func() { ctx.Clflushopt(b, 8) }); n != 0 {
		t.Errorf("Clflushopt allocates %.3f times per op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { ctx.Sfence() }); n != 0 {
		t.Errorf("Sfence allocates %.3f times per op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { ctx.Persist(b, 8) }); n != 0 {
		t.Errorf("Persist allocates %.3f times per op, want 0", n)
	}
	// A forensics probe sees each store as the entry evict would report.
	var probed int
	c.sched.probe = &tso.Probe{OnEvict: func(tso.Entry, pmem.Seq) { probed++ }}
	ctx.th.ts.SetProbe(c.sched.probe)
	if n := testing.AllocsPerRun(200, func() { ctx.Store64(a, 7) }); n != 0 || probed == 0 {
		t.Errorf("Store64 with a probe attached allocates %.3f times per op (%d probe calls), want 0", n, probed)
	}
	c.sched.probe = nil
	ctx.th.ts.SetProbe(nil)

	// After a failure, one read pins the word; from the second on Load64 is
	// answered from the pinned summary.
	c.pushExecution()
	ctx.th = c.sched.reset(c.opts.SBCapacity, nil)
	_ = ctx.Load64(b)
	if _, src := c.stack.Load(b, 8); src != pmem.LoadPinned {
		t.Fatalf("warmed post-failure Load64 source = %d, want LoadPinned", src)
	}
	if n := testing.AllocsPerRun(200, func() { _ = ctx.Load64(b) }); n != 0 {
		t.Errorf("pinned Load64 allocates %.3f times per op, want 0", n)
	}
}

// TestScenarioResetAllocations pins the per-scenario reset cycle — recycle
// the stack through the pool, reset the scheduler's main thread, replay a
// small execution — at zero heap allocations once warmed.
func TestScenarioResetAllocations(t *testing.T) {
	c, ctx := allocGateChecker()
	scenario := func() {
		c.resetScenario()
		ctx.th = c.sched.reset(c.opts.SBCapacity, nil)
		a := ctx.Root()
		for i := 0; i < 32; i++ {
			ctx.Store64(a.Add(uint64(i%4)*8), uint64(i))
		}
		ctx.Clflush(a, 8)
		_ = ctx.Load64(a)
	}
	for i := 0; i < 32; i++ {
		scenario()
	}
	if n := testing.AllocsPerRun(100, scenario); n != 0 {
		t.Errorf("scenario reset cycle allocates %.3f times per run, want 0", n)
	}
}
