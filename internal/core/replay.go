package core

// Replay support: a BugReport records the scenario's complete choice
// vector, so the exact buggy execution can be re-run — with full tracing —
// long after exploration finished. This rounds out the paper's debugging
// support ("Jaaru prints out the load..., each of the stores, their
// locations in the trace"): first explore cheaply, then replay the one
// scenario that matters with maximal instrumentation. Replay is the only
// source of operation traces: exploration records none.

// witnessTraceLen is the trace-ring capacity of Replay: large enough that no
// bundled workload ever wraps, so the "complete operation trace" promise
// holds.
const witnessTraceLen = 1 << 16

// newReplayChecker returns a checker that runs exactly the one scenario the
// recorded choice vector selects, with a trace ring of the given capacity
// (none when ring is 0). replaySegment keeps the snapshot stack out
// (snapEligible), so the scenario re-executes the guest from scratch and a
// trace covers the pre-failure operations too. Everything else keeps the
// original exploration's semantics: withDefaults is idempotent, so New's
// second normalization cannot flip disabled features (a negative MaxFailures,
// say) back to their defaults.
func newReplayChecker(prog Program, opts Options, prefix []choicePoint, ring int) *Checker {
	o := opts.withDefaults()
	o.MaxScenarios = 1
	c := New(prog, o)
	c.replaySegment = true
	if ring > 0 {
		c.trace = newTraceRing(ring)
	}
	c.chooser.seedClaim(prefix, nil, nil)
	c.scenarios = 1
	return c
}

// Replay re-executes the failure scenario that first manifested bug b for
// prog and returns the complete operation trace of that scenario (all
// executions, pre-failure and recovery). The program and options must match
// the original exploration, or the recorded choices will not line up and
// Replay panics with a nondeterministic-replay error: it alone runs its
// scenario outside runScenarioGuarded. A report whose choice vector was lost
// (see BugReport.replayable) yields nil.
func Replay(prog Program, opts Options, b *BugReport) []TraceOp {
	if !b.replayable() {
		return nil
	}
	c := newReplayChecker(prog, opts, b.replay, witnessTraceLen)
	c.runScenario()
	return c.trace.snapshot()
}
