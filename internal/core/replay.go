package core

// Replay support: a BugReport records the scenario's complete choice
// vector, so the exact buggy execution can be re-run — with full tracing —
// long after exploration finished. This rounds out the paper's debugging
// support ("Jaaru prints out the load..., each of the stores, their
// locations in the trace"): first explore cheaply, then replay the one
// scenario that matters with maximal instrumentation.

// Replay re-executes the failure scenario that first manifested bug b for
// prog, with tracing forced on, and returns the complete operation trace
// of that scenario (all executions, pre-failure and recovery). The program
// and options must match the original exploration, or the recorded choices
// will not line up and Replay panics with a nondeterministic-replay error.
func Replay(prog Program, opts Options, b *BugReport) []TraceOp {
	// Tracing is forced on regardless of opts.TraceLen — producing the
	// trace is the point of a replay, even when the exploration ran with
	// tracing disabled. replaySegment keeps the snapshot stack out
	// (snapEligible), so the scenario re-executes the guest from scratch and
	// the returned trace covers the pre-failure operations too. Everything
	// else keeps the original exploration's semantics: withDefaults is
	// idempotent, so New's second normalization cannot flip disabled
	// features (a negative MaxFailures, say) back to their defaults.
	o := opts.withDefaults()
	o.TraceLen = witnessTraceLen
	o.MaxScenarios = 1
	c := New(prog, o)
	c.replaySegment = true
	c.chooser.seed(b.replay)
	c.scenarios = 1
	c.runScenario()
	return c.trace.snapshot()
}
