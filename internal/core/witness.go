package core

import (
	"fmt"
	"slices"
	"strings"
)

// witnessTraceLen is the trace-ring capacity of Replay and FormatWitness:
// large enough that no bundled workload ever wraps, so the "complete
// operation trace" promise holds.
const witnessTraceLen = 1 << 16

// FormatWitness renders a complete, human-readable witness for a bug: the
// scenario's nondeterministic decisions, the replayed operation trace, and
// the flagged multi-candidate loads. This is the consolidated form of the
// paper's debugging support: "Jaaru prints out the load that can read from
// multiple stores, the source location of the load, each of the stores,
// their locations in the trace" — produced by re-running the recorded
// scenario with full instrumentation.
//
// prog and opts must match the exploration that produced b.
func FormatWitness(prog Program, opts Options, b *BugReport) string {
	if !b.replayable() {
		return fmt.Sprintf("witness for: %v\ndecisions: %s (choice vector lost: cannot replay)\n", b, b.Choices)
	}
	// Replay with multi-rf flagging on so the witness carries the
	// candidate-store annotations even if the exploration ran without.
	opts.FlagMultiRF = true
	c := newReplayChecker(prog, opts, b.replay, witnessTraceLen)
	c.runScenario()
	trace := c.trace.snapshot()

	var w strings.Builder
	fmt.Fprintf(&w, "witness for: %v\n", b)
	if b.Choices == "" {
		fmt.Fprintf(&w, "decisions: (none — the first scenario)\n")
	} else {
		fmt.Fprintf(&w, "decisions: %s\n", b.Choices)
	}

	if len(c.multiRF) > 0 {
		fmt.Fprintf(&w, "\nloads that could read from more than one store:\n")
		for _, m := range sortedMultiRF(c.multiRF) {
			fmt.Fprintf(&w, "  %v\n", m)
		}
	}

	fmt.Fprintf(&w, "\noperation trace (%d operations):\n", len(trace))
	for i, op := range trace {
		fmt.Fprintf(&w, "  %4d  %v\n", i, op)
	}
	if len(c.bugs) > 0 {
		fmt.Fprintf(&w, "\nmanifestation: %s\n", c.bugs[0].Message)
	}
	return w.String()
}

func sortedMultiRF(m map[string]*MultiRF) []*MultiRF {
	out := make([]*MultiRF, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	slices.SortFunc(out, func(a, b *MultiRF) int { return strings.Compare(a.Loc, b.Loc) })
	return out
}
