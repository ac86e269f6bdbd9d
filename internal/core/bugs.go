package core

import (
	"fmt"
	"strings"

	"jaaru/internal/forensics"
	"jaaru/internal/pmem"
)

// BugType classifies the visible manifestations Jaaru detects (§5.1: "Bugs
// that Jaaru can identify must have some visible manifestation — either a
// crash, e.g., segmentation fault, or an assertion failure").
type BugType int

const (
	// BugAssertion is a failed Context.Assert — the program's own sanity
	// check fired.
	BugAssertion BugType = iota
	// BugIllegalAccess is a load or store outside allocated pool memory —
	// the analog of a segmentation fault.
	BugIllegalAccess
	// BugInfiniteLoop is an execution exceeding the step budget — the
	// paper's "getting stuck in an infinite loop" symptom.
	BugInfiniteLoop
	// BugExplicit is an unconditional Context.Bug report.
	BugExplicit
	// BugEngine is an internal checker invariant violation surfaced as a
	// report instead of a crash, under every driver — raised when a
	// nondeterministic-replay (or similar engine) panic ends the exploration
	// of a claimed branch prefix (the whole tree, for a serial run). The
	// report's Choices carry the offending prefix, and the Result is
	// incomplete. Guest programs whose choice shape depends on state outside
	// the simulated pool (globals, host randomness) trigger this.
	BugEngine
	// BugCrash is a Go panic in guest code — a runtime error such as an
	// index out of range or a nil dereference, or an explicit panic — on any
	// guest thread: the analog of a process crash. The message holds the
	// panic value and the guest location of the panicking frame.
	BugCrash
)

func (t BugType) String() string {
	switch t {
	case BugAssertion:
		return "assertion failure"
	case BugIllegalAccess:
		return "illegal memory access"
	case BugInfiniteLoop:
		return "infinite loop"
	case BugExplicit:
		return "bug"
	case BugEngine:
		return "engine error"
	case BugCrash:
		return "crash"
	default:
		return fmt.Sprintf("BugType(%d)", int(t))
	}
}

// BugReport describes one distinct bug manifestation discovered during
// exploration. Distinctness is keyed on (type, message): the paper groups
// failure injection points leading to the same symptom as one bug.
type BugReport struct {
	Type    BugType
	Message string
	// Execution is the index in the failure scenario (0 = pre-failure) of
	// the execution in which the bug manifested.
	Execution int
	// Scenario is the index of the first scenario exhibiting the bug.
	Scenario int
	// Count is the number of scenarios exhibiting this (type, message).
	Count int
	// Choices describes the nondeterministic decisions of the scenario
	// (failure points taken and read-from selections), sufficient to
	// replay the buggy execution.
	Choices string

	// replay is the recorded choice vector Replay, Trace, Witness and
	// Minimize re-run. It is unexported, so a report decoded from JSON (the
	// job API) has Choices but no vector: see replayable.
	replay []choicePoint

	// prog/opts identify the exploration that produced this report; stamped
	// by buildResult so Witness and Minimize can replay without the caller
	// re-supplying them.
	prog *Program
	opts *Options
}

func (b *BugReport) String() string {
	return fmt.Sprintf("%v: %s (execution %d, first scenario %d, seen %d×)",
		b.Type, b.Message, b.Execution, b.Scenario, b.Count)
}

func (b *BugReport) key() string { return fmt.Sprintf("%d|%s", b.Type, b.Message) }

// replayable reports whether the report still carries the choice vector its
// Choices describe. False for a report that lost it in serialization —
// replaying the empty vector would silently run scenario 0 instead.
func (b *BugReport) replayable() bool { return b.Choices == "" || len(b.replay) > 0 }

// Trace replays this bug's scenario and returns its last n operations before
// the manifestation, oldest first. Exploration records no traces, so every
// call costs one scenario execution (a whole MaxSteps budget for an
// infinite-loop bug) and nothing is cached. It returns nil for a report that
// did not come out of a Result, for engine-error reports, and when the guest
// no longer presents the recorded choice points.
func (b *BugReport) Trace(n int) []TraceOp {
	if b.prog == nil || b.opts == nil || b.Type == BugEngine || n <= 0 || !b.replayable() {
		return nil
	}
	c := newReplayChecker(*b.prog, *b.opts, b.replay, n)
	if !c.runScenarioGuarded() {
		return nil
	}
	return c.trace.snapshot()
}

// Witness replays this bug's scenario with the forensics hooks armed and
// returns the structured witness (see BuildWitness). It errors only when the
// report did not come out of a Result (hand-built reports carry no
// program/options reference).
func (b *BugReport) Witness() (*forensics.Witness, error) {
	if b.prog == nil || b.opts == nil {
		return nil, fmt.Errorf("bug report carries no exploration reference; use BuildWitness")
	}
	return BuildWitness(*b.prog, *b.opts, b), nil
}

// Minimize runs delta debugging over this bug's choice prefix (see the
// package-level Minimize). Same precondition as Witness.
func (b *BugReport) Minimize() (*BugReport, *forensics.Minimization, error) {
	if b.prog == nil || b.opts == nil {
		return nil, nil, fmt.Errorf("bug report carries no exploration reference; use Minimize")
	}
	nb, m := Minimize(*b.prog, *b.opts, b)
	return nb, m, nil
}

// MultiRF records a load that could read from more than one pre-failure
// store — the paper's debugging support for locating missing flushes: "a
// missing flush instruction effectively increases the number of pre-failure
// stores that a post-failure load may read from."
type MultiRF struct {
	// Loc is the guest source location of the load.
	Loc string
	// Addr is the first byte address with multiple candidates.
	Addr pmem.Addr
	// Candidates is the maximum number of candidate stores observed.
	Candidates int
	// Values are example candidate values (exec, val) formatted for
	// display. They carry no sequence number: fingerprint-equivalent
	// subtrees differ only in σ, so a σ-free example is the same whichever
	// of them was explored (DESIGN.md § Fingerprints).
	Values []string
	// Count is the number of loads flagged at this location.
	Count int
}

// outranks reports whether a manifestation with n candidates, example
// values vals at address a displaces m as the canonical representative: the
// larger candidate set wins, ties go to the smaller values, then the smaller
// address. Serial flagging, snapshot deltas, POR hits and the parallel merge
// all use this one rule, so the example does not depend on discovery order.
func (m *MultiRF) outranks(n int, vals []string, a pmem.Addr) bool {
	if n != m.Candidates {
		return n > m.Candidates
	}
	if v, mv := strings.Join(vals, ","), strings.Join(m.Values, ","); v != mv {
		return v < mv
	}
	return a < m.Addr
}

func (m *MultiRF) String() string {
	return fmt.Sprintf("load at %s of %v may read %d stores: %s (seen %d×)",
		m.Loc, m.Addr, m.Candidates, strings.Join(m.Values, ", "), m.Count)
}

// guestFault is the panic payload used to unwind a guest execution when it
// hits a bug; the engine converts it into a BugReport.
type guestFault struct {
	typ BugType
	msg string
}

// crashSignal is the panic payload that unwinds guest executions when a
// power failure is injected.
type crashSignal struct{}

// engineError is the panic payload for internal invariant violations (e.g.
// nondeterministic replay). The guest boundary passes it through, from any
// guest thread, to runScenarioGuarded, which reports it as a BugEngine;
// Replay alone lets it propagate to the caller.
type engineError struct{ msg string }

// caught classifies a value recovered at the guest boundary (runSegment and
// the Spawn trampoline): nil, an injected crash, a guest fault and an engine
// error come back as they are; anything else is a guest panic, returned as a
// BugCrash fault naming the panic value and the guest frame that panicked.
// It must be called from the deferred function that recovered r, while the
// panicking frames are still on the stack.
func caught(r any) any {
	switch r.(type) {
	case nil, crashSignal, guestFault, engineError:
		return r
	}
	return guestFault{typ: BugCrash, msg: fmt.Sprintf("panic: %v at %s", r, guestLocation())}
}

func (e engineError) Error() string { return "jaaru internal error: " + e.msg }
