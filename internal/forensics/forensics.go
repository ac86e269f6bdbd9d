// Package forensics defines the structured bug-witness model: everything the
// checker can explain about one failure scenario that manifested a bug. A
// Witness is assembled by re-running the scenario (internal/core.BuildWitness)
// with the forensics hooks armed — the TSO state-transition probe
// (internal/tso.Probe), the interval-provenance tracer
// (internal/pmem.Stack.SetIntervalTracer), and the per-operation recorder —
// and is the machine-readable counterpart of the paper's debugging support:
// "Jaaru prints out the load that can read from multiple stores, the source
// location of the load, each of the stores, their locations in the trace."
//
// The package holds only data: no checker imports, deterministic field
// ordering (slices, never maps), and JSON tags forming the documented witness
// schema (docs/ALGORITHM.md § "Witnesses and minimization"). Serial and
// parallel explorations of the same program produce byte-identical witness
// JSON, because the canonical bug representative they replay is identical.
package forensics

import "strconv"

// SeqInfinity is the JSON encoding of an unbounded interval end (pmem.SeqInf):
// the line may have been written back at any later time, or never.
const SeqInfinity = ^uint64(0)

// FormatSeq renders a sequence number, using ∞ for SeqInfinity — the same
// notation the pmem intervals print.
func FormatSeq(s uint64) string { return string(AppendSeq(nil, s)) }

// AppendSeq appends FormatSeq(s) to b.
func AppendSeq(b []byte, s uint64) []byte {
	if s == SeqInfinity {
		return append(b, "∞"...)
	}
	return strconv.AppendUint(b, s, 10)
}

// Witness is the structured explanation of one bug manifestation: the
// decision prefix that reaches it, the replayed operation trace annotated
// with TSO state transitions, the per-cache-line persistence timelines, and
// the read-from resolution of every post-failure load.
type Witness struct {
	// Program is the name of the checked program.
	Program string `json:"program"`
	// Bug identifies the manifestation this witness explains.
	Bug Bug `json:"bug"`
	// Reproduced reports whether the replay manifested the same bug key
	// again. False indicates a nondeterministic guest (or a mismatched
	// program/options pair); the remaining fields then describe the replay
	// that was actually observed.
	Reproduced bool `json:"reproduced"`
	// Decisions is the scenario's complete nondeterministic choice vector,
	// annotated with the operation that consumed each decision.
	Decisions []Decision `json:"decisions"`
	// Ops is the full replayed operation trace (never ring-truncated),
	// annotated with execution, thread, and TSO state transitions.
	Ops []Op `json:"ops"`
	// Failures marks where power failures were injected.
	Failures []FailureMark `json:"failures"`
	// Lines holds one persistence timeline per (execution, cache line)
	// touched by a flush effect or an interval refinement, sorted by
	// execution then line address.
	Lines []LineTimeline `json:"lines"`
	// Loads holds one resolution record per post-failure load byte that went
	// through constraint refinement (the ReadPreFailure path of Figure 9).
	Loads []LoadResolution `json:"loads"`
	// Minimized carries the delta-debugging result when minimization ran.
	Minimized *Minimization `json:"minimized,omitempty"`
}

// Bug identifies the manifestation a witness explains, mirroring the
// BugReport fields that key and describe it.
type Bug struct {
	Type      string `json:"type"`
	Message   string `json:"message"`
	Execution int    `json:"execution"`
	Choices   string `json:"choices"`
}

// Decision is one recorded nondeterministic choice. Kind is "fail" (inject a
// power failure at this eligible flush?), "rf" (which pre-failure store does
// this load byte read?), or "evict" (drain one store-buffer entry? — only
// under EvictExplore).
type Decision struct {
	// Index is the position in the choice vector.
	Index int `json:"index"`
	// Kind is "fail", "rf", or "evict".
	Kind string `json:"kind"`
	// Chosen is the option taken; Options is the number available.
	Chosen  int `json:"chosen"`
	Options int `json:"options"`
	// Op is the index of the operation that consumed this decision, -1 when
	// the decision was not observed during the replay (a seeded prefix
	// entry past the replay's end).
	Op int `json:"op"`
}

// Op is one operation of the replayed trace.
type Op struct {
	// Index is the operation's global index (Context.op order) across all
	// executions of the scenario. Untraced operations (Spawn, Join, a CAS
	// that did not write) leave gaps.
	Index int `json:"index"`
	// Exec is the execution (0 = pre-failure) that issued the operation.
	Exec int `json:"exec"`
	// Thread is the guest thread id.
	Thread int `json:"thread"`
	// Kind is the operation kind: alloc, store, load, clflush, clflushopt,
	// sfence, mfence, rmw.
	Kind string `json:"kind"`
	Addr uint64 `json:"addr"`
	Size int    `json:"size"`
	Val  uint64 `json:"val"`
	// Transitions records the operation's TSO state transitions: when its
	// store-buffer entry took effect and where it went.
	Transitions []Transition `json:"transitions,omitempty"`
}

// Transition is one TSO state transition of a buffered operation, captured
// by the tso.Probe when the entry leaves the store buffer or a buffered
// writeback is applied. Phase is:
//
//	"cache":        a store or clflush took effect in the cache at Seq
//	"flush-buffer": a clflushopt moved to the flush buffer with ordering
//	                bound Seq (not yet persisted)
//	"persist-bound": the buffered writeback was applied — the line's
//	                most-recent-writeback lower bound was raised to Seq
//	"fence":        an sfence took effect at Seq, draining the flush buffer
type Transition struct {
	Phase string `json:"phase"`
	// Op is the operation during which the transition happened (eviction can
	// be deferred past the issuing op under EvictAtFences/EvictExplore).
	Op  int    `json:"op"`
	Seq uint64 `json:"seq"`
}

// FailureMark records one injected power failure.
type FailureMark struct {
	// Op is the operation whose flush effect hosted the failure point (the
	// crash happens immediately before the flush takes effect), or the last
	// executed operation for an end-of-run failure.
	Op int `json:"op"`
	// Point is the eligible failure-point index within the pre-failure
	// execution, -1 for the mandatory end-of-run failure.
	Point int `json:"point"`
	// Exec is the execution that was cut short.
	Exec int `json:"exec"`
}

// LineTimeline is the persistence timeline of one cache line within one
// execution: how its most-recent-writeback interval [Begin, End) evolved
// across stores, clflush/clflushopt/sfence effects, and post-failure
// constraint refinements.
type LineTimeline struct {
	Exec int    `json:"exec"`
	Line uint64 `json:"line"`
	// Events are in scenario order.
	Events []LineEvent `json:"events"`
}

// LineEvent is one step of a line's persistence timeline. Kind is:
//
//	"store":        a store to the line took effect in the cache at Seq
//	"clflush":      a clflush effect pinned the writeback bound at Seq
//	"writeback":    a buffered clflushopt writeback applied with bound Seq
//	"refine-raise": a post-failure load observation raised Begin to Seq
//	"refine-lower": a post-failure load observation lowered End to Seq
type LineEvent struct {
	// Op is the operation during which the event happened.
	Op   int    `json:"op"`
	Kind string `json:"kind"`
	Seq  uint64 `json:"seq"`
	// Begin/End are the line's interval bounds after the event.
	Begin uint64 `json:"begin"`
	End   uint64 `json:"end"`
}

// LoadResolution explains one post-failure load byte resolved through
// constraint refinement: the candidate set enumerated by ReadPreFailure
// (Figure 9) with each pre-failure store's admission verdict, the candidate
// chosen, and the interval refinements the choice propagated (Figure 10).
type LoadResolution struct {
	// Op is the load operation's index; Addr the byte resolved (a multi-byte
	// load produces one resolution per refined byte).
	Op   int `json:"op"`
	Exec int `json:"exec"`
	// Thread is the loading guest thread.
	Thread int    `json:"thread"`
	Addr   uint64 `json:"addr"`
	// Loc is the guest source location of the load.
	Loc string `json:"loc"`
	// Chosen is the index into Candidates of the store the load read.
	Chosen int `json:"chosen"`
	// Candidates lists every pre-failure store considered, newest execution
	// first and newest store first within an execution — admitted or not.
	Candidates []StoreCandidate `json:"candidates"`
	// Refined lists the interval refinements applied after the choice.
	Refined []RefineStep `json:"refined,omitempty"`
}

// StoreCandidate is one pre-failure store considered for a load byte, with
// the constraint-refinement verdict that admitted or excluded it.
type StoreCandidate struct {
	// Exec is the execution that performed the store; -1 denotes the pool's
	// initial (zero) contents.
	Exec int    `json:"exec"`
	Seq  uint64 `json:"seq"`
	Val  uint64 `json:"val"`
	// Admitted reports whether the store was in the load's read-from set.
	Admitted bool `json:"admitted"`
	// Chosen marks the candidate the load actually read.
	Chosen bool `json:"chosen"`
	// Reason states the interval constraint that admitted or excluded the
	// store, in the vocabulary of Figure 9.
	Reason string `json:"reason"`
}

// RefineStep is one journaled interval mutation propagated by a read-from
// choice (Figure 10, UpdateRanges). Kind is "raise-begin" or "lower-end"; At
// is the sequence bound applied; Begin/End the interval after the step.
type RefineStep struct {
	Exec  int    `json:"exec"`
	Line  uint64 `json:"line"`
	Kind  string `json:"kind"`
	At    uint64 `json:"at"`
	Begin uint64 `json:"begin"`
	End   uint64 `json:"end"`
}

// Minimization summarizes a delta-debugging pass over the decision prefix.
type Minimization struct {
	// OriginalLen/MinimizedLen are choice-vector lengths; MinimizedLen is
	// never larger than OriginalLen (the minimizer only removes decisions).
	OriginalLen  int `json:"original_len"`
	MinimizedLen int `json:"minimized_len"`
	// Trials is the number of replays the minimizer ran.
	Trials int `json:"trials"`
	// OriginalChoices/MinimizedChoices are the human-readable decision
	// descriptions before and after.
	OriginalChoices  string `json:"original_choices"`
	MinimizedChoices string `json:"minimized_choices"`
}
