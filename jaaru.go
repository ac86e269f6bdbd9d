// Package jaaru is a Go reproduction of "Jaaru: Efficiently Model Checking
// Persistent Memory Programs" (Gorjiara, Xu, Demsky — ASPLOS 2021).
//
// Jaaru exhaustively explores the crash behaviours of persistent-memory
// (PM) programs. Guest programs issue stores, loads, cache-line flushes
// (clflush / clflushopt / clwb), fences (sfence / mfence) and locked RMW
// operations against a simulated byte-addressable PM pool; the checker
// fully simulates the x86-TSO persistency model (Px86sim) — per-thread
// store buffers with bypassing, flush buffers implementing clflushopt
// reordering — injects power failures immediately before flush operations,
// and runs the program's recovery routine against every distinct
// post-failure view.
//
// Key to its efficiency is constraint refinement: instead of eagerly
// enumerating every possible post-failure memory state (which grows
// exponentially with the number of unflushed stores, as in Yat), Jaaru
// tracks per-cache-line intervals bounding when each line was most recently
// written back and lazily enumerates only the pre-failure stores that
// post-failure loads actually read. Commit stores — the common PM pattern
// of guarding data behind a single persisted pointer or flag — then prune
// almost the entire state space.
//
// # Quickstart
//
// A program is a pre-failure function and a recovery function. The paper's
// Figure 2 example:
//
//	prog := jaaru.Program{
//		Name: "figure2",
//		Run: func(c *jaaru.Context) {
//			x, y := c.Root(), c.Root().Add(8) // same cache line
//			c.Store64(y, 1)
//			c.Store64(x, 2)
//			c.Clflush(x, 8)
//			c.Store64(y, 3)
//			c.Store64(x, 4)
//			c.Store64(y, 5)
//			c.Store64(x, 6)
//		},
//		Recover: func(c *jaaru.Context) {
//			x := c.Load64(c.Root())          // ∈ {0, 2, 4, 6}
//			y := c.Load64(c.Root().Add(8))   // refined by the value of x
//			_ = x + y
//		},
//	}
//	result := jaaru.Check(prog, jaaru.Options{})
//	for _, bug := range result.Bugs {
//		fmt.Println(bug)
//	}
//
// Bugs are visible manifestations: assertion failures (Context.Assert),
// illegal memory accesses (wild or null dereferences), infinite loops
// (step-budget exhaustion), explicit Context.Bug reports, and crashes (a Go
// panic in guest code on any guest thread, such as an index out of range).
// Enable
// Options.FlagMultiRF for the paper's debugging support: every load that
// could read from more than one pre-failure store is reported with its
// candidate stores — the signature of a missing flush.
package jaaru

import (
	"jaaru/internal/core"
	"jaaru/internal/forensics"
	"jaaru/internal/obs"
	"jaaru/internal/pmem"
	"jaaru/internal/report"
)

// Addr is a byte address in the simulated persistent-memory pool.
type Addr = pmem.Addr

// CacheLineSize is the flush granularity (64 bytes).
const CacheLineSize = pmem.CacheLineSize

// RootSize is the size of the always-allocated root area at Context.Root.
const RootSize = core.RootSize

// Context is the guest API: the operations a checked program may perform
// against simulated persistent memory. See the methods of
// internal/core.Context: Store8..Store64, Load8..Load64, StorePtr/LoadPtr,
// Clflush, Clflushopt, Clwb, Sfence, Mfence, Persist, CAS64, AtomicAdd64,
// AtomicExchange64, Alloc, AllocLine, Root, Spawn/Join, Assert, Bug, Fnv64.
type Context = core.Context

// Program is a guest program: a pre-failure Run and a post-failure Recover.
// A nil Recover disables failure injection (direct execution).
type Program = core.Program

// Options configures exploration: pool size, failure depth, eviction
// policy, step budget, multi-rf flagging, tracing, and parallelism
// (Options.Workers partitions the choice tree across worker checkers).
type Options = core.Options

// Result aggregates one exploration: scenario and execution counts, failure
// points, bugs, flagged loads, and wall-clock duration.
type Result = core.Result

// BugReport is one distinct bug manifestation. It records the scenario's
// complete choice vector, which Trace(n), Witness and Minimize re-run on
// demand; the report itself holds no operation trace.
type BugReport = core.BugReport

// BugType classifies manifestations.
type BugType = core.BugType

// Bug manifestation classes.
const (
	BugAssertion     = core.BugAssertion
	BugIllegalAccess = core.BugIllegalAccess
	BugInfiniteLoop  = core.BugInfiniteLoop
	BugExplicit      = core.BugExplicit
	BugEngine        = core.BugEngine
	BugCrash         = core.BugCrash
)

// MultiRF is a load flagged by the debugging support as able to read from
// more than one pre-failure store.
type MultiRF = core.MultiRF

// Eviction policies for the store buffer.
const (
	EvictEager    = core.EvictEager
	EvictAtFences = core.EvictAtFences
	EvictExplore  = core.EvictExplore
)

// Checker explores a program's failure behaviours.
type Checker = core.Checker

// NewChecker returns a checker for prog.
func NewChecker(prog Program, opts Options) *Checker { return core.New(prog, opts) }

// Check explores prog's failure behaviours to completion and returns the
// aggregated result.
func Check(prog Program, opts Options) *Result {
	return core.New(prog, opts).Run()
}

// Execute runs fn once with no failure injection — direct execution for
// testing guest code.
func Execute(name string, fn func(*Context), opts Options) *Result {
	return core.Execute(name, fn, opts)
}

// TraceOp is one recorded guest operation in a replayed trace. Exploration
// records none: Replay returns a bug's whole scenario, BugReport.Trace(n) its
// last n operations, each by re-running the report's choice vector.
type TraceOp = core.TraceOp

// Metrics is the observability layer's merged counter snapshot, attached
// to Result.Metrics when Options.Observe or Options.EventTrace is set.
// Metrics.Canonical isolates the partition-independent counters, which are
// identical between a full serial and a full parallel exploration.
type Metrics = obs.Metrics

// Observability is the live metrics registry of an observed Checker
// (Checker.Observability): Snapshot for point-in-time counters, Progress
// for a one-line live status while Run is in flight.
type Observability = obs.Registry

// PerfIssue is a redundant flush or fence reported by FlagPerfIssues.
type PerfIssue = core.PerfIssue

// Replay re-executes the exact failure scenario that manifested bug b —
// program and options must match the exploration that produced it — with
// full tracing, and returns the complete operation trace. b.Trace(n) is the
// same replay keeping the last n operations, with the program and options the
// report remembers.
func Replay(prog Program, opts Options, b *BugReport) []TraceOp {
	return core.Replay(prog, opts, b)
}

// Witness is the structured bug-forensics record: the scenario's recorded
// decisions, the TSO-annotated operation trace, per-cache-line persistence
// timelines, and the read-from resolution (with constraint-refinement steps)
// of every post-failure load. Obtain one with BuildWitness or the
// Result.Witness / BugReport.Witness accessors; render it with
// FormatWitnessText / MarshalWitnessJSON.
type Witness = forensics.Witness

// Minimization reports the outcome of delta-debugging a bug's choice prefix.
type Minimization = forensics.Minimization

// BuildWitness replays the failure scenario recorded in b — prog and opts
// must match the exploration that produced it — with the forensics hooks
// armed and returns the structured witness.
func BuildWitness(prog Program, opts Options, b *BugReport) *Witness {
	return core.BuildWitness(prog, opts, b)
}

// Minimize runs greedy delta debugging over b's recorded choice prefix and
// returns a copy of the report whose decision sequence is locally minimal
// while still reproducing a bug with the same (type, message) key. The
// minimized prefix is never longer than the original.
func Minimize(prog Program, opts Options, b *BugReport) (*BugReport, *Minimization) {
	return core.Minimize(prog, opts, b)
}

// FormatWitnessText renders a structured witness as the annotated
// human-readable report `jaaru explain` prints.
func FormatWitnessText(w *Witness) string { return report.WitnessText(w) }

// MarshalWitnessJSON serializes a witness as indented JSON. Equal witnesses
// serialize byte-identically, so serial and parallel explorations of the
// same program produce the same bytes.
func MarshalWitnessJSON(w *Witness) ([]byte, error) { return report.WitnessJSON(w) }

// ValidateWitnessJSON checks serialized witness JSON against the documented
// schema (docs/ALGORITHM.md, "Witnesses and minimization").
func ValidateWitnessJSON(data []byte) error { return forensics.ValidateJSON(data) }
