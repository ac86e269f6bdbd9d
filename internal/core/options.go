// Package core implements the Jaaru model checking algorithm (§4 of the
// paper): guest programs issue stores, loads, cache flushes and fences
// against a simulated persistent-memory pool; the checker injects power
// failures immediately before flush operations and lazily explores, via
// constraint refinement over per-cache-line writeback intervals, every
// distinct assignment of pre-failure stores to post-failure loads.
package core

import (
	"io"
	"runtime"

	"jaaru/internal/pmem"
)

// EvictionPolicy controls when store-buffer entries drain to the cache. The
// paper's artifact notes this nondeterminism is not explored exhaustively;
// the policy is fixed per checker run and deterministic under replay.
type EvictionPolicy int

const (
	// EvictEager drains the store buffer after every operation: stores
	// take effect in the cache immediately. This is the default — the
	// persistency nondeterminism (which cache lines reached persistent
	// memory) is still explored in full.
	EvictEager EvictionPolicy = iota
	// EvictAtFences drains the store buffer only at fences, locked RMW
	// instructions, or when the buffer reaches SBCapacity. This exposes
	// TSO store-buffering behaviours (a thread's stores invisible to
	// others) in addition to persistency nondeterminism.
	EvictAtFences
	// EvictExplore makes store-buffer eviction a model-checking choice
	// point, exactly as in the paper's Explore algorithm (Figure 11,
	// lines 4–8: "choose to evict"). Every TSO-visible buffering
	// behaviour is then explored exhaustively — at a cost exponential in
	// program length, so this policy is intended for litmus-scale
	// programs.
	EvictExplore
)

// Options configures a Checker. The zero value is usable: defaults are
// filled in by New.
type Options struct {
	// PoolSize is the size in bytes of the simulated persistent-memory
	// pool (default 16 MiB). The first RootSize bytes form the root area
	// returned by Context.Root.
	PoolSize uint64

	// MaxFailures bounds the number of power failures per scenario — the
	// depth of the execution stack minus one (default 1: a pre-failure
	// and one post-failure execution, as in the paper's experiments).
	// A negative value disables failure injection entirely (direct
	// execution; normalized to the sentinel -1); a nil Program.Recover
	// does the same.
	MaxFailures int

	// MaxSteps bounds the operations of a single execution; exceeding it
	// reports a BugInfiniteLoop (the paper's "stuck in an infinite loop"
	// symptom). Default 1 << 20.
	MaxSteps int

	// MaxScenarios caps exploration (default 1 << 20 scenarios).
	MaxScenarios int

	// Eviction selects the store-buffer drain policy.
	Eviction EvictionPolicy

	// SBCapacity bounds the store buffer under EvictAtFences (default 64
	// entries; 0 keeps the default).
	SBCapacity int

	// Seed seeds the random scheduler (RandomScheduler).
	Seed int64

	// RandomScheduler interleaves guest threads with a schedule drawn from
	// Seed instead of round-robin — the paper's proposed use of Jaaru as a
	// concurrency-bug fuzzer (§4, Discussion). Deterministic per seed.
	RandomScheduler bool

	// FlagMultiRF enables the paper's debugging support: every load that
	// may read from more than one store is recorded with its candidate
	// stores (§4, "Debugging support").
	FlagMultiRF bool

	// FlagPerfIssues enables performance-bug detection — the extension
	// the paper proposes in §5.1: redundant cache-line flushes (the line
	// had nothing unflushed) and redundant sfences (an empty flush
	// buffer), the issue classes Pmemcheck and Agamotto report.
	FlagPerfIssues bool

	// StopAtFirstBug aborts exploration at the first bug found. Under
	// parallel exploration the stop is cooperative: scenarios already in
	// flight on other workers finish, so the result may carry more than
	// one bug.
	StopAtFirstBug bool

	// MaxBugs caps distinct recorded bugs (default 64).
	MaxBugs int

	// Workers is the number of claimants exploring the choice tree through
	// one Frontier (default 1: the Checker itself, on the calling
	// goroutine). A negative value means GOMAXPROCS. Workers > 1
	// partitions the tree across private worker checkers on their own
	// goroutines and merges their findings deterministically: on a full
	// exploration the result (bug set, scenario/execution/failure-point
	// counts, candidate statistics) is identical to a serial run.
	// Explorations truncated by MaxScenarios, MaxBugs, or StopAtFirstBug
	// stop at the same caps, the Frontier's under every driver, but may
	// select a different (still truncated) subset of scenarios than the
	// serial order would.
	Workers int

	// Snapshots switches between the snapshot stack (snapshot.go) and the
	// full-replay reference. By default (0 is normalized to 1) the checker
	// captures the scenario state at three kinds of site — each eligible
	// failure point, the end of the pre-failure execution, and each
	// post-failure read-from choice point along the current depth-first
	// path — and a later scenario whose choice prefix passes through a
	// captured state restores it instead of re-executing the guest from
	// scratch: the deterministic-replay equivalent of the paper's
	// fork()-based restart strategy. A negative value (normalized to the
	// sentinel -1) selects the reference instead: every scenario re-runs
	// the guest from the start and replays its whole choice prefix. That is
	// the oracle the conformance matrix compares the stack against — results
	// are bit-identical either way, including the canonical observability
	// counters — not a tuning knob. The stack is automatically bypassed for
	// the configurations it cannot replay exactly (RandomScheduler,
	// instrumented or replayed runs).
	Snapshots int

	// POR controls the persistency-aware partial-order-reduction layer
	// (por.go): single-valued read-from elision collapses choice points
	// whose candidate stores all carry the same value (no subsequent load
	// can observe which store was read, so the sibling branches commute),
	// and post-failure state fingerprinting skips the recovery subtree of
	// a failure point whose canonical persisted state has already been
	// explored, re-applying the recorded subtree statistics instead. On by
	// default (0 is normalized to 1); a negative value disables both
	// mechanisms (normalized to the sentinel -1: every equivalent scenario
	// is explored explicitly). The reachable-behaviour set and the bug set
	// are identical either way; scenario counts with POR on are smaller.
	// Fingerprinting is automatically bypassed for configurations it
	// cannot replay exactly (MaxFailures != 1, RandomScheduler,
	// instrumented or replayed runs); elision stays active
	// under witness replay so recorded choice vectors keep their shape.
	POR int

	// Observe enables the observability layer: per-worker lock-free metric
	// shards (internal/obs) aggregated into Result.Metrics. Off by default;
	// when off every instrumentation hook is a nil check.
	Observe bool

	// EventTrace, when non-nil, receives a structured JSONL event stream
	// (run/scenario/frontier/bug events) during exploration; setting it
	// implies Observe. Writes are serialized by the registry, so any
	// io.Writer works.
	EventTrace io.Writer
}

// RootSize is the size of the root area at the start of the pool, always
// addressable and reachable by recovery code via Context.Root.
const RootSize = 4096

// PoolBase is the base address of the simulated pool. It is nonzero so that
// address 0 acts as a null pointer.
const PoolBase = pmem.Addr(0x1000_0000)

func (o Options) withDefaults() Options {
	if o.PoolSize == 0 {
		o.PoolSize = 16 << 20
	}
	if o.PoolSize < RootSize {
		o.PoolSize = RootSize
	}
	// Normalization is idempotent: "disabled" keeps the distinct sentinel
	// -1 rather than collapsing onto the zero value, so re-normalizing an
	// already normalized Options (worker clones in parallel.go, the
	// Replay/BuildWitness re-runs) cannot flip a disabled feature back to
	// its default. See TestWithDefaultsIdempotent.
	if o.MaxFailures == 0 {
		o.MaxFailures = 1
	}
	if o.MaxFailures < 0 {
		o.MaxFailures = -1
	}
	if o.MaxSteps == 0 {
		o.MaxSteps = 1 << 20
	}
	if o.MaxScenarios == 0 {
		o.MaxScenarios = 1 << 20
	}
	if o.SBCapacity == 0 {
		o.SBCapacity = 64
	}
	if o.MaxBugs == 0 {
		o.MaxBugs = 64
	}
	if o.Snapshots == 0 {
		o.Snapshots = 1
	}
	if o.Snapshots < 0 {
		o.Snapshots = -1
	}
	if o.POR == 0 {
		o.POR = 1
	}
	if o.POR < 0 {
		o.POR = -1
	}
	if o.Workers == 0 {
		o.Workers = 1
	}
	if o.Workers < 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// Program is a guest program checked by Jaaru. Run is the pre-failure
// execution; Recover is executed after each injected failure (and again
// after failures injected into recovery, up to MaxFailures). A nil Recover
// disables failure injection: the program is executed once, directly.
type Program struct {
	Name    string
	Run     func(*Context)
	Recover func(*Context)
}
