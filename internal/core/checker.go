package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"time"

	"jaaru/internal/forensics"
	"jaaru/internal/obs"
	"jaaru/internal/pmalloc"
	"jaaru/internal/pmem"
	"jaaru/internal/tso"
)

// stats is the exploration-level aggregation state of one Checker: the
// counters and findings a worker accumulates over the scenarios it explores.
// It is separated from the scenario-level machinery so parallel exploration
// can give every worker a private copy and merge them deterministically at
// the end (see parallel.go).
type stats struct {
	scenarios  int
	execsPost  int // post-failure executions explored (fork-equivalent units)
	fpointsPre int // eligible failure points in the pre-failure execution (incl. end)
	totalSteps int64
	bugs       []*BugReport
	bugIndex   map[string]*BugReport
	multiRF    map[string]*MultiRF
	perfIssues map[string]*PerfIssue
	// maxRF is the largest candidate set any load byte presented.
	maxRF int
	// newPoints counts distinct choice points discovered, by kind (folded
	// in from the chooser when a result is built or a worker retires).
	newPoints [3]int
	// truncated marks an exploration that abandoned part of its state
	// space (e.g. a worker subtree dropped after an engine error).
	truncated bool
}

// initStats prepares the maps; the zero value of everything else is right.
func (s *stats) initStats() {
	s.bugIndex = make(map[string]*BugReport)
	s.multiRF = make(map[string]*MultiRF)
	s.perfIssues = make(map[string]*PerfIssue)
}

// Checker explores every failure behaviour of a guest Program. It is not
// safe for concurrent use; create one Checker per checked program. (With
// Options.Workers > 1, Run internally creates one private worker Checker
// per goroutine and merges their stats — see parallel.go.)
type Checker struct {
	prog Program
	opts Options

	// Exploration-level state.
	chooser *chooser
	stats

	// Scenario-level state (reset by resetScenario).
	seq       pmem.Seq
	stack     *pmem.Stack
	alloc     *pmalloc.Allocator
	sched     *scheduler
	rng       *rand.Rand
	lastStore map[pmem.Addr]pmem.Seq // newest store per line, current execution
	fpCount   int                    // eligible failure points seen in the current pre-failure execution
	dirty     bool                   // stores evicted since the last considered failure point
	preDone   bool                   // pre-failure execution ran to completion in this scenario
	steps     int                    // ops in the current execution
	// replaySteps counts the subset of steps executed while the chooser was
	// still replaying a recorded decision prefix — the physical replay cost
	// (obs.ReplaySteps), kept as a plain field so op() pays one compare and
	// an increment, flushed with the segment's step total.
	replaySteps int
	snapshot    func(fpIndex int) // Yat instrumentation hook

	// Observability (nil unless Options.Observe/EventTrace): reg is the
	// registry shared across workers, col this checker's private shard,
	// workerID its index in event output (0 = serial / the coordinator).
	reg      *obs.Registry
	col      *obs.Collector
	workerID int
	// replaySegment marks the one-scenario checkers newReplayChecker builds
	// (Replay, BugReport.Trace, witnesses, minimization trials): their time is
	// accounted as replay overhead, not exploration, and the snapshot stack
	// stays out. trace is the operation ring of such a checker; exploration
	// checkers never have one — traces come from replay only.
	replaySegment bool
	trace         *traceRing

	// wrec is the forensics witness recorder (nil outside BuildWitness
	// replays); every hot-path hook guards on it with a single nil check.
	wrec *witnessRecorder

	// bugEndedSegment distinguishes "segment completed normally" from
	// "segment ended by a recorded bug" across the runSegment boundary.
	bugEndedSegment bool

	// rfScratch is reused across resolveByte calls to avoid allocating a
	// candidate slice per pre-failure load byte.
	rfScratch []pmem.Candidate
	// opLoc memoizes the guest location of the load or RMW operation whose
	// bytes resolveLoad's slow path is resolving (loadLoc); "" until a byte
	// first asks for it. Only the multi-rf flag and the witness recorder ask.
	opLoc string

	// pmpool recycles scenario storage (executions, pages, arenas) across
	// the millions of resetScenario calls a run performs; thScratch is the
	// reused thread snapshot threadList takes under the scheduler lock.
	pmpool    *pmem.Pool
	thScratch []*thread

	// Snapshot stack state (snapshot.go). snaps is the stack of captured
	// states along the current depth-first path and snapPrefix the one
	// choice vector they were captured under (entry i owns
	// snapPrefix[:snaps[i].depth], and len(snapPrefix) is the top entry's
	// depth); snapFree pools retired entries so the warmed capture/restore
	// cycle allocates nothing; snapActive latches per-scenario eligibility.
	// segLogs holds one value log per post-failure execution depth (index
	// ID-1), recording everything a fast-forward replay must feed back to the
	// guest; segLog caches &segLogs[Top().ID-1] while a post-failure segment
	// is in flight (nil otherwise) so the per-byte noteSegEvent hot path is a
	// single pointer check; ffwd is the in-flight fast-forward replay, if any.
	snaps      []*snapEntry
	snapPrefix []choicePoint
	snapFree   []*snapEntry
	snapActive bool
	segLogs    [][]segEvent
	segLog     *[]segEvent
	ffwd       ffwdState

	// Partial-order-reduction state (por.go). porSeenSet is the fingerprint
	// seen-set, shared across workers; porOpen the stack of subtree records
	// still being explored and porPrefix the one choice vector they were
	// opened under (records nest by prefix: record i owns
	// porPrefix[:porOpen[i].rootDepth], and len(porPrefix) is the deepest
	// record's rootDepth); porFpActive latches per-scenario fingerprint
	// eligibility; porFPHook is a test hook observing every fingerprint
	// consultation.
	porSeenSet  *porSeen
	porOpen     []*porRecord
	porPrefix   []choicePoint
	porFpActive bool
	porFPHook   func(fp uint64, hit bool)

	// base is the scenario baseline every account is measured against
	// (account.go), latched once per scenario while the snapshot stack or
	// fingerprinting is active.
	base tally

	// eager is Options.Eviction == EvictEager: guest operations then apply
	// their effects directly instead of through the store buffer (context.go),
	// unless the eagerViaBuffer test hook was set when the checker was built.
	eager bool
}

// eagerViaBuffer routes EvictEager operations through tso's Push +
// EvictOldest, the general path the direct one must match (test-only).
var eagerViaBuffer bool

// New returns a checker for prog with the given options.
func New(prog Program, opts Options) *Checker {
	o := opts.withDefaults()
	if prog.Run == nil {
		panic(engineError{"program has no Run function"})
	}
	if prog.Recover == nil {
		o.MaxFailures = -1
	}
	c := &Checker{
		prog:      prog,
		opts:      o,
		chooser:   &chooser{},
		alloc:     pmalloc.New(PoolBase, o.PoolSize),
		sched:     newScheduler(),
		lastStore: make(map[pmem.Addr]pmem.Seq),
		pmpool:    pmem.NewPool(),
		eager:     o.Eviction == EvictEager && !eagerViaBuffer,
	}
	c.initStats()
	if o.POR > 0 {
		c.porSeenSet = newPorSeen()
	}
	if o.Observe || o.EventTrace != nil {
		reg := obs.NewRegistry(o.EventTrace)
		c.attachObs(reg, reg.NewShard(), 0)
	}
	return c
}

// attachObs binds this checker to a metrics registry: the chooser and the
// scheduler (which hands the shard to every thread's store buffers) record
// into the same per-worker shard as the checker itself.
func (c *Checker) attachObs(reg *obs.Registry, col *obs.Collector, workerID int) {
	c.reg = reg
	c.col = col
	c.workerID = workerID
	c.chooser.col = col
	c.sched.col = col
}

// Observability exposes the live metrics registry of an observed checker
// (nil unless Options.Observe or Options.EventTrace is set) — used for
// periodic progress reporting while Run is in flight.
func (c *Checker) Observability() *obs.Registry { return c.reg }

// Result summarizes one exploration.
type Result struct {
	Program string
	// Scenarios is the number of distinct failure scenarios explored.
	Scenarios int
	// Executions is the fork-equivalent execution count reported by the
	// paper (Figure 14, "JExec."): one shared pre-failure execution plus
	// one per post-failure execution explored.
	Executions int
	// FailurePoints counts the eligible failure injection points of the
	// pre-failure execution, including the end-of-run point (Figure 14,
	// "FPoints").
	FailurePoints int
	// Steps is the total number of guest operations simulated.
	Steps int64
	// Duration is the wall-clock exploration time (Figure 14, "JTime").
	Duration time.Duration
	// Bugs are the distinct bugs found, in canonical order: by the
	// choice-stack description of the first manifesting scenario, then by
	// type and message. Canonical order — not discovery order — keeps the
	// result independent of how the state space was partitioned across
	// workers (Options.Workers).
	Bugs []*BugReport
	// MultiRF lists flagged loads (debugging support), sorted by location.
	MultiRF []*MultiRF
	// PerfIssues lists redundant flushes/fences (with FlagPerfIssues),
	// sorted by location.
	PerfIssues []*PerfIssue
	// RFChoicePoints counts the distinct read-from choice points explored
	// (loads with more than one candidate store).
	RFChoicePoints int
	// FailDecisionPoints counts the distinct failure-injection decision
	// points explored.
	FailDecisionPoints int
	// MaxRFCandidates is the largest read-from candidate set any load byte
	// presented — a direct measure of how many stores a load could read
	// (the missing-flush signature).
	MaxRFCandidates int
	// Complete reports whether the state space was fully explored (false
	// when MaxScenarios or MaxBugs truncated exploration).
	Complete bool
	// Metrics carries the observability layer's extended counters when
	// Options.Observe (or EventTrace) was set; nil otherwise. Its
	// partition-independent counters (Metrics.Canonical) are identical
	// between a full serial and a full parallel exploration.
	Metrics *obs.Metrics
}

// Buggy reports whether any bug was found.
func (r *Result) Buggy() bool { return len(r.Bugs) > 0 }

// Witness builds the structured forensics witness for r.Bugs[i].
func (r *Result) Witness(i int) (*forensics.Witness, error) {
	if i < 0 || i >= len(r.Bugs) {
		return nil, fmt.Errorf("no bug %d (result has %d)", i, len(r.Bugs))
	}
	return r.Bugs[i].Witness()
}

// Run explores the program's failure behaviours to completion (or until a
// configured cap) and returns the aggregated result. With Options.Workers
// greater than one the choice tree is partitioned across worker goroutines
// (parallel.go); the serial loop below is the reference semantics the
// parallel driver must reproduce bit-for-bit.
func (c *Checker) Run() *Result {
	if c.reg != nil {
		c.reg.SetGoal(int64(c.opts.MaxScenarios))
		c.reg.Emit("run_start", "program", c.prog.Name,
			"workers", c.opts.Workers, "max_scenarios", c.opts.MaxScenarios)
	}
	if c.opts.Workers > 1 && c.snapshot == nil {
		return c.runParallel()
	}
	c.reg.SetWorkers(1)
	start := time.Now()
	complete := c.runSerial()
	return c.buildResult(start, complete)
}

// runSerial is the single-goroutine depth-first exploration loop. It
// reports whether the state space was exhausted (no cap cut it short).
func (c *Checker) runSerial() bool {
	for {
		c.scenarios++
		c.runScenario()
		if c.opts.StopAtFirstBug && len(c.bugs) > 0 {
			c.porAbandon()
			return false
		}
		if len(c.bugs) >= c.opts.MaxBugs {
			c.porAbandon()
			return false
		}
		if c.scenarios >= c.opts.MaxScenarios {
			c.porAbandon()
			return false
		}
		if !c.chooser.advance() {
			c.porFlush()
			return true
		}
	}
}

// buildResult folds the chooser's choice-point counts into the stats and
// assembles the Result, sorting every finding list canonically.
func (c *Checker) buildResult(start time.Time, complete bool) *Result {
	c.foldChooserStats()
	sortBugsCanonically(c.bugs)
	for _, b := range c.bugs {
		b.prog, b.opts = &c.prog, &c.opts
	}
	var metrics *obs.Metrics
	if c.reg != nil {
		// run_end goes out before the snapshot so Metrics.Events covers
		// the complete stream.
		c.reg.Emit("run_end", "scenarios", c.scenarios,
			"executions", 1+c.execsPost, "bugs", len(c.bugs),
			"complete", complete && !c.truncated)
		m := c.reg.Snapshot()
		metrics = &m
	}
	return &Result{
		Program:            c.prog.Name,
		Scenarios:          c.scenarios,
		Executions:         1 + c.execsPost,
		FailurePoints:      c.fpointsPre,
		Steps:              c.totalSteps,
		Duration:           time.Since(start),
		Bugs:               c.bugs,
		MultiRF:            sortedMultiRF(c.multiRF),
		PerfIssues:         sortedPerfIssues(c.perfIssues),
		RFChoicePoints:     c.newPoints[chooseReadFrom],
		FailDecisionPoints: c.newPoints[chooseFail],
		MaxRFCandidates:    c.maxRF,
		Complete:           complete && !c.truncated,
		Metrics:            metrics,
	}
}

// foldChooserStats moves the chooser's discovered-point counters into the
// mergeable stats (idempotent: the chooser's counters are drained).
func (c *Checker) foldChooserStats() {
	for k, n := range c.chooser.newPoints {
		c.newPoints[k] += n
		c.chooser.newPoints[k] = 0
	}
}

// sortedMultiRF lists flagged loads by location.
func sortedMultiRF(m map[string]*MultiRF) []*MultiRF {
	out := make([]*MultiRF, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	slices.SortFunc(out, func(a, b *MultiRF) int { return strings.Compare(a.Loc, b.Loc) })
	return out
}

// sortedPerfIssues lists performance findings by location, then kind.
func sortedPerfIssues(m map[string]*PerfIssue) []*PerfIssue {
	out := make([]*PerfIssue, 0, len(m))
	for _, p := range m {
		out = append(out, p)
	}
	slices.SortFunc(out, func(a, b *PerfIssue) int {
		return cmp.Or(strings.Compare(a.Loc, b.Loc), cmp.Compare(a.Kind, b.Kind))
	})
	return out
}

// sortBugsCanonically orders bug reports by the choice-stack description of
// their first manifesting scenario, then by type and message — a total
// order independent of discovery order.
func sortBugsCanonically(bugs []*BugReport) {
	sort.Slice(bugs, func(i, j int) bool { return bugLess(bugs[i], bugs[j]) })
}

func bugLess(a, b *BugReport) bool {
	if a.Choices != b.Choices {
		return a.Choices < b.Choices
	}
	if a.Type != b.Type {
		return a.Type < b.Type
	}
	return a.Message < b.Message
}

// Execute runs fn once against a fresh pool with no failure injection —
// used for direct (non-exploring) execution of guest code in tests and
// benchmarks. It returns the bug encountered, if any.
func Execute(name string, fn func(*Context), opts Options) *Result {
	ck := New(Program{Name: name, Run: fn}, opts)
	return ck.Run()
}

// ---- Scenario engine ----------------------------------------------------

func (c *Checker) resetScenario() {
	c.seq = 0
	c.stack = c.pmpool.Recycle(c.stack)
	c.alloc.Reset()
	if _, ok := c.alloc.Alloc(RootSize, 1); !ok {
		panic(engineError{"pool smaller than root area"})
	}
	c.chooser.begin()
	if c.opts.RandomScheduler {
		c.rng = rand.New(rand.NewSource(c.opts.Seed))
	}
	c.fpCount = 0
	c.preDone = false
	clear(c.lastStore)
	if c.wrec != nil {
		c.stack.SetIntervalTracer(c.wrec.intervalEvent)
	}
}

// pushExecution starts a new execution after an injected failure.
func (c *Checker) pushExecution() {
	c.stack.Push()
	clear(c.lastStore)
	if c.snapActive {
		// A fresh value log for the new recovery segment (backing storage
		// reused across scenarios).
		id := c.stack.Top().ID
		for len(c.segLogs) < id {
			c.segLogs = append(c.segLogs, nil)
		}
		c.segLogs[id-1] = c.segLogs[id-1][:0]
		c.segLog = &c.segLogs[id-1]
	}
}

// runScenario executes one complete failure scenario: the pre-failure
// execution up to an injected (or end-of-run) failure, then recovery
// executions until one completes without a further failure.
func (c *Checker) runScenario() {
	c.porBeginScenario()
	if c.col != nil {
		c.col.Inc(obs.Scenarios)
		c.reg.Emit("scenario_start", "worker", c.workerID, "scenario", c.scenarios)
		defer func() {
			c.col.NotePeak(obs.PeakChoiceDepth, int64(len(c.chooser.points)))
			c.reg.Emit("scenario_end", "worker", c.workerID,
				"scenario", c.scenarios, "depth", len(c.chooser.points))
		}()
	}
	defer func() { c.porNoteDepth(len(c.chooser.points)) }()
	c.beginSnapScenario()
	if c.snapActive || c.porFpActive {
		// After porPruneSweep: the deltas a prune re-applies are not this
		// scenario's prefix.
		c.latch(&c.base)
	}

	var crashed bool
	if s := c.usableSnapshot(); s != nil {
		// The recorded choice prefix crashes at, completes to, or passes
		// through a captured state: restore it instead of re-executing the
		// guest from scratch.
		crashed = c.restoreSnap(s)
	} else {
		c.resetScenario()
		// A full run always starts over on a fresh Stack, so any cached
		// snapshots reference dead state and must go; eligible runs
		// re-capture from scratch on the journaled fresh stack.
		c.truncateSnaps(0)
		if c.snapActive {
			c.stack.EnableJournal()
		}
		crashed = c.runSegment(c.prog.Run)
	}
	if c.preDone {
		fp := c.fpCount
		if c.opts.MaxFailures > 0 {
			fp++ // the end-of-run failure point
		}
		if fp > c.fpointsPre {
			c.fpointsPre = fp
		}
	}
	if !crashed {
		// Segment ended due to a bug, there is nothing to recover, or the
		// segment was a recovery a restored snapshot resumed mid-way — it ran
		// to completion, and the end-of-run failure point below belongs to
		// the pre-failure execution only.
		if c.opts.MaxFailures < 0 || c.prog.Recover == nil || c.bugEndedSegment ||
			c.stack.Top().ID > 0 {
			c.bugEndedSegment = false
			return
		}
		// Mandatory end-of-run failure: the paper's third failure point in
		// the Figure 4 walkthrough ("at the end of the execution").
		if c.snapshot != nil {
			c.snapshot(-1)
		}
		c.captureSnap(endSnap)
		if c.wrec != nil {
			c.wrec.noteFailure(-1)
		}
	}
	if c.porCrashCheck() {
		// Fingerprint hit: an equivalent post-failure state's recovery
		// subtree was already explored and its delta has been re-applied.
		return
	}
	// The stack depth reflects failures already injected — 1 on a fresh run,
	// deeper when a restored snapshot resumed mid-recovery.
	for depth := c.stack.Depth() - 1; ; depth++ {
		if depth > c.opts.MaxFailures {
			panic(engineError{"recovery depth exceeded MaxFailures"})
		}
		c.pushExecution()
		c.execsPost++
		c.col.Inc(obs.ExecutionsPost)
		crashed = c.runSegment(c.prog.Recover)
		if !crashed {
			c.bugEndedSegment = false
			return
		}
	}
}

// runSegment executes one guest execution (pre-failure Run or a recovery).
// It returns true if the segment ended with an injected power failure, and
// false if it completed normally or was ended by a bug (recorded via
// c.bugEndedSegment).
func (c *Checker) runSegment(fn func(*Context)) (crashed bool) {
	var schedRNG *rand.Rand
	if c.opts.RandomScheduler {
		schedRNG = c.rng
	}
	main := c.sched.reset(c.opts.SBCapacity, schedRNG)
	c.steps = 0
	c.replaySteps = 0
	c.dirty = false

	if c.col != nil {
		// Registered before the teardown defer, so it runs after teardown
		// (LIFO) and sees the segment's final step count. Phase selection
		// happens now: the execution stack grows before recovery segments.
		phase, timer := obs.PreFailureNs, obs.TimerPreFailure
		switch {
		case c.replaySegment:
			phase, timer = obs.ReplayNs, obs.TimerReplay
		case c.stack.Top().ID > 0:
			phase, timer = obs.PostFailureNs, obs.TimerPostFailure
		}
		t0 := time.Now()
		defer func() {
			ns := time.Since(t0).Nanoseconds()
			c.col.Add(phase, ns)
			c.col.Observe(timer, ns)
			c.col.Add(obs.Steps, int64(c.steps))
			c.col.Add(obs.ReplaySteps, int64(c.replaySteps))
		}()
	}

	defer func() {
		// Always tear down child goroutines before leaving the segment.
		fault, unexpected := c.sched.shutdown()
		r := recover()
		switch v := r.(type) {
		case nil:
		case crashSignal:
			crashed = true
		case guestFault:
			if fault == nil {
				fault = &v
			}
		default:
			panic(r) // engineError or a genuine Go bug: propagate
		}
		if unexpected != nil {
			panic(unexpected)
		}
		if fault != nil {
			c.recordBug(*fault)
			crashed = false
		}
	}()

	ctx := &Context{ck: c, th: main}
	fn(ctx)
	c.joinAll(main)
	c.quiesce()
	if c.stack.Top().ID == 0 {
		c.preDone = true
	}
	return false
}

// joinAll waits for any guest threads the program left running.
func (c *Checker) joinAll(main *thread) {
	for {
		var pending *thread
		c.sched.mu.Lock()
		for _, t := range c.sched.threads {
			if t != main && !t.done {
				pending = t
				break
			}
		}
		c.sched.mu.Unlock()
		if pending == nil {
			return
		}
		c.sched.join(main, pending)
	}
}

// quiesce drains every thread's store and flush buffers, as happens when a
// program runs to completion. Failure points encountered during the drain
// remain eligible.
func (c *Checker) quiesce() {
	for _, t := range c.threadList() {
		t.ts.Mfence(c)
	}
}

// threadList returns the current guest threads in scheduler order, copied
// into thScratch under the scheduler lock (Spawn appends under it).
func (c *Checker) threadList() []*thread {
	c.sched.mu.Lock()
	c.thScratch = append(c.thScratch[:0], c.sched.threads...)
	c.sched.mu.Unlock()
	return c.thScratch
}

// ---- tso.Storage implementation ------------------------------------------

// NextSeq increments and returns the global sequence counter σcurr.
func (c *Checker) NextSeq() pmem.Seq { c.seq++; return c.seq }

// CurSeq returns σcurr without incrementing.
func (c *Checker) CurSeq() pmem.Seq { return c.seq }

// ApplyStore writes a store's bytes into the current execution's cache
// queues at sequence s.
func (c *Checker) ApplyStore(addr pmem.Addr, size int, val uint64, s pmem.Seq) {
	e := c.stack.Top()
	e.AppendWord(addr, size, val, s)
	e.EvictedStores += size
	c.dirty = true
	if c.opts.FlagPerfIssues {
		pmem.Lines(addr, uint64(size), func(line pmem.Addr) {
			c.lastStore[line] = s
		})
	}
}

// ApplyCLFlush pins the line's most-recent-writeback lower bound to s.
// Routed through the stack so the mutation is undo-journaled when the
// snapshot engine is active.
func (c *Checker) ApplyCLFlush(addr pmem.Addr, s pmem.Seq) {
	c.stack.FlushLine(addr, s)
}

// ApplyWriteback applies a buffered clflushopt writeback ordered at or
// after s.
func (c *Checker) ApplyWriteback(addr pmem.Addr, s pmem.Seq) {
	c.stack.FlushLine(addr, s)
}

// SFenceEffect feeds the performance-issue detector.
func (c *Checker) SFenceEffect(pendingWritebacks int, loc string) {
	if pendingWritebacks == 0 {
		c.notePerfFence(loc)
	}
}

// BeforeFlushEffect is the failure-injection hook (§4, "Injecting
// failures"): invoked immediately before a flush operation takes effect.
// Points with no stores evicted since the last considered point are skipped.
func (c *Checker) BeforeFlushEffect(kind tso.EntryKind, addr pmem.Addr, loc string) {
	c.notePerfFlush(addr, loc)
	if c.opts.MaxFailures < 0 || c.stack.Depth() > c.opts.MaxFailures {
		return
	}
	if !c.dirty {
		return
	}
	if c.stack.Top().ID == 0 {
		c.fpCount++
	}
	fpIndex := c.fpCount - 1
	c.dirty = false
	if c.snapshot != nil {
		c.snapshot(fpIndex)
	}
	// Captured before the fail/continue decision is consumed: restoring this
	// snapshot resumes as if the decision selected "fail".
	c.captureSnap(fpSnap)
	fresh := c.chooser.cursor == len(c.chooser.points)
	fail := c.chooser.choose(chooseFail, 2) == 1
	if fresh {
		c.porNoteFailPoint()
	} else {
		c.porMemoPerf()
	}
	c.wrecDecision()
	if fail {
		if c.wrec != nil {
			c.wrec.noteFailure(fpIndex)
		}
		c.sched.initiateCrash()
		panic(crashSignal{})
	}
}

// ---- Load path (Figures 9 & 10) ------------------------------------------

// resolveLoad resolves one whole load (or RMW read) and records it in the
// segment's value log. The decision is per operation: when no buffered store
// overlaps the access, pmem.Stack.Load answers it whole if every byte has a
// store in the current execution, or if none has and the pinned summary covers
// it — a byte there has exactly one candidate, so no choice, no capture and
// no interval can move, and the byte path's counters are added in bulk.
// Everything else (mixed, cross-line, unpinned, multi-candidate, or a
// forensics recorder wanting per-byte callbacks) takes resolveByte,
// the single place choices, POR elision, captureSnap(choiceSnap) and Figure-10
// refinement happen. TimerRefinement (wall-clock, non-canonical) times that
// path once per operation; a summary copy costs less than reading the clock.
func (c *Checker) resolveLoad(t *thread, a pmem.Addr, size int) uint64 {
	v, src := uint64(0), pmem.LoadDeclined
	if c.wrec == nil && !t.ts.Overlaps(a, size) {
		v, src = c.stack.Load(a, size)
	}
	switch src {
	case pmem.LoadCached:
		c.col.Add(obs.LoadCacheHits, int64(size))
	case pmem.LoadPinned:
		if c.col != nil {
			c.col.Add(obs.LoadRefinements, int64(size))
			c.col.Add(obs.RFCandidates, int64(size))
			c.col.Add(obs.RefinementsSkipped, int64(size))
			c.col.NotePeak(obs.PeakRFCandidates, 1)
		}
	default:
		var t0 time.Time
		if c.col != nil {
			t0 = time.Now()
		}
		c.opLoc = ""
		for i := 0; i < size; i++ {
			v |= uint64(c.resolveByte(t, a+pmem.Addr(i), i == 0)) << (8 * uint(i))
		}
		if c.col != nil {
			c.col.Observe(obs.TimerRefinement, time.Since(t0).Nanoseconds())
		}
	}
	c.noteSegLoad(a, size, v)
	return v
}

// resolveByte resolves one byte of a load: store-buffer bypass, then the
// current execution's cache, then the lazily enumerated pre-failure
// candidates with constraint refinement. first marks the operation's leading
// byte: the choice-point snapshot stack captures only there, so the value log
// (snapshot.go) stays whole-operation and a fast-forward arrival always lands
// on an operation boundary.
func (c *Checker) resolveByte(t *thread, a pmem.Addr, first bool) byte {
	if v, ok := t.ts.Lookup(a); ok {
		c.col.Inc(obs.LoadSBHits)
		return v
	}
	if bs, ok := c.stack.Top().Newest(a); ok {
		c.col.Inc(obs.LoadCacheHits)
		return bs.Val
	}
	c.rfScratch = c.stack.ReadPreFailureInto(a, c.rfScratch[:0])
	cands := c.rfScratch
	multi := len(cands) > 1
	// porElides is a pure predicate over the candidate set; it is hoisted
	// here so the capture below covers exactly the real (non-elided) choice
	// points the chooser will consume.
	elide := multi && c.porElides(cands)
	if multi && !elide && first {
		// Captured before any of this load's own accounting: the arrival of
		// a fast-forward replay re-executes the load live and charges its
		// counters exactly once. Choices at non-leading bytes go uncaptured
		// (a restore targeting them resumes from the nearest shallower entry
		// and replays forward), keeping captures on operation boundaries.
		c.captureSnap(choiceSnap)
	}
	if c.col != nil {
		c.col.Inc(obs.LoadRefinements)
		c.col.Add(obs.RFCandidates, int64(len(cands)))
		c.col.NotePeak(obs.PeakRFCandidates, int64(len(cands)))
	}
	var wres *forensics.LoadResolution
	if c.wrec != nil && c.stack.Top().ID > 0 {
		// Built before the choice so the verdicts reflect the pre-refinement
		// intervals the admission rule actually consulted.
		wres = c.wrec.beginLoad(t, a)
		c.wrec.openLoad = wres
	}
	idx := 0
	if multi {
		if len(cands) > c.maxRF {
			c.maxRF = len(cands)
		}
		if c.opts.FlagMultiRF {
			c.flagMultiRF(a, cands)
		}
		if elide {
			// Every candidate carries the same value: the sibling read-from
			// branches commute. No choice point, and no DoRead refinement —
			// the unrefined interval keeps this single branch the exact
			// union of the elided siblings (see por.go).
			c.col.Inc(obs.RFElisions)
			if wres != nil {
				c.wrec.finishLoad(wres, cands[0])
				c.wrec.openLoad = nil
			}
			return cands[0].Val
		}
		idx = c.chooser.choose(chooseReadFrom, len(cands))
		c.wrecDecision()
	}
	chosen := cands[idx]
	if c.stack.DoRead(a, chosen) {
		c.col.Inc(obs.RefinementsSkipped)
	}
	if wres != nil {
		c.wrec.finishLoad(wres, chosen)
		c.wrec.openLoad = nil
	}
	return chosen.Val
}

// loadLoc returns the guest location of the operation being resolved. Every
// byte of one load or RMW shares it, so the stack is unwound and symbolized
// at most once per operation, by the first byte that asks.
func (c *Checker) loadLoc() string {
	if c.opLoc == "" {
		c.opLoc = guestLocation()
	}
	return c.opLoc
}

func (c *Checker) flagMultiRF(a pmem.Addr, cands []pmem.Candidate) {
	loc := c.loadLoc()
	key := loc
	m, ok := c.multiRF[key]
	if ok && len(cands) < m.Candidates {
		// A smaller candidate set can never displace the canonical
		// representative (the candidate maximum only grows), so skip the
		// value formatting entirely — this is the hot path once a large
		// manifestation has been seen at a location.
		m.Count++
		return
	}
	vals := multiRFValues(cands)
	if !ok {
		m = &MultiRF{Loc: loc, Addr: a, Values: vals}
		c.multiRF[key] = m
	} else if m.outranks(len(cands), vals, a) {
		m.Values = vals
		m.Addr = a
	}
	if len(cands) > m.Candidates {
		m.Candidates = len(cands)
	}
	m.Count++
}

func multiRFValues(cands []pmem.Candidate) []string {
	vals := make([]string, 0, 8)
	for _, cd := range cands {
		vals = append(vals,
			fmt.Sprintf("exec%d val=%#x", cd.Exec, cd.Val))
		if len(vals) == 8 {
			break
		}
	}
	return vals
}

// ---- Bug recording --------------------------------------------------------

func (c *Checker) recordBug(f guestFault) {
	c.bugEndedSegment = true
	c.porNoteBug(f.typ, f.msg, c.stack.Top().ID)
	b := &BugReport{
		Type:      f.typ,
		Message:   f.msg,
		Execution: c.stack.Top().ID,
		Scenario:  c.scenarios - 1,
		Count:     1,
		Choices:   c.chooser.describe(),
		replay:    append([]choicePoint(nil), c.chooser.points...),
	}
	c.addBug(b)
}

// addBug records a manifestation. The first of its key emits a "bug" event;
// every one merges by mergeBug's rule, so of all manifestations sharing a key
// the canonical one (smallest Choices, then Execution) supplies the reported
// scenario and replay vector, as in the parallel merge.
func (c *Checker) addBug(b *BugReport) {
	if _, seen := c.bugIndex[b.key()]; !seen && c.reg != nil {
		c.reg.Emit("bug", "worker", c.workerID, "type", b.Type.String(),
			"message", b.Message, "choices", b.Choices)
	}
	c.mergeBug(b)
}

// recordEngineBug converts an internal engine panic raised while exploring
// a claimed branch into a reported bug carrying the offending branch prefix,
// so one corrupted subtree (typically a nondeterministic guest whose choice
// shape changed between record and replay) does not crash the whole
// parallel exploration. The abandoned subtree marks the stats truncated.
func (c *Checker) recordEngineBug(e engineError, prefix []choicePoint) {
	c.truncated = true
	c.mergeBug(&BugReport{
		Type:      BugEngine,
		Message:   e.msg,
		Execution: c.stack.Top().ID,
		Scenario:  c.scenarios - 1,
		Count:     1,
		Choices:   describeChoices(prefix),
		replay:    append([]choicePoint(nil), prefix...),
	})
}
