package core

import (
	"fmt"
	"math"
	"time"

	"jaaru/internal/obs"
	"jaaru/internal/pmem"
	"jaaru/internal/tso"
)

// Snapshot stack — the deterministic-replay equivalent of the paper's
// fork()-based restart strategy (§4, "Evaluating executions").
//
// The paper's Jaaru forks the checked process at every failure point, so the
// expensive execution prefix runs once and each failure scenario resumes from
// a cheap copy-on-write process snapshot. A replay-based engine would instead
// re-run the guest for every scenario: the byte-identical pre-failure prefix,
// and then the whole post-failure recovery prefix of every sibling read-from
// choice. This file is the one mechanism that removes both:
//
//   - captureSnap records the checker state at three sites: immediately
//     before the fail/continue choice of each eligible failure point (fpSnap,
//     in the pre-failure execution and in recovery segments alike), before
//     the mandatory end-of-run failure (endSnap), and before each
//     post-failure multi-candidate read-from choice (choiceSnap). An entry
//     holds the global sequence counter, fpCount, the allocator high-water
//     mark, and a pmem.Mark into the journaled execution stack (store
//     queues shared by reference + recorded length; intervals via the undo
//     journal — refinement mutates them in place, so restoring needs undo,
//     not sharing). A capture costs what the scenario touched,
//     not what the pool holds.
//   - Entries form a stack along the chooser's current depth-first path.
//     Entry i was captured under the decisions Checker.snapPrefix[:depth_i]:
//     one shared vector, so the prefixes are nested by construction and the
//     stack's memory is linear in its depth. usableSnapshot truncates the
//     stack to the prefix the current scenario still replays and returns the
//     deepest entry it can resume from; restoring an entry prunes every
//     deeper one, since the rewind reclaims their journaled state.
//   - restoreSnap rewinds to the entry and the scenario continues from there
//     without invoking c.prog.Run again: an fpSnap resumes as if its failure
//     decision selected "fail", an endSnap at the completed pre-failure
//     execution, and a choiceSnap mid-recovery-segment (below).
//   - Each parallel worker owns a private stack over its private pmem stack.
//     A claimed branch prefix that extends the prefix of a surviving entry
//     reuses it; otherwise the first scenario of the claim is a full run that
//     recaptures from scratch.
//
// Resuming mid-segment. A guest Go function cannot resume mid-call the way a
// forked process can, so a choiceSnap restore is a two-part move:
//
//   - The simulator state (pmem stack, seq, allocator, TSO
//     buffers, scheduler scalars) is rewound exactly, as for the other kinds.
//   - The in-flight recovery segment is re-entered from its start in
//     *fast-forward* mode (ffwdState): every operation skips its effects and
//     its step accounting, loads are fed from a per-execution value log
//     (segLogs) recorded by the capture pass, and threads still take their
//     scheduler turns so the interleaving replays deterministically. At the
//     captured choice point — the arrival, identified by the log cursor
//     reaching the capture's log length — execution switches to live: the
//     per-thread TSO snapshots and segment scalars are installed and the
//     flipped sibling decision is consumed as an ordinary replayed choose().
//
// Exactness: results with the stack on must be bit-identical to the
// full-replay reference (Options.Snapshots < 0), including the canonical
// observability counters. The guest-visible state is restored exactly, and an
// entry's account (account.go) adds back what the skipped prefix added. What
// the account does not cover is restore-only: ChoicesReplayed is computed
// analytically (a replayed and a fresh traversal of one prefix differ in it),
// and a choiceSnap's account spans the captured segment's first segSteps ops,
// which the fast-forward re-runs and the segment end counts again. The
// fast-forward pass touches no counters and no simulator state, so the live
// suffix accounts for itself. Any divergence between the value log and the
// replayed operation stream panics with engineError — the same
// nondeterminism backstop the chooser itself provides.

// snapKind distinguishes the three capture sites.
type snapKind uint8

const (
	// fpSnap is captured in BeforeFlushEffect, immediately before the
	// fail/continue choice of an eligible failure point: restoring it
	// resumes as if that choice selected "fail".
	fpSnap snapKind = iota
	// endSnap is captured after the pre-failure execution completed,
	// immediately before the mandatory end-of-run failure.
	endSnap
	// choiceSnap is captured in resolveByte, immediately before a
	// post-failure multi-candidate read-from choice is consumed: restoring
	// it resumes mid-recovery-segment at that choice via fast-forward
	// replay (see the header comment above).
	choiceSnap
)

// segEventKind labels one recorded event of a post-failure segment's value
// log — everything a fast-forward replay must feed to the guest instead of
// recomputing.
type segEventKind uint8

const (
	// evLoad is one resolved load or RMW-read value (any path: store-buffer
	// hit, cache hit, or refinement), recorded whole-operation: logging once
	// per operation instead of once per byte keeps the always-on recording
	// tax on live post-failure execution small.
	evLoad segEventKind = iota
	// evAlloc is an Alloc result address (the allocator is truncated to the
	// capture high-water at restore, so fast-forwarded Allocs must not
	// re-advance it).
	evAlloc
	// evLimit is a PoolLimit result (the live allocator already reflects
	// the whole prefix during fast-forward, so the momentary value is fed).
	evLimit
)

// segEvent is one value-log entry.
type segEvent struct {
	addr pmem.Addr // evLoad: operation address; evAlloc/evLimit: result address
	val  uint64    // evLoad: the resolved value, little-endian over size bytes
	kind segEventKind
	size uint8 // evLoad: operation width in bytes
}

// ffwdState is the in-flight fast-forward replay of a restored choiceSnap.
type ffwdState struct {
	active bool
	log    []segEvent // the segment's value log, [0:target) pre-arrival
	cursor int
	target int
	snap   *snapEntry
}

// snapEntry is one captured scenario state.
type snapEntry struct {
	kind snapKind
	// depth is the chooser cursor at capture. The decisions that
	// deterministically lead here are Checker.snapPrefix[:depth] — owned by
	// the stack as a whole, not copied per entry.
	depth int

	// Guest-visible state.
	mark    pmem.Mark
	seq     pmem.Seq
	fpCount int
	preDone bool
	high    pmem.Addr // allocator high-water mark

	// acct is what the capture scenario added up to this point, added back
	// when a scenario restores this entry instead of re-running the prefix.
	// Only the capturing checker restores an entry and its stats are never
	// reset, so its findings' representatives are already in the stats.
	acct account

	// choiceSnap-only fields (stale pool leftovers otherwise, never read):
	// the mid-segment scalars and per-thread TSO state the fast-forward
	// arrival installs, plus the coordinates of the capture within the
	// segment's value log.
	segSteps  int            // c.steps at capture (ops of the in-flight segment)
	segDirty  bool           // c.dirty at capture
	execID    int            // stack index of the in-flight execution
	logTarget int            // len(segLogs[execID-1]) at capture — the arrival cursor
	tso       []tso.Snapshot // per-thread buffering state, scheduler order
	// lastStore copy (FlagPerfIssues only), as parallel slices so a warmed
	// capture allocates nothing.
	lsK []pmem.Addr
	lsV []pmem.Seq
}

// snapEligible reports whether the snapshot stack can run for this checker
// at all. RandomScheduler draws from an rng that is re-seeded per scenario
// and advanced by every scheduling decision — a skipped prefix would leave
// it in the wrong state — and instrumented (Yat) or replayed runs (Replay,
// BuildWitness, Minimize) must see every guest operation from the start of
// the pre-failure execution.
func (c *Checker) snapEligible() bool {
	return c.opts.Snapshots > 0 &&
		c.opts.MaxFailures > 0 &&
		c.prog.Recover != nil &&
		!c.opts.RandomScheduler &&
		c.snapshot == nil &&
		!c.replaySegment
}

// beginSnapScenario latches eligibility. Called at the top of runScenario,
// before the scenario baseline is latched and any restore re-applies a prefix.
func (c *Checker) beginSnapScenario() {
	c.segLog = nil // re-armed by pushExecution / restoreSnap
	c.snapActive = c.snapEligible()
}

// truncateSnaps cuts the stack down to its n shallowest entries, and the
// shared prefix with it. Pruned entries return to the free list with their
// backing slices and account storage, so a warmed capture/restore cycle — the
// steady state of sibling exploration — allocates nothing. truncateSnaps(0)
// releases everything: a fresh full run re-captures from scratch, and an
// engine panic leaves the journaled stack untrustworthy.
func (c *Checker) truncateSnaps(n int) {
	for i := n; i < len(c.snaps); i++ {
		c.snapFree = append(c.snapFree, c.snaps[i])
		c.snaps[i] = nil
	}
	c.snaps = c.snaps[:n]
	depth := 0
	if n > 0 {
		depth = c.snaps[n-1].depth
	}
	c.snapPrefix = c.snapPrefix[:depth]
}

// getSnapEntry draws a snapshot entry from the free list (or allocates one).
func (c *Checker) getSnapEntry() *snapEntry {
	if n := len(c.snapFree); n > 0 {
		s := c.snapFree[n-1]
		c.snapFree[n-1] = nil
		c.snapFree = c.snapFree[:n-1]
		return s
	}
	return &snapEntry{}
}

// usableSnapshot returns the deepest snapshot the current scenario can
// resume from, first truncating the stack to the entries whose prefix the
// scenario still replays: an entry is live exactly when its depth does not
// exceed the common prefix of snapPrefix and the chooser's vector. A live
// entry is usable if it is an endSnap (recovery re-runs from the completed
// pre-failure state), an fpSnap whose failure decision the scenario records
// as taken, or a choiceSnap the vector extends. Deeper live-but-unusable
// entries (e.g. a recovery failure point this scenario does not crash at)
// stay cached unless a shallower entry is returned, because its rewind
// reclaims their journaled state.
func (c *Checker) usableSnapshot() *snapEntry {
	if !c.snapActive {
		return nil
	}
	pts := c.chooser.points
	// The first chooser.stable decisions are unchanged since the last scan
	// (advance only flips the deepest surviving index; see chooser.stable),
	// so the comparison starts there — at the flip, which fails at once.
	limit := min(len(c.snapPrefix), len(pts))
	common := min(c.chooser.stable, limit)
	for common < limit && c.snapPrefix[common] == pts[common] {
		common++
	}
	c.chooser.stable = math.MaxInt
	live := len(c.snaps)
	for live > 0 && c.snaps[live-1].depth > common {
		live--
	}
	c.truncateSnaps(live)
	for i := live - 1; i >= 0; i-- {
		s := c.snaps[i]
		var usable bool
		switch s.kind {
		case endSnap:
			usable = true
		case fpSnap:
			usable = s.depth < len(pts) &&
				pts[s.depth].kind == chooseFail && pts[s.depth].idx == 1
		case choiceSnap:
			// Any scenario whose recorded vector extends this prefix can
			// resume here: the arrival consumes points[s.depth] — flipped by
			// advance, or unchanged with the flip somewhere deeper, in which
			// case the live suffix simply replays the remaining recorded
			// decisions. (advance's deepest modified index is >= s.depth
			// whenever the prefix still matches, so the suffix replay always
			// reaches the divergence.)
			usable = s.depth < len(pts)
		}
		if usable {
			c.truncateSnaps(i + 1)
			return s
		}
	}
	return nil
}

// captureSnap pushes the current scenario state if the stack is active and
// holds no entry at this depth yet (a restored prefix re-passes the shallower
// capture sites with the condition already satisfied). The choiceSnap site
// calls after candidate enumeration (and the POR elision check) but before
// any load-path accounting, so the arrival byte's own counters are charged
// exactly once — live, by the resuming scenario.
func (c *Checker) captureSnap(kind snapKind) {
	if !c.snapActive {
		return
	}
	if kind == choiceSnap && c.stack.Top().ID == 0 {
		// Pre-failure loads replay from fpSnap/endSnap entries; only
		// post-failure choices are worth an entry of their own.
		return
	}
	depth := c.chooser.cursor
	if n := len(c.snaps); n > 0 && depth <= c.snaps[n-1].depth {
		return
	}
	if ch := c.chooser; kind == fpSnap && depth < len(ch.points) && ch.limit[depth] == 1 {
		// Replaying a claimed vector through a failure decision frozen on
		// "continue" — its crash subtree was donated elsewhere or pruned — so
		// no vector of this claim ever fails here and the entry would never
		// be restored.
		return
	}
	s := c.getSnapEntry()
	s.kind = kind
	s.depth = depth
	// snapPrefix already holds the decisions up to the entry below (its
	// length is that entry's depth); this one adds the decisions since.
	c.snapPrefix = append(c.snapPrefix, c.chooser.points[len(c.snapPrefix):depth]...)
	s.mark = c.stack.Mark()
	s.seq = c.seq
	s.fpCount = c.fpCount
	s.preDone = c.preDone
	s.high = c.alloc.HighWater()
	c.measure(&s.acct, &c.base)
	if kind == choiceSnap {
		s.segSteps = c.steps
		s.segDirty = c.dirty
		s.execID = c.stack.Top().ID
		s.logTarget = len(c.segLogs[s.execID-1])
		// Per-thread TSO buffering state in scheduler order. The capturing
		// thread holds the turn, so parked threads' states are quiescent.
		// Growth extends into spare capacity without `append` over live
		// elements, which would zero their pooled backing slices.
		threads := c.threadList()
		for cap(s.tso) < len(threads) {
			s.tso = append(s.tso[:cap(s.tso)], tso.Snapshot{})
		}
		s.tso = s.tso[:len(threads)]
		for i, t := range threads {
			t.ts.CaptureInto(&s.tso[i])
		}
		s.lsK, s.lsV = s.lsK[:0], s.lsV[:0]
		if c.opts.FlagPerfIssues {
			for a, seq := range c.lastStore {
				s.lsK = append(s.lsK, a)
				s.lsV = append(s.lsV, seq)
			}
		}
	}
	c.snaps = append(c.snaps, s)
	if kind == choiceSnap {
		c.col.Inc(obs.ChoiceSnapCaptures)
	} else {
		c.col.Inc(obs.SnapshotCaptures)
	}
	c.col.NotePeak(obs.PeakSnapshotBytes, c.stack.RetainedBytes())
}

// restoreSnap rewinds the checker to a captured state, re-applies the
// entry's account once and —
// for an entry captured mid-segment (choiceSnap) — re-enters the in-flight
// recovery segment in fast-forward mode (see the header comment). It reports
// whether the scenario resumes crashed: an fpSnap takes the failure decision
// at s.depth, an endSnap stands at the completed pre-failure execution, and
// a choiceSnap reports whether its resumed segment crashed at a further
// failure point, exactly as a live runSegment call would.
func (c *Checker) restoreSnap(s *snapEntry) (crashed bool) {
	var t0 time.Time
	if c.col != nil {
		t0 = time.Now()
	}
	mid := s.kind == choiceSnap
	c.stack.Rewind(s.mark)
	c.seq = s.seq
	c.fpCount = s.fpCount
	c.preDone = s.preDone
	c.alloc.Truncate(s.high)
	// An fpSnap's skipped prefix consumed the fail decision too. A choiceSnap
	// arrival consumes points[s.depth] as an ordinary replayed choose() —
	// validating kind and arity against the recorded vector — so its cursor
	// stays on the choice point itself.
	cursor := s.depth
	if s.kind == fpSnap {
		cursor++
	}
	c.chooser.cursor = cursor
	c.execsPost += s.mark.Depth - 1
	c.bugEndedSegment = false
	c.reapply(&s.acct, 1)
	if c.col != nil {
		c.col.Add(obs.ChoicesReplayed, int64(cursor))
		// Satisfied by restore, not by re-execution: reported separately as
		// choices_restored (and folded back for the canonical comparison).
		c.col.Add(obs.ChoicesRestored, int64(cursor))
		restores, restoreNs, timer := obs.SnapshotRestores, obs.SnapshotRestoreNs, obs.TimerSnapshotRestore
		if mid {
			restores, restoreNs, timer = obs.ChoiceRestores, obs.ChoiceRestoreNs, obs.TimerChoiceRestore
			// The account's steps include the captured segment's first
			// segSteps ops; those re-run in fast-forward and the segment end
			// counts them, so the restore contributes the difference.
			c.col.Add(obs.Steps, -int64(s.segSteps))
			c.col.Add(obs.ReplayStepsSaved, s.acct.steps-int64(s.segSteps))
		}
		c.col.Inc(restores)
		ns := time.Since(t0).Nanoseconds()
		c.col.Add(restoreNs, ns)
		c.col.Observe(timer, ns)
	}
	if !mid {
		// The rewound execution's guest segment is never resumed (an fpSnap
		// re-injects the failure at the fail point; an endSnap re-runs
		// nothing) so no value-log events can arrive before pushExecution
		// re-arms this.
		c.segLog = nil
		return s.kind == fpSnap
	}
	if c.opts.FlagPerfIssues {
		clear(c.lastStore)
		for i, a := range s.lsK {
			c.lastStore[a] = s.lsV[i]
		}
	}
	// Truncate the segment's value log to the capture point: the resumed
	// live suffix appends its own events from here, and any deeper captures
	// recorded by the previous sibling are dead.
	c.segLogs[s.execID-1] = c.segLogs[s.execID-1][:s.logTarget]
	c.segLog = &c.segLogs[s.execID-1]
	c.ffwd = ffwdState{
		active: true,
		log:    c.segLogs[s.execID-1],
		target: s.logTarget,
		snap:   s,
	}
	crashed = c.runSegment(c.prog.Recover)
	if c.ffwd.active {
		// The segment ended before the replay reached its capture point: the
		// guest diverged from the recorded value log.
		c.ffwd = ffwdState{}
		panic(engineError{"choice-snapshot fast-forward never reached its capture point"})
	}
	return crashed
}

// ffwdArrive switches the fast-forward replay to live execution: the
// captured segment scalars and per-thread TSO states are installed and the
// pending operation (the load whose resolveByte call captured the snapshot)
// proceeds normally.
func (c *Checker) ffwdArrive() {
	s := c.ffwd.snap
	c.steps = s.segSteps
	c.dirty = s.segDirty
	threads := c.threadList()
	if len(threads) != len(s.tso) {
		panic(engineError{fmt.Sprintf(
			"choice-snapshot fast-forward diverged: %d threads at arrival, captured %d",
			len(threads), len(s.tso))})
	}
	for i, t := range threads {
		t.ts.RestoreFrom(&s.tso[i])
	}
	c.ffwd = ffwdState{}
}

// ffwdLoad feeds one whole load (or RMW read) during fast-forward. live
// reports that the cursor reached the capture point: the arrival was
// installed and the operation — whose first byte hosts the captured choice —
// was resolved live, re-logging itself into the truncated value log.
func (c *Checker) ffwdLoad(t *thread, a pmem.Addr, size int) (v uint64, live bool) {
	if c.ffwd.cursor >= c.ffwd.target {
		c.ffwdArrive()
		return c.resolveLoad(t, a, size), true
	}
	ev := c.ffwdNext(evLoad)
	if ev.addr != a || int(ev.size) != size {
		panic(engineError{fmt.Sprintf(
			"choice-snapshot fast-forward diverged: log[%d] loads %#x/%d, replay loads %#x/%d",
			c.ffwd.cursor-1, ev.addr, ev.size, a, size)})
	}
	return ev.val, false
}

// ffwdNext consumes the next pre-arrival value-log event, which must be of
// the kind the replayed operation records. The capture site is always a load
// byte, so running out of log inside an Alloc or PoolLimit is a divergence
// just as a kind mismatch is.
func (c *Checker) ffwdNext(kind segEventKind) segEvent {
	f := &c.ffwd
	if f.cursor >= f.target || f.log[f.cursor].kind != kind {
		panic(engineError{fmt.Sprintf(
			"choice-snapshot fast-forward diverged at log[%d] of %d: replay presents event kind %d",
			f.cursor, f.target, kind)})
	}
	f.cursor++
	return f.log[f.cursor-1]
}

// noteSegEvent appends one value-log event for the in-flight post-failure
// segment. segLog is non-nil exactly when the snapshot stack is live for this
// scenario and execution is past the first failure (pre-failure segments
// never host a choiceSnap); the boundary sites — beginSnapScenario,
// pushExecution, restoreSnap — maintain it, keeping this per-byte hot path to
// a single pointer check.
func (c *Checker) noteSegEvent(kind segEventKind, a pmem.Addr) {
	if c.segLog == nil {
		return
	}
	*c.segLog = append(*c.segLog, segEvent{addr: a, kind: kind})
}

// noteSegLoad records one completed load (or RMW read) into the in-flight
// segment's value log — the whole-operation form of noteSegEvent.
func (c *Checker) noteSegLoad(a pmem.Addr, size int, v uint64) {
	if c.segLog == nil {
		return
	}
	*c.segLog = append(*c.segLog, segEvent{addr: a, val: v, kind: evLoad, size: uint8(size)})
}
