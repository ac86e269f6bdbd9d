package core

import (
	"slices"
	"sync"
	"time"

	"jaaru/internal/obs"
	"jaaru/internal/pmem"
)

// Persistency-aware partial-order reduction (the pruning layer behind
// Options.POR). Two complementary mechanisms shrink the explored scenario set
// without changing the reachable-behaviour set or the bug set:
//
//   - Single-valued read-from elision (porElides, wired into resolveByte): when
//     a post-failure load byte's candidate set holds more than one store but
//     every candidate carries the same value, the sibling read-from branches
//     commute — no subsequent load can observe which store was chosen — so
//     exploring one branch covers them all. The checker resolves the load
//     without creating a choice point and, crucially, without applying the
//     Figure 10 interval refinement: refining for an arbitrarily chosen
//     candidate would narrow later candidate sets to one branch's view,
//     under-exploring; leaving the interval untouched makes the single
//     explored branch the exact union of the elided siblings. This is the
//     DPOR sleep-set construction of the POWER-paper SMC recipe specialized
//     to Jaaru's persistency semantics: the "transitions" are read-from
//     picks, and same-value picks are mutually non-conflicting. Because the
//     pruned siblings never enter the choice stack at all, a partitioned
//     exploration can never queue a pruned prefix — split only donates
//     recorded points.
//
//   - Post-failure state fingerprinting (porCrashCheck): at the first visit
//     of a failure point's recovery subtree, the checker computes a canonical
//     O(touched) fingerprint of the persisted state (pmem.Fingerprint: line
//     contents plus interval records, rank-encoded so absolute sequence
//     numbers cancel out) and consults a per-run seen-set shared across
//     workers. On a miss the subtree is explored normally while a porRecord
//     accumulates its statistics; when the chooser backtracks out of the
//     subtree the record is published as a porDelta. On a hit the entire
//     recovery subtree is skipped and the recorded delta is re-applied, so
//     Result and the canonical observability counters stay bit-identical to
//     a run that explored the equivalent subtree explicitly — scenario and
//     counter totals remain "as if unpruned", with the physical saving
//     reported through obs.ScenariosPruned.
//
// Delta exactness. A subtree of K scenarios re-runs (or snapshot-restores —
// both paths account identically) its choice prefix K−1 times, and the
// owner's prefix differs from a later hit's prefix. The record therefore
// separates the two parts: at open it measures the owner scenario's own
// prefix contribution (scenario baseline → crash point), and at close it
// publishes vec = rawΔ − (K−1)·ownerPrefixΔ, the prefix-invariant recovery
// part. A hit re-applies vec + (K−1)·hitPrefixΔ, measuring its own prefix
// the same way. ChoicesReplayed is handled analytically (each skipped
// scenario would replay its whole prefix — rootDepth decisions — whether
// live or via snapshot restore), ChoicesFresh is purely a suffix property
// (prefix re-runs replay, never discover), and Steps goes through the same
// prefix separation on the scalar counter.
//
// Soundness gates. Fingerprinting requires MaxFailures == 1 (recovery then
// contains no failure decisions, so a recorded bug's choice suffix renders
// position-independently and grafts onto any equivalent prefix), a
// deterministic scheduler and eviction draw (a skipped subtree must not
// leave per-scenario rng state behind), and no instrumentation/observer/
// replay hooks (those must see every execution). The recovery subtree is a
// function of exactly (persisted state, allocator high-water), both folded
// into the fingerprint, so equivalent states have isomorphic subtrees:
// identical choice structure, behaviours, bug manifestations, and step
// counts. Elision is gated only on observers: it stays active under witness
// replay so recorded choice vectors keep their shape.

// porElides reports whether a multi-candidate load byte can be resolved
// without a choice point because every candidate carries the same value.
func (c *Checker) porElides(cands []pmem.Candidate) bool {
	if c.opts.POR <= 0 || len(c.observers) > 0 {
		return false
	}
	v := cands[0].Val
	for _, cd := range cands[1:] {
		if cd.Val != v {
			return false
		}
	}
	return true
}

// porSeen is the per-run fingerprint seen-set, shared by every worker of a
// parallel exploration (newWorker aliases the coordinator's).
type porSeen struct {
	mu sync.RWMutex
	m  map[uint64]*porDelta
	// log records publication order, making the seen-set an append-only
	// publication log: distributed workers drain entries past a version
	// cursor and ship them to the coordinator, which republishes them to
	// other workers. Absorbing a foreign delta is safe even when its
	// publisher died mid-lease — a porDelta is a pure function of the
	// fingerprinted state, not of who explored it (the isomorphism argument
	// above), so deltas from abandoned leases stay valid.
	log []uint64
}

func newPorSeen() *porSeen { return &porSeen{m: make(map[uint64]*porDelta)} }

func (ps *porSeen) lookup(fp uint64) *porDelta {
	ps.mu.RLock()
	d := ps.m[fp]
	ps.mu.RUnlock()
	return d
}

// publish installs d for fp unless an equivalent delta got there first (two
// workers may race to explore equivalent subtrees; first wins, and the
// deltas are interchangeable by the isomorphism argument above).
func (ps *porSeen) publish(fp uint64, d *porDelta) {
	ps.mu.Lock()
	if _, ok := ps.m[fp]; !ok {
		ps.m[fp] = d
		ps.log = append(ps.log, fp)
	}
	ps.mu.Unlock()
}

// logLen returns the current publication-log version (entries published).
func (ps *porSeen) logLen() int {
	ps.mu.RLock()
	n := len(ps.log)
	ps.mu.RUnlock()
	return n
}

// entriesSince returns the entries published at log positions
// from..len(log), in publication order.
func (ps *porSeen) entriesSince(from int) []WirePorEntry {
	ps.mu.RLock()
	defer ps.mu.RUnlock()
	var out []WirePorEntry
	for _, fp := range ps.log[min(from, len(ps.log)):] {
		out = append(out, WirePorEntry{fp, ps.m[fp]})
	}
	return out
}

// failMemo is the per-failure-point memo the chooser carries alongside each
// chooseFail point (chooser.aux): the canonical fingerprint of the persisted
// state a crash at that point recovers from, plus the cost of reaching the
// point from its scenario's start. The fingerprint is computed at point
// creation, which is sound because the crash hook fires before the flush
// effect applies and teardown runs no further program operations — the state
// at creation time is byte-identical to the state any later crash at the
// same point sees. The prefix costs are likewise a pure function of the
// choice prefix (deterministic scheduler), so the memo stays valid for the
// point's whole backtracking lifetime.
type failMemo struct {
	fp    uint64
	steps int64                // prefix steps: scenario start -> failure point
	vec   *obs.CounterVec      // prefix canonical counters, cleared (nil: none observed)
	perf  map[string]PerfIssue // prefix perf findings
}

// porBug is one distinct bug of a recorded subtree: its manifestation count
// and the canonically smallest choice suffix (relative to the subtree root)
// that reaches it. Under MaxFailures == 1 the suffix holds only rf/evict
// points, whose rendering is position-independent, so the minimal suffix
// under the owner's prefix is the minimal suffix under any equivalent
// prefix — grafting preserves the canonical-representative rule.
type porBug struct {
	typ    BugType
	msg    string
	exec   int
	count  int
	rel    string // describeChoices(suffix), the canonical order key
	suffix []choicePoint
}

// porPerfDelta / porMultiDelta carry a subtree's perf-issue and flagged-load
// count deltas, with the owner's representative fields for first-seen keys.
type porPerfDelta struct {
	key   string
	count int
	issue PerfIssue
}

type porMultiDelta struct {
	key   string
	count int
	multi MultiRF
}

// porDelta is a published subtree record: everything a fingerprint hit must
// re-apply to stay bit-identical to exploring the subtree. Immutable once
// published.
type porDelta struct {
	scenarios int // subtree scenario count, including its root
	execs     int // post-failure executions
	steps     int64
	maxRF     int
	maxRel    int // deepest choice stack relative to the subtree root
	newPoints [3]int
	replayed  int64 // suffix replays: rawΔ − (K−1)·ownerRootDepth
	fresh     int64
	vec       obs.CounterVec // prefix-invariant canonical counter delta
	bugs      []porBug
	perf      []porPerfDelta
	multi     []porMultiDelta
}

// porRecord tracks an open (still-exploring) subtree.
type porRecord struct {
	fp        uint64
	rootDepth int // the subtree's prefix is Checker.porPrefix[:rootDepth]

	openVec      obs.CounterVec
	prefixVec    obs.CounterVec       // owner prefix contribution, cleared
	prefixPerf   map[string]PerfIssue // owner prefix perf findings
	openSteps    int64
	prefixSteps  int64
	openReplayed int64
	openFresh    int64
	baseScen     int
	baseExecs    int
	basePoints   [3]int
	basePerf     map[string]int
	baseMulti    map[string]int
	maxRel       int
	void         bool
	bugs         map[string]*porBug
}

// clearPrefixDependent zeroes the counters that a recorded delta — a snapshot
// entry's skipped prefix (snapshot.go) or a published subtree (porDelta) —
// must not replay through its vec, because whoever re-applies the delta
// accounts for them itself: per-scenario bookkeeping (Scenarios is counted
// per scenario regardless; Steps travels as a scalar beside the vec), the
// analytic choice counters (ChoicesReplayed is the skipped-prefix length,
// which differs from what the recording run counted as fresh), wall-clock
// phase timings, and the snapshot stack's and the POR layer's own counters.
func clearPrefixDependent(v *obs.CounterVec) {
	v.Clear(obs.Scenarios, obs.Steps,
		obs.PreFailureNs, obs.PostFailureNs, obs.ReplayNs,
		obs.ChoicesReplayed, obs.ChoicesFresh,
		obs.SnapshotCaptures, obs.SnapshotRestores, obs.SnapshotRestoreNs,
		obs.ScenariosPruned, obs.FingerprintHits, obs.FingerprintMisses,
		obs.ChoicesRestored, obs.ChoiceSnapCaptures, obs.ChoiceRestores,
		obs.ChoiceRestoreNs, obs.ReplayStepsSaved, obs.RefinementsSkipped,
		obs.ReplaySteps)
}

// porFpEligible reports whether post-failure state fingerprinting can run
// for this checker at all (see the soundness gates above).
func (c *Checker) porFpEligible() bool {
	return c.opts.POR > 0 &&
		c.porSeenSet != nil &&
		c.opts.MaxFailures == 1 &&
		c.prog.Recover != nil &&
		!c.opts.RandomScheduler &&
		c.snapshot == nil &&
		len(c.observers) == 0 &&
		c.wrec == nil &&
		!c.replaySegment
}

// porBeginScenario runs at the top of every scenario: it closes records the
// chooser has backtracked out of and latches the scenario baseline a later
// crash-point measurement is taken against.
func (c *Checker) porBeginScenario() {
	c.porSync()
	c.porFpActive = c.porFpEligible()
	if !c.porFpActive {
		return
	}
	// Sweep before latching the baselines: the deltas a pruned flip injects
	// must not leak into this scenario's own prefix measurements (nor into
	// the snapshot engine's, which latches after porBeginScenario returns).
	c.porPruneSweep()
	c.porScenBaseSteps = c.totalSteps
	c.porScenBase = c.col.Counters()
	if c.porScenPerf == nil {
		c.porScenPerf = make(map[string]int)
	}
	for k, p := range c.perfIssues {
		c.porScenPerf[k] = p.Count
	}
}

// perfSince returns the perf findings the current scenario has made since
// its start, counted per key: a prefix's share, which a hit or prune
// re-applies once per skipped scenario, like the prefix steps. It is nil only
// without FlagPerfIssues, so a memo decoded from a claim, which carries none
// until porMemoPerf completes it, is told apart.
func (c *Checker) perfSince() map[string]PerfIssue {
	if !c.opts.FlagPerfIssues {
		return nil
	}
	d := make(map[string]PerfIssue)
	for k, p := range c.perfIssues {
		if n := p.Count - c.porScenPerf[k]; n > 0 {
			d[k] = PerfIssue{Kind: p.Kind, Loc: p.Loc, Line: p.Line, Count: n}
		}
	}
	return d
}

// porStateFingerprint canonically fingerprints the current persisted state:
// line contents plus refinement intervals (rank-encoded so absolute sequence
// numbers cancel), salted with the allocator high-water mark and crash-stack
// depth — the exact inputs the recovery subtree is a function of.
func (c *Checker) porStateFingerprint() uint64 {
	var t0 time.Time
	if c.col != nil {
		t0 = time.Now()
	}
	h := pmem.FingerprintSeed
	h = (h ^ uint64(c.alloc.HighWater())) * 0x100000001b3
	h = (h ^ uint64(c.stack.Depth())) * 0x100000001b3
	fp := c.stack.Fingerprint(h)
	if c.col != nil {
		c.col.Observe(obs.TimerFingerprint, time.Since(t0).Nanoseconds())
	}
	return fp
}

// porNoteFailPoint memoizes a freshly created failure decision point (called
// from BeforeFlushEffect right after the point is appended): crash-state
// fingerprint plus the prefix cost every scenario of the point's crash
// subtree would pay to reach it. porPruneSweep consults the memo at later
// scenario starts.
func (c *Checker) porNoteFailPoint() {
	if !c.porFpActive {
		return
	}
	m := &failMemo{
		fp:    c.porStateFingerprint(),
		steps: c.totalSteps - c.porScenBaseSteps,
		perf:  c.perfSince(),
	}
	if c.col != nil {
		vec := c.col.Counters().Diff(c.porScenBase)
		clearPrefixDependent(&vec)
		m.vec = &vec
	}
	c.chooser.aux[c.chooser.cursor-1] = m
}

// porMemoPerf completes a memo decoded from a claim, which carries no perf
// findings, when the claim's prefix is replayed through its point: the
// findings since the scenario start are its prefix share. The memo may be
// shared with other choosers, so the point gets a completed copy.
func (c *Checker) porMemoPerf() {
	i := c.chooser.cursor - 1
	if m := c.chooser.aux[i]; m != nil && m.perf == nil && c.opts.FlagPerfIssues {
		cp := *m
		cp.perf = c.perfSince()
		c.chooser.aux[i] = &cp
	}
}

// porPruneSweep clamps failure decisions whose crash subtree is already
// proven equivalent to an explored one: a fail point still on its continue
// option whose memoized fingerprint has a published delta gets its
// exploration limit lowered to 1, so advance never flips it and split
// never donates it — the subtree's K scenarios are accounted analytically
// without running a single one. This is what turns a fingerprint hit from a
// "cheap scenario" (crash-time hits still pay one prefix replay each) into
// no scenario at all. The sweep runs between subtrees only: with a record
// open, applying a foreign subtree's delta would contaminate the record's
// close-time diff. Nothing is lost by waiting — depth-first order reaches a
// clampable flip only after every record covering it has closed.
func (c *Checker) porPruneSweep() {
	if len(c.porOpen) != 0 {
		return
	}
	ch := c.chooser
	for i := range ch.points {
		if ch.points[i].kind != chooseFail || ch.points[i].idx != 0 || ch.limit[i] != 2 {
			continue
		}
		m := ch.aux[i]
		if m == nil || c.opts.FlagPerfIssues && m.perf == nil { // off the wire, its prefix not yet replayed
			continue
		}
		d := c.porSeenSet.lookup(m.fp)
		if d == nil {
			continue
		}
		// A clamp rewrites the subtree below point i out of the schedule.
		// The snapshot stack needs no maintenance for it: an entry is only
		// ever restored under a vector it prefixes (usableSnapshot), and no
		// vector takes the excised branch once advance cannot flip into it.
		ch.limit[i] = 1
		if c.porFPHook != nil {
			c.porFPHook(m.fp, true)
		}
		c.porApply(d, int64(d.scenarios), i+1, m.steps, m.vec, m.perf, true)
	}
}

// porSync closes (publishes) every open record whose subtree the chooser has
// left. Records nest by prefix, deepest last, so the scan stops at the first
// record the current choice vector still extends. Callers have already
// counted the scenario being started, which is not part of any closing
// subtree.
func (c *Checker) porSync() {
	pts := c.chooser.points
	for i := len(c.porOpen) - 1; i >= 0; i-- {
		r := c.porOpen[i]
		if r.rootDepth <= len(pts) && slices.Equal(c.porPrefix[:r.rootDepth], pts[:r.rootDepth]) {
			break
		}
		c.porClose(r, true)
		c.porDrop(i)
	}
}

// porDrop cuts the record stack down to its n shallowest records, and the
// shared prefix with it.
func (c *Checker) porDrop(n int) {
	clear(c.porOpen[n:])
	c.porOpen = c.porOpen[:n]
	depth := 0
	if n > 0 {
		depth = c.porOpen[n-1].rootDepth
	}
	c.porPrefix = c.porPrefix[:depth]
}

// porFlush closes every open record — the exploration (or claimed branch)
// ran its subtree to completion.
func (c *Checker) porFlush() {
	for i := len(c.porOpen) - 1; i >= 0; i-- {
		c.porClose(c.porOpen[i], false)
	}
	c.porDrop(0)
}

// porAbandon voids and drops every open record (a cap truncated the subtree,
// or an engine panic made its statistics unreliable).
func (c *Checker) porAbandon() { c.porDrop(0) }

// porCancelBelow voids open records whose subtree a donation carved work out
// of: a record rooted at or above the donated point no longer covers its
// whole subtree locally, so its delta must not be published. splitDepth is
// the length of the donated branch prefixes (donation point depth + 1).
func (c *Checker) porCancelBelow(splitDepth int) {
	for _, r := range c.porOpen {
		if r.rootDepth < splitDepth {
			r.void = true
		}
	}
}

// porNoteDepth records a finished scenario's choice-stack depth into every
// open record (for the PeakChoiceDepth a hit must re-apply).
func (c *Checker) porNoteDepth(depth int) {
	for _, r := range c.porOpen {
		if rel := depth - r.rootDepth; rel > r.maxRel {
			r.maxRel = rel
		}
	}
}

// porCrashCheck runs once per scenario at the moment a failure is committed
// (crash injected, or the mandatory end-of-run failure) and before any
// recovery executes. On a fingerprint hit it re-applies the recorded subtree
// delta and reports true: the caller skips the recovery loop entirely.
func (c *Checker) porCrashCheck() bool {
	if !c.porFpActive {
		return false
	}
	ch := c.chooser
	if ch.cursor != len(ch.points) {
		// Recorded points lie beyond the cursor: this crash subtree is
		// already being explored; only first visits consult the seen-set.
		return false
	}
	var fp uint64
	if n := ch.cursor; n > 0 && ch.points[n-1].kind == chooseFail &&
		ch.points[n-1].idx == 1 && ch.aux[n-1] != nil {
		// Crash committed at a memoized failure point: the creation-time
		// fingerprint is the crash-state fingerprint (the hook fires before
		// the flush effect, and teardown runs no further operations).
		fp = ch.aux[n-1].fp
	} else {
		fp = c.porStateFingerprint()
	}
	d := c.porSeenSet.lookup(fp)
	if c.porFPHook != nil {
		c.porFPHook(fp, d != nil)
	}
	if d != nil {
		c.porApplyHit(d)
		return true
	}
	c.col.Inc(obs.FingerprintMisses)
	c.porOpenRecord(fp)
	return false
}

// porOpenRecord opens a subtree record at a first-visit crash point,
// measuring the owner scenario's own prefix contribution. Every record still
// open is a prefix of the current vector (porSync ran at scenario start), so
// porPrefix already holds the decisions up to the record below; this one adds
// the decisions since.
func (c *Checker) porOpenRecord(fp uint64) {
	c.foldChooserStats()
	c.porPrefix = append(c.porPrefix, c.chooser.points[len(c.porPrefix):c.chooser.cursor]...)
	r := &porRecord{
		fp:          fp,
		rootDepth:   c.chooser.cursor,
		openSteps:   c.totalSteps,
		prefixSteps: c.totalSteps - c.porScenBaseSteps,
		baseScen:    c.scenarios - 1, // exclude the root scenario: the delta includes it
		baseExecs:   c.execsPost,
		basePoints:  c.newPoints,
		prefixPerf:  c.perfSince(),
	}
	if c.col != nil {
		r.openVec = c.col.Counters()
		r.openReplayed = r.openVec[obs.ChoicesReplayed]
		r.openFresh = r.openVec[obs.ChoicesFresh]
		r.prefixVec = r.openVec.Diff(c.porScenBase)
		clearPrefixDependent(&r.prefixVec)
	}
	if len(c.perfIssues) > 0 {
		r.basePerf = make(map[string]int, len(c.perfIssues))
		for k, p := range c.perfIssues {
			r.basePerf[k] = p.Count
		}
	}
	if len(c.multiRF) > 0 {
		r.baseMulti = make(map[string]int, len(c.multiRF))
		for k, m := range c.multiRF {
			r.baseMulti[k] = m.Count
		}
	}
	c.porOpen = append(c.porOpen, r)
}

// porNoteBug records a bug manifestation into every open record, keeping the
// canonically smallest (suffix render, execution) pair as the representative
// — the same rule recordBug and the parallel merge apply globally.
func (c *Checker) porNoteBug(typ BugType, msg string, exec int) {
	for _, r := range c.porOpen {
		if r.void {
			continue
		}
		suffix := c.chooser.points[r.rootDepth:]
		rel := describeChoices(suffix)
		key := (&BugReport{Type: typ, Message: msg}).key()
		if r.bugs == nil {
			r.bugs = make(map[string]*porBug)
		}
		pb, ok := r.bugs[key]
		if !ok {
			pb = &porBug{typ: typ, msg: msg}
			r.bugs[key] = pb
		}
		pb.count++
		if !ok || rel < pb.rel || (rel == pb.rel && exec < pb.exec) {
			pb.rel = rel
			pb.exec = exec
			pb.suffix = append(pb.suffix[:0], suffix...)
		}
	}
}

// porClose publishes a finished record as a porDelta (unless voided).
func (c *Checker) porClose(r *porRecord, currentCounted bool) {
	if r.void || c.porSeenSet == nil {
		return
	}
	c.foldChooserStats()
	scen := c.scenarios - r.baseScen
	if currentCounted {
		scen--
	}
	if scen < 1 {
		return // nothing ran under the record; do not publish
	}
	k1 := int64(scen - 1)
	d := &porDelta{
		scenarios: scen,
		execs:     c.execsPost - r.baseExecs,
		steps:     c.totalSteps - r.openSteps - k1*r.prefixSteps,
		maxRF:     c.maxRF,
		maxRel:    r.maxRel,
	}
	for k := range d.newPoints {
		d.newPoints[k] = c.newPoints[k] - r.basePoints[k]
	}
	if c.col != nil {
		cur := c.col.Counters()
		d.replayed = cur[obs.ChoicesReplayed] - r.openReplayed - k1*int64(r.rootDepth)
		d.fresh = cur[obs.ChoicesFresh] - r.openFresh
		vec := cur.Diff(r.openVec)
		clearPrefixDependent(&vec)
		for k := range vec {
			vec[k] -= k1 * r.prefixVec[k]
		}
		d.vec = vec
	}
	for _, pb := range r.bugs {
		d.bugs = append(d.bugs, *pb)
	}
	sortPorBugs(d.bugs)
	for key, p := range c.perfIssues {
		if n := p.Count - r.basePerf[key] - int(k1)*r.prefixPerf[key].Count; n > 0 {
			d.perf = append(d.perf, porPerfDelta{key: key, count: n, issue: *p})
		}
	}
	for key, m := range c.multiRF {
		if n := m.Count - r.baseMulti[key]; n > 0 {
			cm := *m
			cm.Values = append([]string(nil), m.Values...)
			d.multi = append(d.multi, porMultiDelta{key: key, count: n, multi: cm})
		}
	}
	c.porSeenSet.publish(r.fp, d)
}

// sortPorBugs orders a delta's bugs deterministically (map iteration order
// must not leak into published records).
func sortPorBugs(bugs []porBug) {
	for i := 1; i < len(bugs); i++ {
		for j := i; j > 0 && porBugLess(&bugs[j], &bugs[j-1]); j-- {
			bugs[j], bugs[j-1] = bugs[j-1], bugs[j]
		}
	}
}

func porBugLess(a, b *porBug) bool {
	if a.rel != b.rel {
		return a.rel < b.rel
	}
	if a.typ != b.typ {
		return a.typ < b.typ
	}
	return a.msg < b.msg
}

// porApplyHit re-applies a recorded subtree delta at an equivalent crash
// point: the K−1 remaining scenarios are accounted without running, and the
// hit scenario's own recovery is replaced by the owner root's recorded
// contribution (K == 1 hits still skip one recovery re-execution). The hit
// scenario itself already ran (and counted) its prefix live, so only the
// K−1 skipped siblings multiply the prefix costs.
func (c *Checker) porApplyHit(d *porDelta) {
	hitPrefixSteps := c.totalSteps - c.porScenBaseSteps
	var hitPrefix obs.CounterVec
	if c.col != nil {
		hitPrefix = c.col.Counters().Diff(c.porScenBase)
		clearPrefixDependent(&hitPrefix)
	}
	c.porApply(d, int64(d.scenarios-1), c.chooser.cursor, hitPrefixSteps, &hitPrefix, c.perfSince(), false)
}

// porApply accounts a recorded subtree delta without running the subtree:
// k skipped scenarios, each paying prefixSteps/prefixVec (nil: no counters)
// to reach the subtree root at choice depth hitDepth, plus the prefix-invariant recovery
// part recorded in d. Crash-time hits pass k = K−1 (the hit scenario is
// physical and measured live); sweep prunes pass k = K with the memoized
// prefix (no scenario of the subtree ever runs). flip marks grafted bug
// prefixes as taking the failure branch at hitDepth−1, where the live
// chooser stays on the continue branch.
func (c *Checker) porApply(d *porDelta, k int64, hitDepth int, prefixSteps int64, prefixVec *obs.CounterVec,
	prefixPerf map[string]PerfIssue, flip bool) {
	c.scenarios += int(k)
	c.execsPost += d.execs
	stepsApplied := d.steps + k*prefixSteps
	c.totalSteps += stepsApplied
	if d.maxRF > c.maxRF {
		c.maxRF = d.maxRF
	}
	for kind, n := range d.newPoints {
		c.newPoints[kind] += n
	}
	for i := range d.bugs {
		c.porGraftBug(&d.bugs[i], hitDepth, flip)
	}
	for i := range d.perf {
		cp := d.perf[i].issue
		cp.Count = d.perf[i].count
		c.stats.mergePerfIssue(d.perf[i].key, &cp)
	}
	for key, p := range prefixPerf {
		if p.Count *= int(k); p.Count > 0 {
			c.stats.mergePerfIssue(key, &p)
		}
	}
	for i := range d.multi {
		md := &d.multi[i]
		cm := md.multi
		cm.Count = md.count
		cm.Values = append([]string(nil), md.multi.Values...)
		c.stats.mergeMultiRF(md.key, &cm)
	}
	if c.col != nil {
		vec := d.vec
		if prefixVec != nil {
			for key := range vec {
				vec[key] += k * prefixVec[key]
			}
		}
		c.col.AddCounters(vec)
		c.col.Add(obs.Steps, stepsApplied)
		c.col.Add(obs.Scenarios, k)
		c.col.Add(obs.ChoicesReplayed, d.replayed+k*int64(hitDepth))
		c.col.Add(obs.ChoicesFresh, d.fresh)
		c.col.NotePeak(obs.PeakChoiceDepth, int64(hitDepth+d.maxRel))
		c.col.NotePeak(obs.PeakRFCandidates, int64(d.maxRF))
		c.col.Add(obs.ScenariosPruned, k)
		c.col.Inc(obs.FingerprintHits)
	}
}

// porGraftBug merges a recorded subtree bug into the live bug index under
// the hit scenario's prefix: the grafted replay vector (hit prefix + owner
// suffix) is a valid reproduction, since equivalent subtrees present
// identical choice structure. With flip set, the prefix's final point — a
// fail decision the live chooser keeps on continue — is rewritten to the
// failure branch the recorded subtree hangs off.
func (c *Checker) porGraftBug(pb *porBug, hitDepth int, flip bool) {
	pts := make([]choicePoint, 0, hitDepth+len(pb.suffix))
	pts = append(pts, c.chooser.points[:hitDepth]...)
	if flip {
		pts[hitDepth-1].idx = 1
	}
	pts = append(pts, pb.suffix...)
	b := &BugReport{
		Type:      pb.typ,
		Message:   pb.msg,
		Execution: pb.exec,
		Scenario:  c.scenarios - 1,
		Count:     pb.count,
		Choices:   describeChoices(pts),
		replay:    pts,
	}
	c.addBug(b)
}
