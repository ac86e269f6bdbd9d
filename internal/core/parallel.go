package core

import (
	"sync"

	"jaaru/internal/obs"
)

// The exploration driver. A branch of the choice tree is fully named by its
// prefix of recorded decisions, so disjoint prefixes explore anywhere
// without talking mid-scenario, and a claimed prefix replays exactly the
// decisions a serial run makes to reach it. Every run is a set of claimants
// of one Frontier (claims, hunger, caps, completion): a serial Run is its
// own only claimant, Workers > 1 are goroutines in process, and a fleet is
// worker processes behind internal/dist. All of them share the one claim
// loop (exploreClaim), the one guard that turns an engine panic into a
// BugEngine (runScenarioGuarded) and the one order-insensitive merge
// (stats.merge, finished by buildResult's canonical sorts), so a full
// exploration merges to the same Result under every driver.

// WireClaim is one claim, in the form chooser.seedClaim installs: a choice
// vector, the per-point limits of the sibling options that come with it (nil:
// none, every point frozen) and the POR memos of its failure decisions. The
// claimant replays the vector and owns everything the limits cover (minus
// anything it later donates back). The memos are shared with the donor's
// chooser and immutable. The zero value is the root claim, the whole tree.
// In process claims move between workers as they are; a fleet ships them in
// the wire codec (wirev2.go), whose decoder accepts only well-formed claims:
// Idx < limit <= N at every point, memos on failure decisions only.
type WireClaim struct {
	points []choicePoint
	limits []int
	memos  []*failMemo
}

// claimSink is the claim loop's view of whoever handed the claim out: the
// Frontier itself in process, a leaseRun in a fleet worker.
type claimSink interface {
	// admit reports whether one more scenario may run.
	admit() bool
	// ran reports a finished scenario's newly recorded distinct bugs; false
	// ends the claim.
	ran(bugs []*BugReport) bool
	// Hungry reports whether a donation is wanted now.
	Hungry() bool
	// donate hands off a claim split from the current one.
	donate(br WireClaim)
	// advanced follows every advance; more is false once the claim is
	// exhausted (its POR records already flushed).
	advanced(more bool) error
}

// exploreClaim is the one claim loop: it replays br's vector and runs the
// options its limits cover depth-first, donating half of what is still open
// for as long as s is hungry. An engine panic abandons the claim (the
// replayed subtree is unreliable; recordEngineBug marked the stats
// truncated), as does a refused admission or an error from s.
func (c *Checker) exploreClaim(br WireClaim, s claimSink) error {
	c.chooser.seedClaim(br.points, br.limits, br.memos)
	for {
		if !s.admit() {
			c.porAbandon()
			return nil
		}
		c.scenarios++
		prevBugs := len(c.bugs)
		ok := c.runScenarioGuarded()
		if more := s.ran(c.bugs[prevBugs:]); !ok {
			return nil
		} else if !more {
			c.porAbandon()
			return nil
		}
		for s.Hungry() {
			don, ok := c.chooser.split()
			if !ok {
				break
			}
			// A record rooted at or above the deepest donated point no longer
			// covers its whole subtree locally; its delta must not be published.
			c.porCancelBelow(len(don.points))
			s.donate(don)
		}
		more := c.chooser.advance()
		if !more {
			c.porFlush()
		}
		if err := s.advanced(more); err != nil {
			c.porAbandon()
			return err
		}
		if !more {
			return nil
		}
	}
}

// runScenarioGuarded runs one scenario, converting an internal engine panic
// into a reported BugEngine carrying the scenario's choice vector instead of
// crashing the exploration, and reports whether none was raised. It is the only such
// guard: every scenario but Replay's runs through it — exploration under
// every driver, BugReport.Trace, BuildWitness and minimizer trials. The
// guest boundary (runSegment, the Spawn trampoline) has already turned
// guest faults, guest panics and injected crashes into outcomes; anything
// else raised outside it (a genuine checker bug) still propagates.
func (c *Checker) runScenarioGuarded() (ok bool) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		e, isEngine := r.(engineError)
		if !isEngine {
			panic(r)
		}
		// The panic may have left the shared scenario stack mid-mutation;
		// disarm any in-flight fast-forward replay, discard any snapshots
		// referencing the stack so the next claim starts from a clean full
		// run, and void any open subtree records — their statistics are
		// unreliable.
		c.ffwd = ffwdState{}
		c.truncateSnaps(0)
		c.porAbandon()
		c.recordEngineBug(e)
	}()
	c.runScenario()
	return true
}

// ---- Frontier ---------------------------------------------------------------

// Frontier holds one exploration's open claims and the rules around them.
// In process, its claimants — the running Checker alone, or worker
// goroutines — take, donate and report through it directly; internal/dist's
// coordinator keeps one per job and hands its decoded claims and stats
// straight through. All methods are safe for concurrent use.
type Frontier struct {
	mu   sync.Mutex
	cond *sync.Cond // wakes next: a claim queued, the exploration stopped or over
	wake func()     // the owner's hook for the same events but a stop (nil in process)
	acc  *MergeAcc
	reg  *obs.Registry

	queue   []WireClaim         // LIFO: the newest donation is handed out first
	out     int                 // claims taken and not yet retired
	waiting map[string]struct{} // claimants whose last take found nothing

	// The cap rule: one scenario counter against MaxScenarios (admitted
	// scenarios in process, committed ones in a fleet) and one set of distinct
	// canonical bug keys against MaxBugs and StopAtFirstBug.
	scenarios int
	bugKeys   map[string]struct{}
	stopped   bool // a cap fired: nothing more is handed out or admitted

	workers []*Checker // in-process workers; their stats merge at completion
	result  *Result    // the merged result, set once the exploration is over
}

// NewFrontier starts a partitioned exploration whose stats merge into acc,
// with the root claim — the whole tree — queued. wake, when non-nil, is
// called under the Frontier's lock whenever a claim is queued or the
// exploration ends (the coordinator releases its parked lease requests).
func NewFrontier(acc *MergeAcc, wake func()) *Frontier {
	f := &Frontier{
		acc:     acc,
		reg:     acc.ck.reg,
		wake:    wake,
		waiting: make(map[string]struct{}),
		bugKeys: make(map[string]struct{}),
	}
	f.cond = sync.NewCond(&f.mu)
	f.mu.Lock()
	f.pushLocked(WireClaim{})
	f.mu.Unlock()
	return f
}

func (f *Frontier) changedLocked() {
	f.cond.Broadcast()
	if f.wake != nil {
		f.wake()
	}
}

// pushLocked queues claims and reports whether it did: after a stop or the
// end nothing is queued, since nothing would ever hand it out.
func (f *Frontier) pushLocked(brs ...WireClaim) bool {
	if f.stopped || f.result != nil || len(brs) == 0 {
		return false
	}
	f.queue = append(f.queue, brs...)
	f.reg.NotePush(len(brs), len(f.queue))
	f.reg.Emit("frontier_push", "n", len(brs), "depth", len(f.queue))
	f.changedLocked()
	return true
}

// takeLocked hands waiter the newest claim, or marks it waiting.
func (f *Frontier) takeLocked(waiter string) (WireClaim, bool) {
	n := len(f.queue)
	if f.stopped || n == 0 {
		if waiter != "" && f.result == nil {
			f.waiting[waiter] = struct{}{}
		}
		return WireClaim{}, false
	}
	br := f.queue[n-1]
	f.queue = f.queue[:n-1]
	f.out++
	delete(f.waiting, waiter)
	f.reg.NoteClaim(n - 1)
	f.reg.Emit("frontier_claim", "prefix", len(br.points), "depth", n-1)
	return br, true
}

// next takes a claim for an in-process worker, blocking while the queue is
// empty but claims are still out: their holders may yet donate. It reports
// false once the exploration stopped or the tree is exhausted.
//
// Liveness (small trees at high worker counts): a blocked next is woken by a
// push, by the retire that ends the exploration, and by a stop. The holder of
// the last claim either donates (a push) or retires it, so no wait outlives
// the last claim, whatever the tree size (TestParallelSmallTreeManyWorkers).
func (f *Frontier) next(waiter string) (WireClaim, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		if br, ok := f.takeLocked(waiter); ok {
			return br, true
		}
		if f.stopped || f.out == 0 {
			return WireClaim{}, false
		}
		f.cond.Wait()
	}
}

// retireLocked ends a taken claim, requeueing residuals (the unexplored rest
// of a released or expired lease) unless a cap stopped the exploration.
func (f *Frontier) retireLocked(residuals []WireClaim) (requeued bool) {
	requeued = f.pushLocked(residuals...)
	f.out--
	f.finishLocked()
	return requeued
}

// finishLocked ends the exploration once no claim is out and the queue is
// empty or a cap fired: the in-process workers' stats merge (none of them
// holds a claim, so none is exploring) and the Result is built.
func (f *Frontier) finishLocked() {
	if f.result != nil || f.out > 0 || (!f.stopped && len(f.queue) > 0) {
		return
	}
	f.queue = nil
	for _, w := range f.workers {
		w.foldChooserStats()
		f.acc.ck.stats.merge(&w.stats)
	}
	f.result = f.acc.BuildResult(!f.stopped)
	f.changedLocked()
}

func (f *Frontier) stopLocked() {
	if !f.stopped {
		f.stopped = true
		f.cond.Broadcast()
		f.finishLocked()
	}
}

// countLocked adds n scenarios to the one counter. Reaching MaxScenarios
// stops the exploration; the scenario that reaches it still counts.
func (f *Frontier) countLocked(n int) {
	f.scenarios += n
	if f.scenarios >= f.acc.ck.opts.MaxScenarios {
		f.stopLocked()
	}
}

// noteBugLocked counts one canonical bug key against the bug caps. Dedup
// comes first: the same bug reported by two workers, or twice in one commit
// window, counts once toward MaxBugs and fires StopAtFirstBug once.
func (f *Frontier) noteBugLocked(key string) {
	if _, ok := f.bugKeys[key]; ok {
		return
	}
	f.bugKeys[key] = struct{}{}
	if o := &f.acc.ck.opts; o.StopAtFirstBug || len(f.bugKeys) >= o.MaxBugs {
		f.stopLocked()
	}
}

// admit reserves one scenario for an in-process worker.
func (f *Frontier) admit() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.stopped {
		return false
	}
	f.countLocked(1)
	return true
}

func (f *Frontier) ran(bugs []*BugReport) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, b := range bugs {
		f.noteBugLocked(b.key())
	}
	return !f.stopped
}

// Hungry is the one hunger rule: a claimant waits and the queue cannot feed
// it. A donation is half the donor's open work, so anything more eager (a
// watermark) only halves the donor again.
func (f *Frontier) Hungry() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return !f.stopped && f.result == nil && len(f.queue) < len(f.waiting)
}

func (f *Frontier) donate(br WireClaim) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.donateLocked(br)
}

func (f *Frontier) donateLocked(brs ...WireClaim) {
	if f.pushLocked(brs...) {
		f.reg.NoteDonation(len(brs))
	}
}

func (f *Frontier) advanced(bool) error { return nil }

// Take hands waiter the newest queued claim, or marks waiter waiting (ok
// false) — a waiting claimant is what makes the Frontier hungry.
func (f *Frontier) Take(waiter string) (WireClaim, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.takeLocked(waiter)
}

// Unwait forgets a waiting claimant (it hung up, or another job fed it).
func (f *Frontier) Unwait(waiter string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.waiting, waiter)
}

// Commit folds in one lease commit, whose delta and claims were checked when
// they decoded: the stats delta goes into the merge and the cap rule (its
// scenarios count against MaxScenarios, its bug keys — a delta carries a bug
// exactly when its count grew, every first sighting included — against the
// bug caps), the splits onto the queue, and a final commit retires the claim
// as Retire does, reporting whether its residuals were requeued.
func (f *Frontier) Commit(delta *WireStats, splits, residuals []WireClaim, final bool) (requeued bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.acc.Absorb(delta)
	f.countLocked(delta.scenarios)
	for _, b := range delta.bugs {
		f.noteBugLocked(b.key())
	}
	f.donateLocked(splits...)
	if !final {
		return false
	}
	return f.retireLocked(residuals)
}

// Retire ends a taken claim. Residuals — the unexplored rest of a released or
// expired lease — go back on the queue unless a cap stopped the exploration;
// Retire reports whether they did.
func (f *Frontier) Retire(residuals []WireClaim) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.retireLocked(residuals)
}

// Stopped reports whether a cap ended the exploration early.
func (f *Frontier) Stopped() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stopped
}

// Result returns the merged Result once the exploration is over — every
// claim retired, and the queue empty or a cap fired — and nil before.
func (f *Frontier) Result() *Result {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.result
}

// Progress reports the live counts a status view shows: scenarios counted
// against the cap, post-failure executions merged, distinct bugs and queued
// claims.
func (f *Frontier) Progress() (scenarios, execs int64, bugs int, queued int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return int64(f.scenarios), int64(f.acc.ck.execsPost), len(f.bugKeys), int64(len(f.queue))
}

// serve runs w's claim loop over the claims f hands out, under the name
// waiter, until the exploration stops or the tree is exhausted.
func (f *Frontier) serve(w *Checker, waiter string) {
	for br, ok := f.next(waiter); ok; br, ok = f.next(waiter) {
		w.exploreClaim(br, f) // the Frontier's advanced never fails
		f.Retire(nil)
	}
}

// newWorker builds a private Checker sharing this checker's program and
// options (already normalized; withDefaults is idempotent, so New's
// re-normalization is a no-op — disabled features stay disabled). Workers
// do not build private registries: they record into fresh shards of the
// coordinator's registry, so the merged metrics cover the whole run.
func (c *Checker) newWorker(id int) *Checker {
	o := c.opts
	o.Observe = false
	o.EventTrace = nil
	w := New(c.prog, o)
	// Workers share the coordinator's fingerprint seen-set: a subtree
	// explored by one worker prunes equivalent crash states everywhere.
	w.porSeenSet = c.porSeenSet
	w.porFPHook = c.porFPHook
	if c.reg != nil {
		w.attachObs(c.reg, c.reg.NewShard(), id)
	}
	return w
}

// ---- Deterministic merge ---------------------------------------------------

// merge folds a worker's stats into the aggregate. Every operation is
// order-insensitive (sum, max, keyed union with canonical representative
// selection), so the merged outcome does not depend on worker arrival
// order; buildResult's canonical sorts finish the job. Findings are merged
// as copies, so src is left untouched: a coordinator may absorb the same
// delta object again, and a snapshot merged out of a live checker does not
// move with it.
func (dst *stats) merge(src *stats) {
	dst.scenarios += src.scenarios
	dst.execsPost += src.execsPost
	dst.totalSteps += src.totalSteps
	if src.fpointsPre > dst.fpointsPre {
		dst.fpointsPre = src.fpointsPre
	}
	if src.maxRF > dst.maxRF {
		dst.maxRF = src.maxRF
	}
	dst.truncated = dst.truncated || src.truncated
	for k, n := range src.newPoints {
		dst.newPoints[k] += n
	}
	for _, b := range src.bugs {
		cb := *b
		dst.mergeBug(&cb)
	}
	for k, m := range src.multiRF {
		cm := *m
		dst.mergeMultiRF(k, &cm)
	}
	for k, p := range src.perfIssues {
		cp := *p
		dst.mergePerfIssue(k, &cp)
	}
}

// mergeBug unions a bug report into the aggregate: counts sum; of the
// reports sharing a key, the canonically smallest (by choice description,
// then execution index) becomes the representative, so the surviving
// Choices and replay vector (and with them the trace a replay yields) do not
// depend on which worker reported first.
func (dst *stats) mergeBug(b *BugReport) {
	ex, ok := dst.bugIndex[b.key()]
	if !ok {
		dst.bugIndex[b.key()] = b
		dst.bugs = append(dst.bugs, b)
		return
	}
	total := ex.Count + b.Count
	if b.Choices < ex.Choices || (b.Choices == ex.Choices && b.Execution < ex.Execution) {
		*ex = *b
	}
	ex.Count = total
}

// mergeMultiRF unions a flagged load: counts sum, candidate maxima win, and
// the example comes from the representative that outranks the other.
func (dst *stats) mergeMultiRF(key string, m *MultiRF) {
	ex, ok := dst.multiRF[key]
	if !ok {
		dst.multiRF[key] = m
		return
	}
	if ex.outranks(m.Candidates, m.Values, m.Addr) {
		ex.Values = m.Values
		ex.Addr = m.Addr
	}
	if m.Candidates > ex.Candidates {
		ex.Candidates = m.Candidates
	}
	ex.Count += m.Count
}

// mergePerfIssue unions a performance finding: counts sum, and the smallest
// affected line is the reported example — the rule recordPerfIssue applies
// within one worker, independent of arrival order.
func (dst *stats) mergePerfIssue(key string, p *PerfIssue) {
	if ex, ok := dst.perfIssues[key]; ok {
		ex.Count += p.Count
		if p.Line < ex.Line {
			ex.Line = p.Line
		}
		return
	}
	dst.perfIssues[key] = p
}
