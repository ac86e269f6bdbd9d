package core

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"jaaru/internal/obs"
)

// Parallel state-space exploration.
//
// Stateless model checking is embarrassingly parallel once every source of
// nondeterminism is captured in a replayable choice stack: any branch of
// the choice tree is fully identified by its prefix of recorded decisions,
// and two workers exploring disjoint prefixes never need to communicate
// mid-scenario. The driver here exploits that:
//
//   - A coordinator owns a frontier of unexplored claims (choice vectors
//     with per-point exploration limits). It starts with the root (empty)
//     claim: the whole tree.
//   - N workers each own a private Checker — allocator, execution stack,
//     scheduler, chooser — and repeatedly take a claim, replay its vector,
//     and run the options it covers depth-first.
//   - Whenever a worker waits on a frontier that cannot feed it, a busy
//     worker donates the shallow half of its unvisited sibling options as
//     one claim (chooser.split), lowering its local exploration limits so
//     the donated options are explored exactly once, by their claimant.
//   - Global caps (MaxScenarios, MaxBugs, StopAtFirstBug) are enforced
//     with a shared admission counter and a cooperative stop flag.
//
// Determinism: a claimed prefix replays exactly the decisions a serial
// exploration would have replayed to reach the same branch, so per-branch
// observables (bugs, recovery executions, newly discovered choice points,
// candidate-set sizes) are identical to the serial run; the merge is over
// order-insensitive aggregates (sums, maxima, keyed dedup with canonical
// representative selection) followed by a canonical sort. A full parallel
// exploration therefore produces the same Result as Workers=1, which is the
// reference semantics.

// branch is one frontier item, in the form chooser.seedClaim installs: a
// choice vector, the per-point limits of the sibling options that come with
// it (nil: none, every point frozen) and the POR memos of its failure
// decisions. The claimant replays the vector and owns everything the limits
// cover (minus anything it later donates back). The memos are shared with the
// donor's chooser and immutable.
type branch struct {
	points []choicePoint
	limits []int
	memos  []*failMemo
}

// frontier is the shared queue of unexplored branches. pending counts
// branches that are queued or actively being explored; when it reaches zero
// the whole tree has been explored and every popper is released.
type frontier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	items   []branch
	pending int
	waiting int // poppers blocked in pop
	stopped bool

	// reg receives frontier traffic counters and events (nil when the
	// exploration is not observed).
	reg *obs.Registry
}

func newFrontier(reg *obs.Registry) *frontier {
	f := &frontier{reg: reg}
	f.cond = sync.NewCond(&f.mu)
	return f
}

// push publishes a branch and accounts for it as pending work. A branch
// pushed after a stop is dropped: pop would never hand it out, and counting
// it as pending would leave the frontier unable to report the tree as drained
// (pending can otherwise never return to zero).
func (f *frontier) push(br branch) {
	f.mu.Lock()
	if f.stopped {
		f.mu.Unlock()
		return
	}
	f.items = append(f.items, br)
	f.pending++
	depth := len(f.items)
	f.mu.Unlock()
	f.cond.Broadcast()
	f.reg.NotePush(1, depth)
	f.reg.Emit("frontier_push", "n", 1, "depth", depth)
}

// pop claims a branch, blocking while the queue is empty but other workers
// still hold claims that may yet donate work. It returns false when
// exploration is over: the tree is exhausted or a stop was requested.
//
// Liveness audit (small trees at high worker counts): a blocked popper is
// woken by exactly three events — push (new work), finish reaching
// pending == 0 (tree drained), and stop. The worker holding the last
// unsplit branch either donates (push wakes the waiters) or retires the
// claim via finish; since finish broadcasts precisely when pending hits
// zero, the queue-empty/pending-positive wait can never outlive the last
// claim, whatever the tree size. The waiting count only solicits donations
// (hungry): a 2-scenario tree under Workers=8 keeps seven workers parked until
// the single holder donates its one sibling or drains the tree (see
// TestParallelSmallTreeManyWorkers).
func (f *frontier) pop() (branch, bool) {
	f.mu.Lock()
	for {
		if f.stopped {
			f.mu.Unlock()
			return branch{}, false
		}
		if n := len(f.items); n > 0 {
			br := f.items[n-1]
			f.items = f.items[:n-1]
			f.mu.Unlock()
			f.reg.NoteClaim(n - 1)
			f.reg.Emit("frontier_claim", "prefix", len(br.points), "depth", n-1)
			return br, true
		}
		if f.pending == 0 {
			f.mu.Unlock()
			return branch{}, false
		}
		f.waiting++
		f.cond.Wait()
		f.waiting--
	}
}

// finish retires a claim whose subtree is fully explored (or abandoned).
func (f *frontier) finish() {
	f.mu.Lock()
	f.pending--
	done := f.pending == 0
	f.mu.Unlock()
	if done {
		f.cond.Broadcast()
	}
}

// hungry reports whether a worker is waiting and the queue cannot feed it —
// the one condition under which a donation helps. A claim is half the donor's
// open work, so anything more eager (a watermark) only halves the donor again.
func (f *frontier) hungry() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return !f.stopped && len(f.items) < f.waiting
}

// stop releases every popper; in-flight claims notice via sharedCaps.
func (f *frontier) stop() {
	f.mu.Lock()
	f.stopped = true
	f.mu.Unlock()
	f.cond.Broadcast()
}

// sharedCaps enforces the exploration caps globally across workers.
type sharedCaps struct {
	f            *frontier
	maxScenarios int64
	maxBugs      int
	stopAtFirst  bool

	scen    atomic.Int64 // scenarios admitted so far
	stopped atomic.Bool  // a cap fired: wind down cooperatively
	capHit  atomic.Bool  // some cap truncated the exploration

	mu   sync.Mutex
	keys map[string]struct{} // distinct bug keys across all workers
}

func newSharedCaps(o Options, f *frontier) *sharedCaps {
	return &sharedCaps{
		f:            f,
		maxScenarios: int64(o.MaxScenarios),
		maxBugs:      o.MaxBugs,
		stopAtFirst:  o.StopAtFirstBug,
		keys:         make(map[string]struct{}),
	}
}

// requestStop winds the exploration down: marks it truncated and releases
// all workers.
func (s *sharedCaps) requestStop() {
	s.capHit.Store(true)
	if s.stopped.CompareAndSwap(false, true) {
		s.f.stop()
	}
}

// admit reserves the right to run one more scenario. Mirroring the serial
// loop, the scenario that reaches MaxScenarios still runs, and the
// exploration stops after it.
func (s *sharedCaps) admit() bool {
	if s.stopped.Load() {
		return false
	}
	n := s.scen.Add(1)
	if n > s.maxScenarios {
		s.scen.Add(-1) // not run: keep the global count exact
		s.requestStop()
		return false
	}
	if n == s.maxScenarios {
		s.requestStop()
	}
	return true
}

// noteBug registers a distinct bug key and fires the bug caps. Dedup by
// canonical key happens before any cap accounting: two workers reporting
// the same bug in the same stop window contribute one entry to the MaxBugs
// count and fire StopAtFirstBug once, and the merged Result carries one
// report with summed Count (see TestSharedCapsConcurrentSameBug).
func (s *sharedCaps) noteBug(key string) {
	s.mu.Lock()
	if _, ok := s.keys[key]; !ok {
		s.keys[key] = struct{}{}
		if s.stopAtFirst || len(s.keys) >= s.maxBugs {
			s.mu.Unlock()
			s.requestStop()
			return
		}
	}
	s.mu.Unlock()
}

// runParallel is the Workers>1 exploration driver: partition the choice
// tree across worker checkers, then merge their stats deterministically.
func (c *Checker) runParallel() *Result {
	start := time.Now()
	nw := c.opts.Workers
	c.reg.SetWorkers(nw)
	f := newFrontier(c.reg)
	caps := newSharedCaps(c.opts, f)
	f.push(branch{}) // the root claim: the whole tree

	workers := make([]*Checker, nw)
	var wg sync.WaitGroup
	for i := range workers {
		w := c.newWorker(i + 1)
		workers[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.workerLoop(f, caps)
		}()
	}
	wg.Wait()

	for _, w := range workers {
		w.foldChooserStats()
		c.stats.merge(&w.stats)
	}

	complete := !caps.capHit.Load()
	res := c.buildResult(start, complete)
	// MaxBugs is a cap on recorded bugs; concurrent discoveries can
	// overshoot before the stop lands, so trim after the canonical sort.
	if !c.opts.StopAtFirstBug && len(res.Bugs) > c.opts.MaxBugs {
		res.Bugs = res.Bugs[:c.opts.MaxBugs]
	}
	return res
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

// workerLoop claims branches until the tree is exhausted or a cap stops
// the exploration.
func (c *Checker) workerLoop(f *frontier, caps *sharedCaps) {
	for {
		br, ok := f.pop()
		if !ok {
			return
		}
		c.exploreBranch(br, f, caps)
		f.finish()
	}
}

// exploreBranch replays a claimed vector and runs the options its limits
// cover depth-first, donating half of what is still open whenever the
// frontier is hungry.
func (c *Checker) exploreBranch(br branch, f *frontier, caps *sharedCaps) {
	c.chooser.seedClaim(br.points, br.limits, br.memos)
	for {
		if !caps.admit() {
			c.porAbandon()
			return
		}
		c.scenarios++
		prevBugs := len(c.bugs)
		if !c.runScenarioGuarded(br.points) {
			// Engine panic: the replayed subtree is unreliable —
			// abandon the claim (recordEngineBug marked us truncated).
			for _, b := range c.bugs[prevBugs:] {
				caps.noteBug(b.key())
			}
			return
		}
		for _, b := range c.bugs[prevBugs:] {
			caps.noteBug(b.key())
		}
		if caps.stopped.Load() {
			c.porAbandon()
			return
		}
		for f.hungry() {
			don, ok := c.chooser.split()
			if !ok {
				break
			}
			// A record rooted at or above the deepest donated point no longer
			// covers its whole subtree locally; its delta must not be published.
			c.porCancelBelow(len(don.points))
			c.reg.NoteDonation(1)
			f.push(don)
		}
		if !c.chooser.advance() {
			c.porFlush()
			return
		}
	}
}

// runScenarioGuarded runs one scenario, converting internal engine panics
// into a reported BugEngine instead of crashing the exploration. Guest
// faults and crash signals are already handled inside runScenario; anything
// else (a genuine Go bug) still propagates.
func (c *Checker) runScenarioGuarded(prefix []choicePoint) (ok bool) {
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
		c.recordEngineBug(e, prefix)
	}()
	c.runScenario()
	return true
}

// ---- Deterministic merge ---------------------------------------------------

// merge folds a retired worker's stats into the aggregate. Every operation
// is order-insensitive (sum, max, keyed union with canonical representative
// selection), so the merged outcome does not depend on worker arrival
// order; buildResult's canonical sorts finish the job.
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
		dst.mergeBug(b)
	}
	for k, m := range src.multiRF {
		dst.mergeMultiRF(k, m)
	}
	for k, p := range src.perfIssues {
		if ex, ok := dst.perfIssues[k]; ok {
			ex.Count += p.Count
			// Canonical representative, the same rule recordPerfIssue
			// applies within one worker: the smallest affected line is the
			// reported example, independent of worker arrival order.
			if p.Line < ex.Line {
				ex.Line = p.Line
			}
		} else {
			dst.perfIssues[k] = p
		}
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
// the example values come from the representative with the larger candidate
// set (ties broken lexicographically, for a stable merge).
func (dst *stats) mergeMultiRF(key string, m *MultiRF) {
	ex, ok := dst.multiRF[key]
	if !ok {
		dst.multiRF[key] = m
		return
	}
	if m.Candidates > ex.Candidates ||
		(m.Candidates == ex.Candidates &&
			strings.Join(m.Values, ",") < strings.Join(ex.Values, ",")) {
		ex.Values = m.Values
		ex.Addr = m.Addr
	}
	if m.Candidates > ex.Candidates {
		ex.Candidates = m.Candidates
	}
	ex.Count += m.Count
}
