package core

// The worker side of the lease protocol (internal/dist documents it): a
// LeaseRunner explores the claims a coordinator granted with the in-process
// claim loop and commits progress through a LeaseSink.

// LeaseSink is the worker's view of the coordinator, implemented by
// internal/dist over HTTP (and by test harnesses directly). Hungry and
// Stopped may reflect stale coordinator state — they are cooperative hints,
// and the exactness of the protocol rests entirely on Commit's atomicity at
// the coordinator.
type LeaseSink interface {
	// Hungry reports whether the coordinator wants donated splits.
	Hungry() bool
	// Stopped reports whether a global cap or stop request ended the run:
	// the lease's remainder is dead work and is discarded.
	Stopped() bool
	// Draining reports a local graceful-stop request (SIGTERM): the lease
	// is released — progress so far is committed and the unexplored
	// residual handed back for another claimant — so, unlike Stopped,
	// nothing is discarded.
	Draining() bool
	// Commit atomically publishes the lease's progress: donated splits, the
	// residual claims covering all work not yet committed (the current
	// claim's snapshot plus any untouched claims of the batch), and the
	// stats delta since the previous commit (DiffWireStats). final retires
	// the lease; a final commit with no residuals marks the batch fully
	// explored (or dead under Stopped), while a final commit with residuals
	// *releases* the lease, asking the coordinator to requeue the
	// remainder. A non-nil error abandons the lease (its uncommitted tail
	// is requeued by the coordinator's expiry sweep). Implementations may
	// pipeline non-final commits — RunLease never depends on a non-final
	// ack before exploring further, and nothing it passes is mutated
	// afterwards (claims and stats are fresh snapshots, memos immutable) —
	// but a final Commit must not return until the coordinator
	// acknowledged it.
	Commit(splits []WireClaim, residuals []WireClaim, delta *WireStats, final bool) error
}

// LeaseRunner executes leases against a guest program with the claim loop
// in-process workers use (exploreClaim). Each lease runs on a fresh private
// Checker; the POR seen-set mirror persists across leases and syncs with the
// coordinator's publication log through DrainPor/AbsorbPor.
type LeaseRunner struct {
	prog Program
	opts Options
	seen *porSeen
	// commitEvery bounds scenarios between non-final commits (default 16;
	// lower it for tighter lease-expiry windows, at more RPC traffic).
	commitEvery int
}

// NewLeaseRunner prepares a runner for prog. Worker-irrelevant options are
// normalized away exactly as newWorker does for in-process workers.
func NewLeaseRunner(prog Program, opts Options) *LeaseRunner {
	o := opts.withDefaults()
	o.Workers = 1
	o.EventTrace = nil
	lr := &LeaseRunner{prog: prog, opts: o, commitEvery: 16}
	if o.POR > 0 {
		lr.seen = newPorSeen()
	}
	return lr
}

// SetCommitEvery overrides the scenarios-per-commit cadence (min 1).
func (lr *LeaseRunner) SetCommitEvery(n int) {
	if n >= 1 {
		lr.commitEvery = n
	}
}

// PorVersion returns the local publication-log length — the cursor DrainPor
// advances past.
func (lr *LeaseRunner) PorVersion() int {
	if lr.seen == nil {
		return 0
	}
	return lr.seen.logLen()
}

// DrainPor returns locally published POR entries at log positions >= from.
func (lr *LeaseRunner) DrainPor(from int) []WirePorEntry {
	if lr.seen == nil {
		return nil
	}
	return lr.seen.entriesSince(from)
}

// AbsorbPor installs coordinator-published POR entries into the local mirror
// (first publisher wins, so re-deliveries are no-ops).
func (lr *LeaseRunner) AbsorbPor(entries []WirePorEntry) {
	if lr.seen == nil {
		return
	}
	for _, e := range entries {
		lr.seen.publish(e.fp, e.delta)
	}
}

// RunLease explores a batch of claimed subtrees to completion on one
// private Checker, each through exploreClaim, committing progress through the
// sink as seq-ordered deltas.
func (lr *LeaseRunner) RunLease(claims []WireClaim, sink LeaseSink) error {
	c := New(lr.prog, lr.opts)
	if lr.seen != nil {
		c.porSeenSet = lr.seen
	}
	l := &leaseRun{sink: sink, c: c, every: lr.commitEvery}
	for i, br := range claims {
		l.pending = claims[i+1:]
		if err := c.exploreClaim(br, l); err != nil {
			return err
		}
		switch {
		case l.final:
			return nil
		case l.stopped:
			// A cap ended the job: the lease's remainder is dead work.
			return l.commit(nil, nil, true)
		case l.draining:
			// Graceful drain: release the lease instead of discarding its
			// remainder. The residual snapshot plus the untouched claims
			// cover exactly the unexplored work, so committing them final
			// hands the batch back to the coordinator immediately — no TTL
			// expiry needed (and none may ever come when leases never expire).
			return l.commit(nil, append([]WireClaim{l.residual()}, l.pending...), true)
		}
		// The claim is exhausted, or an engine panic dropped its remainder
		// (requeueing it would crash-loop every claimant): on to the rest.
	}
	// Reached when the last claim hit an engine panic (or the batch was
	// empty): retire the lease so the coordinator's result reports the
	// truncation.
	return l.commit(nil, nil, true)
}

// leaseRun is the claim loop's sink inside RunLease: LeaseSink's hints, plus
// the commit cadence, the residuals and the stats deltas.
type leaseRun struct {
	sink    LeaseSink
	c       *Checker
	every   int         // scenarios between non-final commits
	since   int         // scenarios since the last commit
	pending []WireClaim // untouched claims of the batch, owed back in residuals
	splits  []WireClaim // the current scenario's donation
	prev    *WireStats  // the last committed cumulative stats (nil: none yet)

	// Why the loop ended: a refused admission, or the batch's final commit.
	stopped, draining, final bool
}

func (l *leaseRun) admit() bool {
	l.stopped = l.sink.Stopped()
	l.draining = !l.stopped && l.sink.Draining()
	return !l.stopped && !l.draining
}

func (l *leaseRun) ran([]*BugReport) bool { return true }

// Hungry allows one donation per scenario: LeaseSink.Hungry is a stale hint,
// refreshed by the commit the donation triggers.
func (l *leaseRun) Hungry() bool { return len(l.splits) == 0 && l.sink.Hungry() }

func (l *leaseRun) donate(br WireClaim) { l.splits = append(l.splits, br) }

// advanced commits when a donation must travel, every l.every scenarios, and
// finally when the batch is exhausted.
func (l *leaseRun) advanced(more bool) error {
	splits := l.splits
	l.splits = nil
	if !more && len(l.pending) == 0 {
		l.final = true
		return l.commit(splits, nil, true)
	}
	if l.since++; len(splits) == 0 && l.since < l.every {
		return nil
	}
	l.since = 0
	var residuals []WireClaim
	if more {
		residuals = []WireClaim{l.residual()}
	}
	return l.commit(splits, append(residuals, l.pending...), false)
}

// residual is the current claim's unexplored remainder.
func (l *leaseRun) residual() WireClaim { return l.c.chooser.claimSnapshot() }

// commit ships the stats delta against the previously committed cumulative
// snapshot.
func (l *leaseRun) commit(splits, residuals []WireClaim, final bool) error {
	cur := l.c.exportWireStats()
	if err := l.sink.Commit(splits, residuals, DiffWireStats(cur, l.prev), final); err != nil {
		return err
	}
	l.prev = cur
	return nil
}
