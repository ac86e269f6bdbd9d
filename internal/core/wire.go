package core

import (
	"time"

	"jaaru/internal/obs"
)

// Wire types for distributed exploration (internal/dist). A choice prefix is
// a self-contained, serializable unit of work — the property the whole
// checker is built on — so the distributed protocol is small: claims (branch
// prefixes with exploration limits), per-lease stats deltas, and POR
// seen-set publication entries. Each is the engine's own type — a WireClaim
// is what chooser.seedClaim installs, a WireStats a snapshot of a Checker's
// stats and obs shard, a WirePorEntry a published subtree delta — and on the
// lease path they travel in the binary codec of wirev2.go, whose decoder is
// the one validator. The commit protocol built on them (seq-gated deltas,
// residual claims, expiry) is documented once, in internal/dist's package
// doc; DiffWireStats says why absorbed deltas re-sum to the cumulative stats
// exactly.
//
// POR clamps interact with residuals subtly but safely: when porPruneSweep
// clamps a fail decision (limit 2 -> 1) it applies the published delta to
// the worker's local stats, and the next commit ships both the lowered limit
// and the applied delta together, atomically. A claimant of the residual
// therefore never re-applies a committed clamp; clamps applied after the
// last commit die with the lease and are re-derived by the claimant.

// WireStats is a batch of exploration stats: everything the coordinator's
// deterministic merge consumes, as the engine holds it. A worker exports its
// lease's *cumulative* stats (exportWireStats) and ships the *delta* against
// its previous commit (DiffWireStats); the coordinator absorbs each delta
// exactly once, gated by the commit sequence number, which is what makes
// retries and duplicate deliveries idempotent. The zero value is an empty
// batch.
type WireStats struct {
	stats
	// The observability shard, when observed: counters and histogram buckets
	// sum, peaks (index = obs.Peak) join by max.
	observed bool
	counters obs.CounterVec
	peaks    []int64
	hists    obs.HistVec
}

// Scenarios is the number of scenarios the batch counts.
func (ws *WireStats) Scenarios() int { return ws.scenarios }

// exportWireStats snapshots the checker's cumulative stats (and its
// observability shard, when attached). Merging into an empty batch copies
// every finding, so the snapshot does not move with the checker.
func (c *Checker) exportWireStats() *WireStats {
	c.foldChooserStats()
	ws := &WireStats{}
	ws.initStats()
	ws.merge(&c.stats)
	if c.col != nil {
		ws.observed = true
		ws.counters = c.col.Counters()
		ws.peaks = c.col.PeakValues()
		ws.hists = c.col.HistSnapshots()
	}
	return ws
}

// ---- Delta commits ----------------------------------------------------------

// DiffWireStats returns the delta between two cumulative snapshots of the
// same lease: what changed since prev (the previously committed snapshot;
// nil means "everything", the first commit's baseline). The delta is built
// so that absorbing every delta of a lease in sequence through the ordinary
// merge reproduces exactly the state absorbing the final cumulative
// snapshot once would have:
//
//   - Summed quantities (scenarios, executions, steps, new points, obs
//     counters, histogram buckets) ship as differences — valid because every
//     one of them is nondecreasing within a worker.
//   - Max-joined quantities (FpointsPre, MaxRF, obs peaks) and the OR-joined
//     Truncated flag ship cumulatively; re-joining them per delta is
//     idempotent.
//   - Keyed findings (bugs by type+message, flagged loads by location, perf
//     issues by kind+location) ship only when their count grew, carrying the
//     count growth plus the *current* canonical representative. The
//     within-worker record paths (recordBug, flagMultiRF, recordPerfIssue)
//     update representatives with the same semilattice join the merge
//     applies and only alongside a count increment, so joining each delta's
//     representative converges to the final cumulative representative.
func DiffWireStats(cur, prev *WireStats) *WireStats {
	if prev == nil {
		return cur
	}
	d := &WireStats{
		stats: stats{
			scenarios:  cur.scenarios - prev.scenarios,
			execsPost:  cur.execsPost - prev.execsPost,
			fpointsPre: cur.fpointsPre,
			totalSteps: cur.totalSteps - prev.totalSteps,
			maxRF:      cur.maxRF,
			truncated:  cur.truncated,
		},
		observed: cur.observed,
		counters: cur.counters.Diff(prev.counters),
		peaks:    cur.peaks,
	}
	d.initStats()
	for k := range cur.newPoints {
		d.newPoints[k] = cur.newPoints[k] - prev.newPoints[k]
	}
	for _, b := range cur.bugs {
		grown := b.Count
		if p := prev.bugIndex[b.key()]; p != nil {
			grown -= p.Count
		}
		if grown > 0 {
			cb := *b
			cb.Count = grown
			d.mergeBug(&cb)
		}
	}
	grownSince(d.multiRF, cur.multiRF, prev.multiRF, func(m *MultiRF) *int { return &m.Count })
	grownSince(d.perfIssues, cur.perfIssues, prev.perfIssues, func(p *PerfIssue) *int { return &p.Count })
	for t := range cur.hists {
		d.hists[t] = diffHist(cur.hists[t], prev.hists[t])
	}
	return d
}

// grownSince adds to out a copy of each finding of cur whose count grew since
// prev, carrying its growth as its count.
func grownSince[T any](out, cur, prev map[string]*T, count func(*T) *int) {
	for k, f := range cur {
		grown := *count(f)
		if p := prev[k]; p != nil {
			grown -= *count(p)
		}
		if grown > 0 {
			cf := *f
			*count(&cf) = grown
			out[k] = &cf
		}
	}
}

// diffHist is a timer's histogram growth since prev: empty when no sample
// arrived, otherwise the count, sum and bucket differences.
func diffHist(cur, prev obs.HistSnapshot) obs.HistSnapshot {
	if cur.Count == prev.Count {
		return obs.HistSnapshot{}
	}
	d := obs.HistSnapshot{Count: cur.Count - prev.Count, Sum: cur.Sum - prev.Sum}
	for i, n := range cur.Counts {
		if i < len(prev.Counts) {
			n -= prev.Counts[i]
		}
		if n > 0 {
			d.Counts = append(d.Counts, make([]int64, i-len(d.Counts))...)
			d.Counts = append(d.Counts, n)
		}
	}
	return d
}

// WirePorEntry is one entry of the POR seen-set publication log: a crash
// state's fingerprint and its published subtree delta (immutable once
// published, so entries are shared, never copied).
type WirePorEntry struct {
	fp    uint64
	delta *porDelta
}

// Fingerprint is the entry's crash-state fingerprint, the log's dedup key.
func (e WirePorEntry) Fingerprint() uint64 { return e.fp }

// ---- Coordinator side: MergeAcc --------------------------------------------

// MergeAcc accumulates stats into one deterministic Result: committed
// WireStats deltas in a fleet, worker stats in process. Both go through
// stats.merge, so a complete exploration is bit-identical to the serial
// reference either way.
type MergeAcc struct {
	ck    *Checker
	start time.Time
	// col is the single persistent observability shard every absorbed
	// delta's counters fold into (lazily created; nil when not observing).
	// One shard instead of one per Absorb keeps delta commits from growing
	// the registry's shard list without bound.
	col *obs.Collector
}

// NewMergeAcc prepares an accumulator for prog. Set opts.Observe to collect
// merged Metrics from the workers' shipped shards.
func NewMergeAcc(prog Program, opts Options) *MergeAcc {
	o := opts.withDefaults()
	return &MergeAcc{ck: New(prog, o), start: time.Now()}
}

// Options returns the accumulator's normalized options (the job's canonical
// configuration, shipped to workers verbatim).
func (a *MergeAcc) Options() Options { return a.ck.opts }

// Observability exposes the accumulator's metrics registry (nil unless
// Observe was set) so the coordinator can record lease/RPC traffic into the
// same snapshot the merged Metrics come from.
func (a *MergeAcc) Observability() *obs.Registry { return a.ck.reg }

// Absorb folds one committed stats delta into the aggregate. Call exactly
// once per applied commit (the coordinator gates calls on the lease's
// advancing sequence number, so retried deliveries are not double-counted).
// ws is left untouched. It returns nil: a WireStats that decoded is valid.
func (a *MergeAcc) Absorb(ws *WireStats) error {
	a.ck.stats.merge(&ws.stats)
	if ws.observed && a.ck.reg != nil {
		if a.col == nil {
			a.col = a.ck.reg.NewShard()
		}
		a.col.AddCounters(ws.counters)
		a.col.RaisePeaks(ws.peaks)
		for t := range ws.hists {
			a.col.AddHist(obs.Timer(t), ws.hists[t])
		}
	}
	return nil
}

// SetWorkers records the fleet size in the merged metrics (non-canonical,
// like the in-process driver's).
func (a *MergeAcc) SetWorkers(n int) { a.ck.reg.SetWorkers(n) }

// BuildResult assembles the merged Result. complete reports whether the
// exploration drained with no cap hit; worker-side truncation (engine
// errors) is already folded into the merged stats.
func (a *MergeAcc) BuildResult(complete bool) *Result {
	res := a.ck.buildResult(a.start, complete)
	// MaxBugs caps recorded bugs, and concurrent discoveries can overshoot it
	// before the cooperative stop lands: trim after the canonical sort.
	if !a.ck.opts.StopAtFirstBug && len(res.Bugs) > a.ck.opts.MaxBugs {
		res.Bugs = res.Bugs[:a.ck.opts.MaxBugs]
	}
	return res
}
