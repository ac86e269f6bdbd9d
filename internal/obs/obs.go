// Package obs is the checker's observability layer: a lock-free metrics
// registry and a structured JSONL event trace.
//
// The registry mirrors the checker's own stats design (see
// internal/core/parallel.go): every worker owns a private Collector shard
// of atomic counters — no cross-worker contention on the hot paths — and a
// Snapshot merges the shards with order-insensitive operations only (sums
// and maxima), so the aggregated counters are independent of how the state
// space was partitioned. The counters that describe the exploration itself
// (scenarios, executions, load refinements, choice-stack activity, buffer
// traffic) are therefore bit-identical between a serial run and a full
// parallel run of the same program; Metrics.Canonical isolates exactly
// that comparable subset.
//
// A metric is one Metrics field plus one row of Fields (fields.go), and a
// Counter or Peak when a shard records it. The row is its only definition:
// its name (json tag, Prometheus family, Counter.String), its source, whether
// Canonical keeps it, whether a recorded delta carries it, and its
// `jaaru -metrics` row. Registry.Snapshot, Metrics.Canonical,
// CounterVec.KeepCarried, report.Metrics and telemetry.WriteMetrics all read
// the table.
//
// When observability is disabled every hook degrades to a nil-receiver
// check: the Collector methods are nil-safe and small enough to inline, so
// a checker built without Options.Observe pays one inlined check per hook.
// The benchmark of record (benchmark/) times exactly that configuration and
// reports an instrumented run beside it as obs.traced_slowdown.
package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter indexes the summed exploration counters of a Collector shard.
type Counter int

const (
	// Scenarios counts failure scenarios started.
	Scenarios Counter = iota
	// ExecutionsPost counts post-failure (recovery) executions.
	ExecutionsPost
	// Steps counts guest operations simulated.
	Steps
	// PreFailureNs / PostFailureNs / ReplayNs partition segment wall-clock
	// time by phase. Under parallel exploration worker segments overlap,
	// so these accumulate CPU-style (summed across workers).
	PreFailureNs
	PostFailureNs
	ReplayNs
	// LoadSBHits counts load bytes satisfied by store-buffer bypassing.
	LoadSBHits
	// LoadCacheHits counts load bytes satisfied by the current execution's
	// cache without consulting pre-failure candidates.
	LoadCacheHits
	// LoadRefinements counts load bytes resolved through the constraint
	// refinement path (pre-failure candidate enumeration).
	LoadRefinements
	// RFCandidates sums the candidate-set sizes those refinements saw.
	RFCandidates
	// ChoicesReplayed / ChoicesFresh split chooser consultations into
	// replayed prefix decisions and newly discovered choice points.
	ChoicesReplayed
	ChoicesFresh
	// SBEvictions counts store-buffer entries evicted into the cache.
	SBEvictions
	// FBWritebacks counts flush-buffer (clflushopt) writebacks applied.
	FBWritebacks
	// SnapshotCaptures / SnapshotRestores count snapshot-engine activity:
	// pre-failure states captured at eligible failure points, and scenarios
	// that resumed from a captured state instead of re-running the guest.
	// SnapshotRestoreNs is the wall-clock time spent restoring.
	SnapshotCaptures
	SnapshotRestores
	SnapshotRestoreNs
	// RFElisions counts multi-candidate load bytes resolved without a
	// choice point because every candidate carried the same value (the
	// partial-order-reduction commutativity rule).
	RFElisions
	// ScenariosPruned counts scenarios skipped by post-failure state
	// fingerprinting (the K-1 remaining scenarios of each recovery subtree
	// a fingerprint hit proved equivalent to an explored one).
	// FingerprintHits / FingerprintMisses count seen-set consultations.
	ScenariosPruned
	FingerprintHits
	FingerprintMisses
	// ChoicesRestored counts the subset of ChoicesReplayed decisions that
	// were satisfied by a snapshot restore (failure-point or choice-point)
	// instead of live re-execution. Restores still accumulate into
	// ChoicesReplayed — the partition-independent total — so this counter
	// splits, never changes, that total: the Metrics report shows
	// choices_replayed minus choices_restored as the live replay count.
	ChoicesRestored
	// ChoiceSnapCaptures / ChoiceRestores count choice-point snapshot-stack
	// activity: post-failure choice points captured along the DFS path, and
	// scenarios that resumed from one (restoring O(delta) state and
	// fast-forwarding the recovery segment) instead of replaying the whole
	// post-failure prefix. ChoiceRestoreNs is the wall-clock time spent in
	// those restores; ReplayStepsSaved sums the guest steps the skipped
	// prefixes would have re-executed.
	ChoiceSnapCaptures
	ChoiceRestores
	ChoiceRestoreNs
	ReplayStepsSaved
	// RefinementsSkipped counts post-failure load bytes found pinned: the
	// byte had one read-from candidate on record (pmem.Stack.DoRead), so
	// its Figure-10 refinement walk, which could move nothing, was skipped —
	// per byte on the byte path, per operation when pmem.Stack.Load answers.
	RefinementsSkipped
	// ReplaySteps counts guest steps physically executed while the chooser
	// was still replaying a recorded decision prefix (cursor behind the
	// vector) — the cost the snapshot stack exists to avoid. Fast-forwarded
	// operations skip step accounting entirely, so a restored prefix
	// contributes nothing here.
	ReplaySteps

	numCounters
)

// NumCounters is the exported width of the counter space, for wire
// validation and exhaustiveness tests.
const NumCounters = int(numCounters)

// String returns the counter's exposition name, its row's Field.Name.
func (c Counter) String() string {
	for _, f := range Fields {
		if f.Source == FromCounter && f.Index == int(c) {
			return f.Name
		}
	}
	return fmt.Sprintf("counter(%d)", int(c))
}

// Peak indexes the high-water marks of a Collector shard (merged by max).
type Peak int

const (
	// PeakRFCandidates is the largest candidate set any load byte saw.
	PeakRFCandidates Peak = iota
	// PeakChoiceDepth is the deepest choice stack any scenario built.
	PeakChoiceDepth
	// PeakSB / PeakFB are the store- and flush-buffer occupancy high-water
	// marks across all guest threads.
	PeakSB
	PeakFB
	// PeakSnapshotBytes is the high-water estimate of memory retained by
	// the snapshot engine's journaled state (shared store queues + undo
	// journal), per worker, merged by max.
	PeakSnapshotBytes

	numPeaks
)

// NumPeaks is the exported width of the peak space, for wire validation.
const NumPeaks = int(numPeaks)

// signal indexes the registry's driver-level signals: the values that have
// no per-worker home (frontier traffic, worker count, lease and wire
// accounting, events emitted).
type signal int

const (
	sigWorkers signal = iota
	sigFrontierPeak
	sigFrontierPushed
	sigFrontierClaimed
	sigDonations
	sigLeasesGranted
	sigLeasesExpired
	sigLeasesReleased
	sigLeaseRequeues
	sigRPCs
	sigBytesTx
	sigBytesRx
	sigCommitBatches
	sigCommitScenarios
	sigEvents

	numSignals
)

// Timer indexes the per-phase latency histograms of a Collector shard. Each
// timer is one Histogram (histogram.go): the checker records individual
// phase durations in nanoseconds alongside the summed *Ns counters above, so
// the exposition layer can serve latency distributions and quantiles, not
// just totals. All timing data is wall-clock and therefore non-canonical:
// histograms live outside Metrics and outside CounterVec, so they can never
// enter the bit-identical equivalence comparisons or the snapshot/POR delta
// machinery.
type Timer int

const (
	// TimerPreFailure / TimerPostFailure / TimerReplay are per-segment guest
	// execution latencies, split by the same phase rule as the *Ns counters.
	TimerPreFailure Timer = iota
	TimerPostFailure
	TimerReplay
	// TimerSnapshotRestore / TimerChoiceRestore are per-restore latencies of
	// the snapshot stack's failure-point/end-of-run and choice-point entries.
	TimerSnapshotRestore
	TimerChoiceRestore
	// TimerFingerprint is the per-call latency of the POR crash-state
	// fingerprint walk.
	TimerFingerprint
	// TimerRefinement is the per-operation latency of loads that take the
	// byte path (candidate enumeration, choice, the Figure-10 interval
	// walk). Loads answered whole from the current execution's cache or the
	// pinned summary are not timed: they cost less than reading the clock.
	TimerRefinement
	// TimerLeaseClaim / TimerLeaseCommit are distributed-worker RPC
	// round-trip latencies against the coordinator.
	TimerLeaseClaim
	TimerLeaseCommit

	numTimers
)

// NumTimers is the exported width of the timer space, for wire validation.
const NumTimers = int(numTimers)

var timerNames = [numTimers]string{
	TimerPreFailure:      "pre_failure",
	TimerPostFailure:     "post_failure",
	TimerReplay:          "replay",
	TimerSnapshotRestore: "snapshot_restore",
	TimerChoiceRestore:   "choice_restore",
	TimerFingerprint:     "fingerprint",
	TimerRefinement:      "refinement",
	TimerLeaseClaim:      "lease_claim",
	TimerLeaseCommit:     "lease_commit",
}

// String returns the timer's snake_case exposition name.
func (t Timer) String() string {
	if t < 0 || t >= numTimers {
		return fmt.Sprintf("timer(%d)", int(t))
	}
	return timerNames[t]
}

// HistVec is one merged snapshot of every timer histogram, indexed by Timer.
type HistVec [NumTimers]HistSnapshot

// Merge returns the timer-wise merge of v and o.
func (v HistVec) Merge(o HistVec) HistVec {
	var out HistVec
	for t := range out {
		out[t] = v[t].Merge(o[t])
	}
	return out
}

// Collector is one worker's private metrics shard. All methods are safe on
// a nil receiver — the disabled fast path is a single nil check — and safe
// for the single-writer / concurrent-reader pattern the registry uses (the
// owning worker writes, Snapshot reads concurrently via atomics).
type Collector struct {
	counts [numCounters]atomic.Int64
	peaks  [numPeaks]atomic.Int64
	hists  [numTimers]Histogram
}

// Add accumulates n into counter k.
func (c *Collector) Add(k Counter, n int64) {
	if c == nil {
		return
	}
	c.counts[k].Add(n)
}

// Inc accumulates 1 into counter k.
func (c *Collector) Inc(k Counter) {
	if c == nil {
		return
	}
	c.counts[k].Add(1)
}

// NotePeak raises high-water mark p to v if v is larger. The wrapper stays
// small enough to inline so the disabled (nil) path is branch-and-return.
func (c *Collector) NotePeak(p Peak, v int64) {
	if c == nil {
		return
	}
	raise(&c.peaks[p], v)
}

// Observe records one duration (nanoseconds) into timer t's histogram.
func (c *Collector) Observe(t Timer, ns int64) {
	if c == nil {
		return
	}
	c.hists[t].Observe(ns)
}

// HistSnapshots reads every timer histogram (zero value on nil).
func (c *Collector) HistSnapshots() HistVec {
	var v HistVec
	if c == nil {
		return v
	}
	for t := range v {
		v[t] = c.hists[t].Snapshot()
	}
	return v
}

// AddHist folds a wire-shipped histogram snapshot into timer t — the merge
// the distributed coordinator applies when absorbing a retired lease's shard.
func (c *Collector) AddHist(t Timer, s HistSnapshot) {
	if c == nil || t < 0 || t >= numTimers {
		return
	}
	c.hists[t].AddSnapshot(s)
}

// CounterVec is a plain (non-atomic) snapshot of one Collector's summed
// counters. The snapshot engine uses it for delta accounting: the counters
// a scenario accumulated up to a capture point are stored with the snapshot
// and re-applied when a later scenario restores that state instead of
// re-executing the guest, keeping the merged Metrics bit-identical to a
// full-replay run.
type CounterVec [numCounters]int64

// Counters reads the collector's current counter values (zero on nil).
func (c *Collector) Counters() CounterVec {
	var v CounterVec
	if c == nil {
		return v
	}
	for k := range v {
		v[k] = c.counts[k].Load()
	}
	return v
}

// Diff returns v - base, element-wise.
func (v CounterVec) Diff(base CounterVec) CounterVec {
	for k := range v {
		v[k] -= base[k]
	}
	return v
}

// AddCounters accumulates a whole vector into the collector (no-op on nil).
func (c *Collector) AddCounters(v CounterVec) {
	if c == nil {
		return
	}
	for k, n := range v {
		if n != 0 {
			c.counts[k].Add(n)
		}
	}
}

// PeakValues reads the collector's peak high-water marks (index = Peak), for
// wire serialization; zero on a nil collector.
func (c *Collector) PeakValues() [NumPeaks]int64 {
	var out [NumPeaks]int64
	if c == nil {
		return out
	}
	for p := range out {
		out[p] = c.peaks[p].Load()
	}
	return out
}

// RaisePeaks folds wire peak values into the collector by max (the same
// merge rule Snapshot applies across shards).
func (c *Collector) RaisePeaks(vals [NumPeaks]int64) {
	if c == nil {
		return
	}
	for p, v := range vals {
		raise(&c.peaks[p], v)
	}
}

// raise lifts g to v if v is larger.
func raise(g *atomic.Int64, v int64) {
	for {
		cur := g.Load()
		if v <= cur || g.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Registry aggregates the Collector shards of one exploration plus the
// driver-level signals that have no per-worker home, and the optional event
// stream. All methods are nil-safe.
type Registry struct {
	mu     sync.Mutex
	shards []*Collector
	events *eventWriter
	start  time.Time

	goal        atomic.Int64 // MaxScenarios, for progress ETA
	frontierLen atomic.Int64 // live queue length (gauge)
	signals     [numSignals]atomic.Int64
}

// NewRegistry returns a registry; a non-nil events writer receives the
// JSONL event stream (one object per line, serialized by an internal lock).
func NewRegistry(events io.Writer) *Registry {
	r := &Registry{start: time.Now()}
	if events != nil {
		r.events = &eventWriter{w: events, start: r.start}
	}
	return r
}

// NewShard registers and returns a fresh Collector for one worker.
func (r *Registry) NewShard() *Collector {
	if r == nil {
		return nil
	}
	c := &Collector{}
	r.mu.Lock()
	r.shards = append(r.shards, c)
	r.mu.Unlock()
	return c
}

func (r *Registry) add(s signal, n int64) {
	if r != nil {
		r.signals[s].Add(n)
	}
}

// SetGoal records the scenario cap used for progress ETA.
func (r *Registry) SetGoal(n int64) {
	if r != nil {
		r.goal.Store(n)
	}
}

// SetWorkers records the worker count of the exploration.
func (r *Registry) SetWorkers(n int) {
	if r != nil {
		r.signals[sigWorkers].Store(int64(n))
	}
}

// NotePush records n branches published to the frontier, which now holds
// depth items.
func (r *Registry) NotePush(n, depth int) {
	if r != nil {
		r.signals[sigFrontierPushed].Add(int64(n))
		r.frontierLen.Store(int64(depth))
		raise(&r.signals[sigFrontierPeak], int64(depth))
	}
}

// NoteClaim records one branch claimed from the frontier, leaving depth
// items queued.
func (r *Registry) NoteClaim(depth int) {
	if r != nil {
		r.signals[sigFrontierClaimed].Add(1)
		r.frontierLen.Store(int64(depth))
	}
}

// NoteDonation records n branches donated by a worker (work-stealing).
func (r *Registry) NoteDonation(n int) { r.add(sigDonations, int64(n)) }

// NoteLease records one lease granted to a distributed worker.
func (r *Registry) NoteLease() { r.add(sigLeasesGranted, 1) }

// NoteLeaseExpired records an expired lease whose residual subtree was
// requeued (requeued=true) or discarded because it was already complete.
func (r *Registry) NoteLeaseExpired(requeued bool) { r.noteLeaseEnd(sigLeasesExpired, requeued) }

// NoteLeaseReleased records a lease relinquished mid-subtree by a draining
// worker, whose residual was requeued (requeued=false when the job had
// already stopped and the residual was discarded).
func (r *Registry) NoteLeaseReleased(requeued bool) { r.noteLeaseEnd(sigLeasesReleased, requeued) }

func (r *Registry) noteLeaseEnd(s signal, requeued bool) {
	r.add(s, 1)
	if requeued {
		r.add(sigLeaseRequeues, 1)
	}
}

// NoteRPC records one coordinator RPC handled.
func (r *Registry) NoteRPC() { r.add(sigRPCs, 1) }

// NoteBytes records wire traffic: tx bytes sent and rx bytes received on
// the distributed data plane (request plus response bodies, as counted by
// the transport in use — the netsim fabric in-process, the HTTP client on a
// real network).
func (r *Registry) NoteBytes(tx, rx int64) {
	r.add(sigBytesTx, max(tx, 0))
	r.add(sigBytesRx, max(rx, 0))
}

// NoteCommitBatch records one absorbed delta commit covering n scenarios;
// Snapshot reports the running average as CommitBatchSize.
func (r *Registry) NoteCommitBatch(n int64) {
	r.add(sigCommitBatches, 1)
	r.add(sigCommitScenarios, n)
}

// Emit appends one event to the JSONL stream, if one is attached. kv is a
// flat key/value list; values may be ints, bools, or strings.
func (r *Registry) Emit(ev string, kv ...any) {
	if r == nil || r.events == nil {
		return
	}
	r.events.emit(ev, kv)
	r.signals[sigEvents].Add(1)
}

// Err reports the first error the event stream's writer returned, if any.
func (r *Registry) Err() error {
	if r == nil || r.events == nil {
		return nil
	}
	r.events.mu.Lock()
	defer r.events.mu.Unlock()
	return r.events.err
}

// Snapshot merges every shard into a Metrics value, row by row of Fields.
// It is safe to call while workers are still running (live progress);
// counters are then a consistent-enough in-flight view, exact once the run
// has finished.
func (r *Registry) Snapshot() Metrics {
	var m Metrics
	if r == nil {
		return m
	}
	r.mu.Lock()
	shards := append([]*Collector(nil), r.shards...)
	r.mu.Unlock()
	var counts CounterVec
	var peaks [NumPeaks]int64
	for _, s := range shards {
		for k := range counts {
			counts[k] += s.counts[k].Load()
		}
		for p := range peaks {
			peaks[p] = max(peaks[p], s.peaks[p].Load())
		}
	}
	var sig [numSignals]int64
	for i := range sig {
		sig[i] = r.signals[i].Load()
	}
	v := m.values()
	for i, f := range Fields {
		switch f.Source {
		case FromCounter:
			v[i] = counts[f.Index]
		case FromPeak:
			v[i] = peaks[f.Index]
		case FromSignal:
			v[i] = sig[f.Index]
		}
	}
	// Restores accumulate into ChoicesReplayed, the partition-independent
	// total; the report splits them out as ChoicesRestored.
	m.ChoicesReplayed -= m.ChoicesRestored
	for i, f := range Fields {
		if f.derive != nil {
			v[i] = f.derive(&m, &sig)
		}
	}
	return m
}

// Histograms merges every shard's timer histograms — the latency-
// distribution counterpart of Snapshot. Like Snapshot it is safe to call
// mid-run; the bucket-wise merge is order-insensitive, so a mid-run view is
// a consistent partial distribution and the final view is exact.
func (r *Registry) Histograms() HistVec {
	var v HistVec
	if r == nil {
		return v
	}
	r.mu.Lock()
	shards := append([]*Collector(nil), r.shards...)
	r.mu.Unlock()
	for _, s := range shards {
		v = v.Merge(s.HistSnapshots())
	}
	return v
}

// Uptime reports time elapsed since the registry was created (zero on nil).
func (r *Registry) Uptime() time.Duration {
	if r == nil {
		return 0
	}
	return time.Since(r.start)
}

// Goal reports the scenario cap recorded by SetGoal (0 when unset or nil).
func (r *Registry) Goal() int64 {
	if r == nil {
		return 0
	}
	return r.goal.Load()
}

// FrontierLen reports the live frontier queue length gauge.
func (r *Registry) FrontierLen() int64 {
	if r == nil {
		return 0
	}
	return r.frontierLen.Load()
}

// Progress renders a one-line live status: scenarios explored, percent of
// goal, rate, executions, frontier depth, and — when a MaxScenarios goal is
// set — the ETA to that cap (an upper bound: full explorations finish
// earlier).
func (r *Registry) Progress() string {
	if r == nil {
		return ""
	}
	return FormatProgress(r.Snapshot(), r.frontierLen.Load(), r.goal.Load(),
		time.Since(r.start))
}

// FormatProgress is the pure formatting core of Progress, split out so the
// rendering is testable with fixed inputs. goal <= 0 means no scenario cap
// was set; elapsed <= 0 suppresses the rate and ETA.
func FormatProgress(m Metrics, queued, goal int64, elapsed time.Duration) string {
	rate := 0.0
	if sec := elapsed.Seconds(); sec > 0 {
		rate = float64(m.Scenarios) / sec
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d scenarios", m.Scenarios)
	if goal > 0 {
		fmt.Fprintf(&b, " (%d%%, %.0f/s)", m.Scenarios*100/goal, rate)
	} else {
		fmt.Fprintf(&b, " (%.0f/s)", rate)
	}
	fmt.Fprintf(&b, ", %d executions, frontier %d", m.Executions, queued)
	if goal > 0 && rate > 0 && m.Scenarios < goal {
		eta := time.Duration(float64(goal-m.Scenarios) / rate * float64(time.Second))
		fmt.Fprintf(&b, ", <=%s to MaxScenarios", eta.Round(time.Second))
	}
	return b.String()
}
