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
	// partial-order-reduction commutativity rule). Partition-independent:
	// elision is a deterministic property of the candidate set.
	RFElisions
	// ScenariosPruned counts scenarios skipped by post-failure state
	// fingerprinting (the K-1 remaining scenarios of each recovery subtree
	// a fingerprint hit proved equivalent to an explored one).
	// FingerprintHits / FingerprintMisses count seen-set consultations.
	// All three depend on visit order and are zeroed by Canonical.
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
	// contributes nothing here. Engine-dependent; zeroed by Canonical.
	ReplaySteps

	numCounters
)

// NumCounters is the exported width of the counter space, for wire
// validation and exhaustiveness tests.
const NumCounters = int(numCounters)

// counterNames maps each Counter to its snake_case wire/exposition name —
// the same vocabulary the Metrics JSON tags use. A counter whose name ends
// in "_ns" is wall-clock and therefore non-canonical by convention;
// TestCanonicalZeroesEveryTimingCounter enforces that convention by
// reflection, so a future timing counter cannot silently leak into the
// determinism gates.
var counterNames = [numCounters]string{
	Scenarios:          "scenarios",
	ExecutionsPost:     "executions_post",
	Steps:              "steps",
	PreFailureNs:       "pre_failure_ns",
	PostFailureNs:      "post_failure_ns",
	ReplayNs:           "replay_ns",
	LoadSBHits:         "load_sb_hits",
	LoadCacheHits:      "load_cache_hits",
	LoadRefinements:    "load_refinements",
	RFCandidates:       "rf_candidates",
	ChoicesReplayed:    "choices_replayed",
	ChoicesFresh:       "choices_fresh",
	SBEvictions:        "sb_evictions",
	FBWritebacks:       "fb_writebacks",
	SnapshotCaptures:   "snapshot_captures",
	SnapshotRestores:   "snapshot_restores",
	SnapshotRestoreNs:  "snapshot_restore_ns",
	RFElisions:         "rf_elisions",
	ScenariosPruned:    "scenarios_pruned",
	FingerprintHits:    "fingerprint_hits",
	FingerprintMisses:  "fingerprint_misses",
	ChoicesRestored:    "choices_restored",
	ChoiceSnapCaptures: "choice_snap_captures",
	ChoiceRestores:     "choice_restores",
	ChoiceRestoreNs:    "choice_restore_ns",
	ReplayStepsSaved:   "replay_steps_saved",
	RefinementsSkipped: "refinements_skipped",
	ReplaySteps:        "replay_steps",
}

// String returns the counter's snake_case exposition name.
func (c Counter) String() string {
	if c < 0 || c >= numCounters {
		return fmt.Sprintf("counter(%d)", int(c))
	}
	return counterNames[c]
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
	c.raisePeak(p, v)
}

// Observe records one duration (nanoseconds) into timer t's histogram.
func (c *Collector) Observe(t Timer, ns int64) {
	if c == nil {
		return
	}
	c.hists[t].Observe(ns)
}

// HistSnapshot reads one timer's histogram (zero value on nil).
func (c *Collector) HistSnapshot(t Timer) HistSnapshot {
	if c == nil {
		return HistSnapshot{}
	}
	return c.hists[t].Snapshot()
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

// Clear zeroes the given counters in place.
func (v *CounterVec) Clear(ks ...Counter) {
	for _, k := range ks {
		v[k] = 0
	}
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

// PeakValues reads the collector's peak high-water marks as a dense slice
// (index = Peak) for wire serialization; nil on a nil collector.
func (c *Collector) PeakValues() []int64 {
	if c == nil {
		return nil
	}
	out := make([]int64, numPeaks)
	for p := range out {
		out[p] = c.peaks[p].Load()
	}
	return out
}

// RaisePeaks folds wire peak values into the collector by max (the same
// merge rule Snapshot applies across shards). Extra values are ignored so
// older senders stay compatible.
func (c *Collector) RaisePeaks(vals []int64) {
	if c == nil {
		return
	}
	for p, v := range vals {
		if p >= int(numPeaks) {
			break
		}
		if v > 0 {
			c.raisePeak(Peak(p), v)
		}
	}
}

func (c *Collector) raisePeak(p Peak, v int64) {
	g := &c.peaks[p]
	for {
		cur := g.Load()
		if v <= cur || g.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Registry aggregates the Collector shards of one exploration plus the
// driver-level signals that have no per-worker home: frontier traffic,
// worker count, and the optional event stream. All methods are nil-safe.
type Registry struct {
	mu     sync.Mutex
	shards []*Collector
	events *eventWriter
	start  time.Time

	goal    atomic.Int64 // MaxScenarios, for progress ETA
	workers atomic.Int64

	frontierLen     atomic.Int64 // live queue length (gauge)
	frontierPeak    atomic.Int64
	frontierPushed  atomic.Int64
	frontierClaimed atomic.Int64
	donations       atomic.Int64

	// Distributed-exploration traffic (internal/dist coordinator).
	leasesGranted  atomic.Int64
	leasesExpired  atomic.Int64
	leasesReleased atomic.Int64
	leaseRequeues  atomic.Int64
	rpcs           atomic.Int64

	// Wire-level data-plane accounting (internal/dist, either side).
	bytesTx         atomic.Int64
	bytesRx         atomic.Int64
	commitBatches   atomic.Int64
	commitScenarios atomic.Int64
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

// SetGoal records the scenario cap used for progress ETA.
func (r *Registry) SetGoal(n int64) {
	if r != nil {
		r.goal.Store(n)
	}
}

// SetWorkers records the worker count of the exploration.
func (r *Registry) SetWorkers(n int) {
	if r != nil {
		r.workers.Store(int64(n))
	}
}

// NotePush records n branches published to the frontier, which now holds
// depth items.
func (r *Registry) NotePush(n, depth int) {
	if r == nil {
		return
	}
	r.frontierPushed.Add(int64(n))
	r.frontierLen.Store(int64(depth))
	for {
		cur := r.frontierPeak.Load()
		if int64(depth) <= cur || r.frontierPeak.CompareAndSwap(cur, int64(depth)) {
			break
		}
	}
}

// NoteClaim records one branch claimed from the frontier, leaving depth
// items queued.
func (r *Registry) NoteClaim(depth int) {
	if r == nil {
		return
	}
	r.frontierClaimed.Add(1)
	r.frontierLen.Store(int64(depth))
}

// NoteDonation records n branches donated by a worker (work-stealing).
func (r *Registry) NoteDonation(n int) {
	if r != nil {
		r.donations.Add(int64(n))
	}
}

// NoteLease records one lease granted to a distributed worker.
func (r *Registry) NoteLease() {
	if r != nil {
		r.leasesGranted.Add(1)
	}
}

// NoteLeaseExpired records an expired lease whose residual subtree was
// requeued (requeued=true) or discarded because it was already complete.
func (r *Registry) NoteLeaseExpired(requeued bool) {
	if r == nil {
		return
	}
	r.leasesExpired.Add(1)
	if requeued {
		r.leaseRequeues.Add(1)
	}
}

// NoteLeaseReleased records a lease relinquished mid-subtree by a draining
// worker, whose residual was requeued (requeued=false when the job had
// already stopped and the residual was discarded).
func (r *Registry) NoteLeaseReleased(requeued bool) {
	if r == nil {
		return
	}
	r.leasesReleased.Add(1)
	if requeued {
		r.leaseRequeues.Add(1)
	}
}

// NoteRPC records one coordinator RPC handled.
func (r *Registry) NoteRPC() {
	if r != nil {
		r.rpcs.Add(1)
	}
}

// NoteBytes records wire traffic: tx bytes sent and rx bytes received on
// the distributed data plane (request plus response bodies, as counted by
// the transport in use — the netsim fabric in-process, the HTTP client on a
// real network).
func (r *Registry) NoteBytes(tx, rx int64) {
	if r == nil {
		return
	}
	if tx > 0 {
		r.bytesTx.Add(tx)
	}
	if rx > 0 {
		r.bytesRx.Add(rx)
	}
}

// NoteCommitBatch records one absorbed delta commit covering n scenarios;
// Snapshot reports the running average as CommitBatchSize.
func (r *Registry) NoteCommitBatch(n int64) {
	if r == nil {
		return
	}
	r.commitBatches.Add(1)
	r.commitScenarios.Add(n)
}

// Emit appends one event to the JSONL stream, if one is attached. kv is a
// flat key/value list; values may be ints, bools, or strings.
func (r *Registry) Emit(ev string, kv ...any) {
	if r == nil || r.events == nil {
		return
	}
	r.events.emit(ev, kv)
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

// Snapshot merges every shard into a Metrics value. It is safe to call
// while workers are still running (live progress); counters are then a
// consistent-enough in-flight view, exact once the run has finished.
func (r *Registry) Snapshot() Metrics {
	var m Metrics
	if r == nil {
		return m
	}
	r.mu.Lock()
	shards := append([]*Collector(nil), r.shards...)
	r.mu.Unlock()
	var counts CounterVec
	var peaks [numPeaks]int64
	for _, s := range shards {
		for k := range counts {
			counts[k] += s.counts[k].Load()
		}
		for p := range peaks {
			if v := s.peaks[p].Load(); v > peaks[p] {
				peaks[p] = v
			}
		}
	}
	m = m.AddVec(counts)
	m.MaxSnapshotBytes = peaks[PeakSnapshotBytes]
	m.MaxRFCandidates = peaks[PeakRFCandidates]
	m.MaxChoiceDepth = peaks[PeakChoiceDepth]
	m.MaxSBOccupancy = peaks[PeakSB]
	m.MaxFBOccupancy = peaks[PeakFB]
	m.FrontierPushed = r.frontierPushed.Load()
	m.FrontierClaimed = r.frontierClaimed.Load()
	m.Donations = r.donations.Load()
	m.MaxFrontierLen = r.frontierPeak.Load()
	m.Workers = r.workers.Load()
	m.LeasesGranted = r.leasesGranted.Load()
	m.LeasesExpired = r.leasesExpired.Load()
	m.LeasesReleased = r.leasesReleased.Load()
	m.LeaseRequeues = r.leaseRequeues.Load()
	m.RPCs = r.rpcs.Load()
	m.BytesTx = r.bytesTx.Load()
	m.BytesRx = r.bytesRx.Load()
	if batches := r.commitBatches.Load(); batches > 0 {
		m.CommitBatchSize = r.commitScenarios.Load() / batches
	}
	if r.events != nil {
		m.Events = r.events.count.Load()
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

// Metrics is one merged snapshot of the registry. All fields are plain
// integers, so two snapshots compare with ==.
type Metrics struct {
	// Exploration totals (partition-independent).
	Scenarios      int64 `json:"scenarios"`
	Executions     int64 `json:"executions"`
	ExecutionsPost int64 `json:"executions_post"`
	Steps          int64 `json:"steps"`

	// Phase timings, nanoseconds summed over segments (CPU-style under
	// parallel exploration, where worker segments overlap).
	PreFailureNs  int64 `json:"pre_failure_ns"`
	PostFailureNs int64 `json:"post_failure_ns"`
	ReplayNs      int64 `json:"replay_ns"`

	// Load path (partition-independent).
	LoadSBHits      int64 `json:"load_sb_hits"`
	LoadCacheHits   int64 `json:"load_cache_hits"`
	LoadRefinements int64 `json:"load_refinements"`
	RFCandidates    int64 `json:"rf_candidates"`
	MaxRFCandidates int64 `json:"max_rf_candidates"`

	// Choice stack. ChoicesReplayed here is the *live* replay count;
	// ChoicesRestored is the decisions satisfied by snapshot restores
	// (failure-point or choice-point). Their sum is partition-independent;
	// the split depends on the snapshot stack and is re-folded by
	// Canonical.
	ChoicesReplayed int64 `json:"choices_replayed"`
	ChoicesRestored int64 `json:"choices_restored,omitempty"`
	ChoicesFresh    int64 `json:"choices_fresh"`
	MaxChoiceDepth  int64 `json:"max_choice_depth"`

	// Store/flush buffer traffic (partition-independent).
	SBEvictions    int64 `json:"sb_evictions"`
	FBWritebacks   int64 `json:"fb_writebacks"`
	MaxSBOccupancy int64 `json:"max_sb_occupancy"`
	MaxFBOccupancy int64 `json:"max_fb_occupancy"`

	// Snapshot stack, failure-point and end-of-run entries (depends on
	// Options.Snapshots and on how scenarios were partitioned; zeroed by
	// Canonical).
	SnapshotCaptures  int64 `json:"snapshot_captures,omitempty"`
	SnapshotRestores  int64 `json:"snapshot_restores,omitempty"`
	SnapshotRestoreNs int64 `json:"snapshot_restore_ns,omitempty"`
	MaxSnapshotBytes  int64 `json:"max_snapshot_bytes,omitempty"`

	// Snapshot stack, choice-point entries (same dependencies; zeroed by
	// Canonical). RefinementsSkipped is likewise non-canonical: which pins
	// a load finds depends on the scenarios explored before it and on which
	// loads a restore replays live.
	ChoiceSnapCaptures int64 `json:"choice_snap_captures,omitempty"`
	ChoiceRestores     int64 `json:"choice_restores,omitempty"`
	ChoiceRestoreNs    int64 `json:"choice_restore_ns,omitempty"`
	ReplayStepsSaved   int64 `json:"replay_steps_saved,omitempty"`
	RefinementsSkipped int64 `json:"refinements_skipped,omitempty"`
	// ReplaySteps is the physical cost of replay: guest steps executed while
	// the chooser was still consuming a recorded prefix. The full-replay
	// reference re-runs every prefix; the snapshot stack restores or
	// fast-forwards them (ffwd operations skip step accounting).
	ReplaySteps int64 `json:"replay_steps,omitempty"`

	// Partial-order reduction. RFElisions is a deterministic property of
	// the candidate sets and stays canonical; the fingerprint seen-set
	// counters depend on which worker visited an equivalence class first
	// and are zeroed by Canonical.
	RFElisions        int64 `json:"rf_elisions,omitempty"`
	ScenariosPruned   int64 `json:"scenarios_pruned,omitempty"`
	FingerprintHits   int64 `json:"fingerprint_hits,omitempty"`
	FingerprintMisses int64 `json:"fingerprint_misses,omitempty"`

	// Parallel driver (depends on scheduling; zeroed by Canonical).
	FrontierPushed  int64 `json:"frontier_pushed,omitempty"`
	FrontierClaimed int64 `json:"frontier_claimed,omitempty"`
	Donations       int64 `json:"donations,omitempty"`
	MaxFrontierLen  int64 `json:"max_frontier_len,omitempty"`
	Workers         int64 `json:"workers,omitempty"`

	// Distributed exploration (coordinator-side; depends on fleet timing
	// and fault injection, zeroed by Canonical).
	LeasesGranted  int64 `json:"leases_granted,omitempty"`
	LeasesExpired  int64 `json:"leases_expired,omitempty"`
	LeasesReleased int64 `json:"leases_released,omitempty"`
	LeaseRequeues  int64 `json:"lease_requeues,omitempty"`
	RPCs           int64 `json:"rpcs,omitempty"`

	// Wire-level data plane (depends on codec, batching, and fleet timing;
	// zeroed by Canonical). CommitBatchSize is the average scenarios carried
	// per absorbed delta commit.
	BytesTx         int64 `json:"bytes_tx,omitempty"`
	BytesRx         int64 `json:"bytes_rx,omitempty"`
	CommitBatchSize int64 `json:"commit_batch_size,omitempty"`

	// Events emitted to the JSONL stream, if one was attached.
	Events int64 `json:"events,omitempty"`
}

// AddVec folds a raw counter vector into the snapshot, applying the same
// reporting rules as Registry.Snapshot: restore-satisfied decisions are
// reported separately from live replays (internally restores accumulate into
// ChoicesReplayed — the partition-independent total — and the split happens
// here, at the reporting edge), and Executions is recomputed as
// ExecutionsPost plus the shared pre-failure execution.
func (m Metrics) AddVec(v CounterVec) Metrics {
	m.Scenarios += v[Scenarios]
	m.ExecutionsPost += v[ExecutionsPost]
	m.Executions = m.ExecutionsPost + 1 // the shared pre-failure execution
	m.Steps += v[Steps]
	m.PreFailureNs += v[PreFailureNs]
	m.PostFailureNs += v[PostFailureNs]
	m.ReplayNs += v[ReplayNs]
	m.LoadSBHits += v[LoadSBHits]
	m.LoadCacheHits += v[LoadCacheHits]
	m.LoadRefinements += v[LoadRefinements]
	m.RFCandidates += v[RFCandidates]
	m.ChoicesReplayed += v[ChoicesReplayed] - v[ChoicesRestored]
	m.ChoicesRestored += v[ChoicesRestored]
	m.ChoicesFresh += v[ChoicesFresh]
	m.SBEvictions += v[SBEvictions]
	m.FBWritebacks += v[FBWritebacks]
	m.SnapshotCaptures += v[SnapshotCaptures]
	m.SnapshotRestores += v[SnapshotRestores]
	m.SnapshotRestoreNs += v[SnapshotRestoreNs]
	m.RFElisions += v[RFElisions]
	m.ScenariosPruned += v[ScenariosPruned]
	m.FingerprintHits += v[FingerprintHits]
	m.FingerprintMisses += v[FingerprintMisses]
	m.ChoiceSnapCaptures += v[ChoiceSnapCaptures]
	m.ChoiceRestores += v[ChoiceRestores]
	m.ChoiceRestoreNs += v[ChoiceRestoreNs]
	m.ReplayStepsSaved += v[ReplayStepsSaved]
	m.RefinementsSkipped += v[RefinementsSkipped]
	m.ReplaySteps += v[ReplaySteps]
	return m
}

// Canonical returns a copy with the fields that legitimately differ from
// run to run zeroed — wall-clock phase timings and the driver-dependent
// frontier/worker/event accounting — leaving exactly the counters that
// must be identical between a serial exploration and a full parallel
// exploration of the same program.
func (m Metrics) Canonical() Metrics {
	m.PreFailureNs, m.PostFailureNs, m.ReplayNs = 0, 0, 0
	m.FrontierPushed, m.FrontierClaimed, m.Donations = 0, 0, 0
	m.MaxFrontierLen, m.Workers, m.Events = 0, 0, 0
	m.SnapshotCaptures, m.SnapshotRestores = 0, 0
	m.SnapshotRestoreNs, m.MaxSnapshotBytes = 0, 0
	// Fold restore-satisfied decisions back into the replay total: the sum
	// is what is partition- and engine-independent.
	m.ChoicesReplayed += m.ChoicesRestored
	m.ChoicesRestored = 0
	m.ChoiceSnapCaptures, m.ChoiceRestores, m.ChoiceRestoreNs = 0, 0, 0
	m.ReplayStepsSaved, m.RefinementsSkipped, m.ReplaySteps = 0, 0, 0
	m.ScenariosPruned, m.FingerprintHits, m.FingerprintMisses = 0, 0, 0
	m.LeasesGranted, m.LeasesExpired, m.LeasesReleased = 0, 0, 0
	m.LeaseRequeues, m.RPCs = 0, 0
	m.BytesTx, m.BytesRx, m.CommitBatchSize = 0, 0, 0
	return m
}
