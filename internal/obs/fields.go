package obs

import "unsafe"

// Metrics is one merged snapshot of the registry, one int64 per row of
// Fields (same order), so two snapshots compare with ==. Fields says where
// each value comes from, whether Canonical keeps it and how `jaaru -metrics`
// prints it; the Counter and Peak docs and the Registry's Note methods say
// what each one counts.
// ChoicesReplayed is the live replay count here: Snapshot splits the
// restore-satisfied decisions out as ChoicesRestored, and Canonical folds
// them back.
type Metrics struct {
	Scenarios      int64 `json:"scenarios"`
	Executions     int64 `json:"executions"`
	ExecutionsPost int64 `json:"executions_post"`
	Steps          int64 `json:"steps"`

	PreFailureNs  int64 `json:"pre_failure_ns"`
	PostFailureNs int64 `json:"post_failure_ns"`
	ReplayNs      int64 `json:"replay_ns"`

	LoadSBHits      int64 `json:"load_sb_hits"`
	LoadCacheHits   int64 `json:"load_cache_hits"`
	LoadRefinements int64 `json:"load_refinements"`
	RFCandidates    int64 `json:"rf_candidates"`
	MaxRFCandidates int64 `json:"max_rf_candidates"`

	ChoicesReplayed int64 `json:"choices_replayed"`
	ChoicesRestored int64 `json:"choices_restored,omitempty"`
	ChoicesFresh    int64 `json:"choices_fresh"`
	MaxChoiceDepth  int64 `json:"max_choice_depth"`

	SBEvictions    int64 `json:"sb_evictions"`
	FBWritebacks   int64 `json:"fb_writebacks"`
	MaxSBOccupancy int64 `json:"max_sb_occupancy"`
	MaxFBOccupancy int64 `json:"max_fb_occupancy"`

	SnapshotCaptures  int64 `json:"snapshot_captures,omitempty"`
	SnapshotRestores  int64 `json:"snapshot_restores,omitempty"`
	SnapshotRestoreNs int64 `json:"snapshot_restore_ns,omitempty"`
	MaxSnapshotBytes  int64 `json:"max_snapshot_bytes,omitempty"`

	ChoiceSnapCaptures int64 `json:"choice_snap_captures,omitempty"`
	ChoiceRestores     int64 `json:"choice_restores,omitempty"`
	ChoiceRestoreNs    int64 `json:"choice_restore_ns,omitempty"`
	ReplayStepsSaved   int64 `json:"replay_steps_saved,omitempty"`
	RefinementsSkipped int64 `json:"refinements_skipped,omitempty"`
	ReplaySteps        int64 `json:"replay_steps,omitempty"`

	RFElisions        int64 `json:"rf_elisions,omitempty"`
	ScenariosPruned   int64 `json:"scenarios_pruned,omitempty"`
	FingerprintHits   int64 `json:"fingerprint_hits,omitempty"`
	FingerprintMisses int64 `json:"fingerprint_misses,omitempty"`

	FrontierPushed  int64 `json:"frontier_pushed,omitempty"`
	FrontierClaimed int64 `json:"frontier_claimed,omitempty"`
	Donations       int64 `json:"donations,omitempty"`
	MaxFrontierLen  int64 `json:"max_frontier_len,omitempty"`
	Workers         int64 `json:"workers,omitempty"`

	LeasesGranted  int64 `json:"leases_granted,omitempty"`
	LeasesExpired  int64 `json:"leases_expired,omitempty"`
	LeasesReleased int64 `json:"leases_released,omitempty"`
	LeaseRequeues  int64 `json:"lease_requeues,omitempty"`
	RPCs           int64 `json:"rpcs,omitempty"`

	BytesTx         int64 `json:"bytes_tx,omitempty"`
	BytesRx         int64 `json:"bytes_rx,omitempty"`
	CommitBatchSize int64 `json:"commit_batch_size,omitempty"`

	Events int64 `json:"events,omitempty"`
}

// Source says where a Metrics field's value comes from.
type Source uint8

const (
	// FromCounter: the shard Counter Field.Index, summed across shards.
	FromCounter Source = iota
	// FromPeak: the shard Peak Field.Index, merged across shards by max.
	FromPeak
	// FromSignal: the registry's driver signal Field.Index.
	FromSignal
	// Derived: computed from the other values when the snapshot is taken.
	Derived
)

// Block is the `jaaru -metrics` block a field prints in; Open says when.
type Block uint8

const (
	BlockAlways Block = iota
	BlockSnapshots
	BlockChoiceSnapshots
	BlockPOR
	BlockWorkers
	BlockEvents
)

// Open reports whether block b prints for m: a block shows once its
// mechanism has done something.
func (b Block) Open(m *Metrics) bool {
	switch b {
	case BlockSnapshots:
		return m.SnapshotCaptures > 0
	case BlockChoiceSnapshots:
		return m.ChoiceSnapCaptures > 0
	case BlockPOR:
		return m.RFElisions > 0 || m.FingerprintHits > 0 || m.FingerprintMisses > 0
	case BlockWorkers:
		return m.Workers > 1
	case BlockEvents:
		return m.Events > 0
	}
	return true
}

// Field defines one Metrics field. Fields has one per field, in field
// order; adding a metric is one Metrics field plus one row (and, for a shard
// counter, its Counter).
type Field struct {
	// Name is the json tag, the Prometheus family jaaru_<Name> and, for a
	// counter, Counter.String. A name ending in _ns is wall-clock time and
	// prints as a duration.
	Name   string
	Source Source
	// Index is the Counter, Peak or signal the value comes from.
	Index int
	// Canonical fields must be identical between a serial and a complete
	// parallel exploration of the same program; Metrics.Canonical zeroes
	// the rest: wall-clock time, snapshot-stack and POR seen-set activity,
	// and driver, lease and wire accounting.
	Canonical bool
	// Carried counters are replayed through the counter vector of a
	// recorded delta — a snapshot entry's skipped prefix or a published
	// POR subtree. Whoever re-applies a delta accounts for the others
	// itself: per-scenario bookkeeping (Scenarios; Steps travels as a
	// scalar beside the vec), the analytic choice counters (the skipped
	// prefix length, not what the recording run counted as fresh),
	// wall-clock time, and the snapshot stack's and POR layer's own
	// counters.
	Carried bool
	// Label is the field's `jaaru -metrics` row ("" = not printed), Line
	// its position in that block, from 1.
	Label string
	Block Block
	Line  int
	// derive computes a Derived field from the snapshot's other values.
	derive func(m *Metrics, sig *[numSignals]int64) int64
}

// NumFields is the number of Metrics fields.
const NumFields = len(Fields)

// Metrics must be exactly one int64 per row of Fields
// (TestCanonicalZeroesEveryTimingCounter checks the names against the json
// tags, in order).
var _ = [1]int{}[unsafe.Sizeof(Metrics{})-8*uintptr(NumFields)]

// Fields is the one definition of every metric. Read-only.
var Fields = [...]Field{
	{Name: "scenarios", Index: int(Scenarios), Canonical: true, Label: "scenarios", Line: 1},
	{Name: "executions", Source: Derived, derive: executions, Canonical: true, Label: "executions", Line: 2},
	{Name: "executions_post", Index: int(ExecutionsPost), Canonical: true, Carried: true, Label: "post-failure executions", Line: 3},
	{Name: "steps", Index: int(Steps), Canonical: true, Label: "guest steps", Line: 4},
	{Name: "pre_failure_ns", Index: int(PreFailureNs), Label: "pre-failure time", Line: 5},
	{Name: "post_failure_ns", Index: int(PostFailureNs), Label: "post-failure time", Line: 6},
	{Name: "replay_ns", Index: int(ReplayNs), Label: "replay time", Line: 7},
	{Name: "load_sb_hits", Index: int(LoadSBHits), Canonical: true, Carried: true, Label: "loads: store-buffer hits", Line: 8},
	{Name: "load_cache_hits", Index: int(LoadCacheHits), Canonical: true, Carried: true, Label: "loads: cache hits", Line: 9},
	{Name: "load_refinements", Index: int(LoadRefinements), Canonical: true, Carried: true, Label: "loads: refinements", Line: 10},
	{Name: "rf_candidates", Index: int(RFCandidates), Canonical: true, Carried: true, Label: "rf candidates (total)", Line: 11},
	{Name: "max_rf_candidates", Source: FromPeak, Index: int(PeakRFCandidates), Canonical: true, Label: "rf candidates (max)", Line: 12},
	{Name: "choices_replayed", Index: int(ChoicesReplayed), Canonical: true, Label: "choices replayed", Line: 13},
	{Name: "choices_restored", Index: int(ChoicesRestored), Label: "choices restored", Line: 14},
	{Name: "choices_fresh", Index: int(ChoicesFresh), Canonical: true, Label: "choices fresh", Line: 15},
	{Name: "max_choice_depth", Source: FromPeak, Index: int(PeakChoiceDepth), Canonical: true, Label: "choice depth (max)", Line: 17},
	{Name: "sb_evictions", Index: int(SBEvictions), Canonical: true, Carried: true, Label: "store-buffer evictions", Line: 18},
	{Name: "fb_writebacks", Index: int(FBWritebacks), Canonical: true, Carried: true, Label: "flush-buffer writebacks", Line: 19},
	{Name: "max_sb_occupancy", Source: FromPeak, Index: int(PeakSB), Canonical: true, Label: "store-buffer occupancy (max)", Line: 20},
	{Name: "max_fb_occupancy", Source: FromPeak, Index: int(PeakFB), Canonical: true, Label: "flush-buffer occupancy (max)", Line: 21},

	{Name: "snapshot_captures", Index: int(SnapshotCaptures), Label: "snapshots captured", Block: BlockSnapshots, Line: 22},
	{Name: "snapshot_restores", Index: int(SnapshotRestores), Label: "snapshots restored", Block: BlockSnapshots, Line: 23},
	{Name: "snapshot_restore_ns", Index: int(SnapshotRestoreNs), Label: "snapshot restore time", Block: BlockSnapshots, Line: 24},
	{Name: "max_snapshot_bytes", Source: FromPeak, Index: int(PeakSnapshotBytes), Label: "snapshot bytes (max)", Block: BlockSnapshots, Line: 25},

	{Name: "choice_snap_captures", Index: int(ChoiceSnapCaptures), Label: "choice snapshots captured", Block: BlockChoiceSnapshots, Line: 26},
	{Name: "choice_restores", Index: int(ChoiceRestores), Label: "choice snapshots restored", Block: BlockChoiceSnapshots, Line: 27},
	{Name: "choice_restore_ns", Index: int(ChoiceRestoreNs), Label: "choice restore time", Block: BlockChoiceSnapshots, Line: 28},
	{Name: "replay_steps_saved", Index: int(ReplayStepsSaved), Label: "replay steps saved", Block: BlockChoiceSnapshots, Line: 29},
	{Name: "refinements_skipped", Index: int(RefinementsSkipped), Label: "refinements skipped", Block: BlockChoiceSnapshots, Line: 30},
	{Name: "replay_steps", Index: int(ReplaySteps), Label: "replayed guest steps", Line: 16},

	{Name: "rf_elisions", Index: int(RFElisions), Canonical: true, Carried: true, Label: "rf elisions", Block: BlockPOR, Line: 31},
	{Name: "scenarios_pruned", Index: int(ScenariosPruned), Label: "scenarios pruned", Block: BlockPOR, Line: 32},
	{Name: "fingerprint_hits", Index: int(FingerprintHits), Label: "fingerprint hits", Block: BlockPOR, Line: 33},
	{Name: "fingerprint_misses", Index: int(FingerprintMisses), Label: "fingerprint misses", Block: BlockPOR, Line: 34},

	{Name: "frontier_pushed", Source: FromSignal, Index: int(sigFrontierPushed), Label: "frontier pushed", Block: BlockWorkers, Line: 36},
	{Name: "frontier_claimed", Source: FromSignal, Index: int(sigFrontierClaimed), Label: "frontier claimed", Block: BlockWorkers, Line: 37},
	{Name: "donations", Source: FromSignal, Index: int(sigDonations), Label: "donations", Block: BlockWorkers, Line: 38},
	{Name: "max_frontier_len", Source: FromSignal, Index: int(sigFrontierPeak), Label: "frontier length (max)", Block: BlockWorkers, Line: 39},
	{Name: "workers", Source: FromSignal, Index: int(sigWorkers), Label: "workers", Block: BlockWorkers, Line: 35},

	{Name: "leases_granted", Source: FromSignal, Index: int(sigLeasesGranted)},
	{Name: "leases_expired", Source: FromSignal, Index: int(sigLeasesExpired)},
	{Name: "leases_released", Source: FromSignal, Index: int(sigLeasesReleased)},
	{Name: "lease_requeues", Source: FromSignal, Index: int(sigLeaseRequeues)},
	{Name: "rpcs", Source: FromSignal, Index: int(sigRPCs)},
	{Name: "bytes_tx", Source: FromSignal, Index: int(sigBytesTx)},
	{Name: "bytes_rx", Source: FromSignal, Index: int(sigBytesRx)},
	{Name: "commit_batch_size", Source: Derived, derive: commitBatchSize},
	{Name: "events", Source: FromSignal, Index: int(sigEvents), Label: "trace events", Block: BlockEvents, Line: 40},
}

// executions is the scenarios' post-failure executions plus the one
// pre-failure execution they share; none before the first scenario.
func executions(m *Metrics, _ *[numSignals]int64) int64 {
	if m.Scenarios == 0 {
		return 0
	}
	return m.ExecutionsPost + 1
}

func commitBatchSize(_ *Metrics, sig *[numSignals]int64) int64 {
	if sig[sigCommitBatches] == 0 {
		return 0
	}
	return sig[sigCommitScenarios] / sig[sigCommitBatches]
}

// Values returns m's fields in Fields order.
func (m Metrics) Values() [NumFields]int64 { return *m.values() }

func (m *Metrics) values() *[NumFields]int64 { return (*[NumFields]int64)(unsafe.Pointer(m)) }

// Canonical returns a copy with only the Canonical fields kept: exactly the
// counters that must be identical between a serial exploration and a full
// parallel exploration of the same program.
func (m Metrics) Canonical() Metrics {
	// Fold restore-satisfied decisions back into the replay total: the sum
	// is what is partition- and engine-independent.
	m.ChoicesReplayed += m.ChoicesRestored
	v := m.values()
	for i := range Fields {
		if !Fields[i].Canonical {
			v[i] = 0
		}
	}
	return m
}

// KeepCarried zeroes every counter a recorded delta does not carry
// (Field.Carried).
func (v *CounterVec) KeepCarried() {
	for i := range Fields {
		if f := &Fields[i]; f.Source == FromCounter && !f.Carried {
			v[f.Index] = 0
		}
	}
}
