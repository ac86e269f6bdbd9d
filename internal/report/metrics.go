package report

import (
	"time"

	"jaaru/internal/obs"
)

// Metrics renders merged observability counters as the key/value block
// `jaaru -metrics` prints under its summary; the benchmark harness parses it
// by these labels.
func Metrics(m *obs.Metrics) string {
	dur := func(ns int64) string {
		return time.Duration(ns).Round(time.Microsecond).String()
	}
	kvs := []KV{
		{Key: "scenarios", Value: m.Scenarios},
		{Key: "executions", Value: m.Executions},
		{Key: "post-failure executions", Value: m.ExecutionsPost},
		{Key: "guest steps", Value: m.Steps},
		{Key: "pre-failure time", Value: dur(m.PreFailureNs)},
		{Key: "post-failure time", Value: dur(m.PostFailureNs)},
		{Key: "replay time", Value: dur(m.ReplayNs)},
		{Key: "loads: store-buffer hits", Value: m.LoadSBHits},
		{Key: "loads: cache hits", Value: m.LoadCacheHits},
		{Key: "loads: refinements", Value: m.LoadRefinements},
		{Key: "rf candidates (total)", Value: m.RFCandidates},
		{Key: "rf candidates (max)", Value: m.MaxRFCandidates},
		{Key: "choices replayed", Value: m.ChoicesReplayed},
		{Key: "choices restored", Value: m.ChoicesRestored},
		{Key: "choices fresh", Value: m.ChoicesFresh},
		{Key: "replayed guest steps", Value: m.ReplaySteps},
		{Key: "choice depth (max)", Value: m.MaxChoiceDepth},
		{Key: "store-buffer evictions", Value: m.SBEvictions},
		{Key: "flush-buffer writebacks", Value: m.FBWritebacks},
		{Key: "store-buffer occupancy (max)", Value: m.MaxSBOccupancy},
		{Key: "flush-buffer occupancy (max)", Value: m.MaxFBOccupancy},
	}
	if m.SnapshotCaptures > 0 {
		kvs = append(kvs,
			KV{Key: "snapshots captured", Value: m.SnapshotCaptures},
			KV{Key: "snapshots restored", Value: m.SnapshotRestores},
			KV{Key: "snapshot restore time", Value: dur(m.SnapshotRestoreNs)},
			KV{Key: "snapshot bytes (max)", Value: m.MaxSnapshotBytes})
	}
	if m.ChoiceSnapCaptures > 0 {
		kvs = append(kvs,
			KV{Key: "choice snapshots captured", Value: m.ChoiceSnapCaptures},
			KV{Key: "choice snapshots restored", Value: m.ChoiceRestores},
			KV{Key: "choice restore time", Value: dur(m.ChoiceRestoreNs)},
			KV{Key: "replay steps saved", Value: m.ReplayStepsSaved},
			KV{Key: "refinements skipped", Value: m.RefinementsSkipped})
	}
	if m.RFElisions > 0 || m.FingerprintHits > 0 || m.FingerprintMisses > 0 {
		kvs = append(kvs,
			KV{Key: "rf elisions", Value: m.RFElisions},
			KV{Key: "scenarios pruned", Value: m.ScenariosPruned},
			KV{Key: "fingerprint hits", Value: m.FingerprintHits},
			KV{Key: "fingerprint misses", Value: m.FingerprintMisses})
	}
	if m.Workers > 1 {
		kvs = append(kvs,
			KV{Key: "workers", Value: m.Workers},
			KV{Key: "frontier pushed", Value: m.FrontierPushed},
			KV{Key: "frontier claimed", Value: m.FrontierClaimed},
			KV{Key: "donations", Value: m.Donations},
			KV{Key: "frontier length (max)", Value: m.MaxFrontierLen})
	}
	if m.Events > 0 {
		kvs = append(kvs, KV{Key: "trace events", Value: m.Events})
	}
	return KVBlock("observability", kvs)
}
