package benchlist

import (
	"testing"

	"jaaru/internal/core"
)

// TestParallelDonationCost gates what sharing the work costs: a donated claim
// re-enters by replay and captures its own snapshots on the way down, so the
// physical cost of Workers: 2 over serial is set by how many claims change
// hands and how deep they start. On P-ART's comb, half-the-open-set claims
// keep snapshot captures and replayed steps within 2x of serial in a handful
// of donations; donating one failure point's subtree at a time took hundreds
// of donations, 27x the captures and 7x the replayed steps.
func TestParallelDonationCost(t *testing.T) {
	part := Find("part")
	serial := core.New(part.Build(64, false), core.Options{Observe: true}).Run().Metrics
	par := core.New(part.Build(64, false), core.Options{Observe: true, Workers: 2}).Run().Metrics
	t.Logf("serial: %d captures, %d replayed steps; workers=2: %d captures, %d replayed steps, %d donations",
		serial.SnapshotCaptures, serial.ReplaySteps, par.SnapshotCaptures, par.ReplaySteps, par.Donations)
	if par.SnapshotCaptures > 2*serial.SnapshotCaptures {
		t.Errorf("workers=2 captured %d snapshots, serial %d: want within 2x", par.SnapshotCaptures, serial.SnapshotCaptures)
	}
	if par.ReplaySteps > 2*serial.ReplaySteps {
		t.Errorf("workers=2 replayed %d steps, serial %d: want within 2x", par.ReplaySteps, serial.ReplaySteps)
	}
	if par.Donations > 16 {
		t.Errorf("workers=2 made %d donations, want <= 16", par.Donations)
	}
}
