package benchlist

import (
	"fmt"
	"testing"

	"jaaru/internal/core"
)

// hungrySink is the worst-case donation schedule for core.LeaseRunner: it is
// hungry at every cadence-th scenario for as long as the run lasts, so every
// lease is split again and again — down to single options — and each claim it
// is handed is queued for some other runner. Deltas fold into one MergeAcc,
// as at the coordinator; leases run to completion, so residuals are unused.
type hungrySink struct {
	t       *testing.T
	acc     *core.MergeAcc
	cadence int
	calls   int
	queue   []core.WireClaim
}

func (s *hungrySink) Hungry() bool   { s.calls++; return s.calls%s.cadence == 0 }
func (s *hungrySink) Stopped() bool  { return false }
func (s *hungrySink) Draining() bool { return false }

func (s *hungrySink) Commit(splits, _ []core.WireClaim, delta *core.WireStats, _ bool) error {
	for i := range splits {
		if err := splits[i].Validate(); err != nil {
			s.t.Errorf("donated claim does not validate: %v", err)
		}
	}
	s.queue = append(s.queue, splits...)
	return s.acc.Absorb(delta)
}

// TestRangeDonationEquivalence: whatever the split schedule, the claims a
// chooser donates and the limits it keeps partition its work exactly, POR
// memos and clamps included — explored as leases on two alternating runners
// (each with its own POR mirror, synced through the publication log as a
// fleet's are) and merged through MergeAcc, every workload is bit-identical
// to the serial run: Result, canonical counters, bug order.
func TestRangeDonationEquivalence(t *testing.T) {
	cases := choiceSnapCases()
	for _, big := range []struct {
		bench string
		n     int
	}{{"part", 48}, {"cceh-update", 96}, {"pmserver", 12}} {
		b := Find(big.bench)
		cases = append(cases, struct {
			name  string
			build func() core.Program
			opts  core.Options
		}{fmt.Sprintf("%s-%d", big.bench, big.n), func() core.Program { return b.Build(big.n, false) }, core.Options{}})
	}
	for _, tc := range cases {
		opts := tc.opts
		opts.Observe = true
		serial := core.New(tc.build(), opts).Run()
		for _, cadence := range []int{1, 2, 5, 7} {
			sink := &hungrySink{
				t:       t,
				acc:     core.NewMergeAcc(tc.build(), opts),
				cadence: cadence,
				queue:   []core.WireClaim{{}},
			}
			runners := [2]*core.LeaseRunner{
				core.NewLeaseRunner(tc.build(), opts),
				core.NewLeaseRunner(tc.build(), opts),
			}
			var shipped [2]int // publication-log cursors
			leases := 0
			for ; len(sink.queue) > 0; leases++ {
				claim := sink.queue[len(sink.queue)-1]
				sink.queue = sink.queue[:len(sink.queue)-1]
				me, peer := leases%2, 1-leases%2
				if err := runners[me].RunLease([]core.WireClaim{claim}, sink); err != nil {
					t.Fatalf("%s cadence %d: lease %d: %v", tc.name, cadence, leases, err)
				}
				if err := runners[peer].AbsorbPor(runners[me].DrainPor(shipped[me])); err != nil {
					t.Fatal(err)
				}
				shipped[me], shipped[peer] = runners[me].PorVersion(), runners[peer].PorVersion()
			}
			label := fmt.Sprintf("%s cadence=%d (%d leases)", tc.name, cadence, leases)
			assertChoiceSnapEquivalent(t, label, serial, sink.acc.BuildResult(true))
		}
	}
}

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
