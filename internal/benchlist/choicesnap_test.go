package benchlist

import (
	"fmt"
	"testing"

	"jaaru/internal/core"
	"jaaru/internal/litmus"
	"jaaru/internal/pmdk"
	"jaaru/internal/recipe"
)

// assertChoiceSnapEquivalent is the bit-identity gate for the snapshot
// stack: the exploration-level Result fields, the canonical observability
// counters, and the canonical bug order (type, message, count, choice vector,
// in sequence) must all match the replay oracle exactly.
func assertChoiceSnapEquivalent(t *testing.T, label string, ref, got *core.Result) {
	t.Helper()
	if got.Scenarios != ref.Scenarios {
		t.Errorf("%s: Scenarios = %d, ref %d", label, got.Scenarios, ref.Scenarios)
	}
	if got.Executions != ref.Executions {
		t.Errorf("%s: Executions = %d, ref %d", label, got.Executions, ref.Executions)
	}
	if got.FailurePoints != ref.FailurePoints {
		t.Errorf("%s: FailurePoints = %d, ref %d", label, got.FailurePoints, ref.FailurePoints)
	}
	if got.Steps != ref.Steps {
		t.Errorf("%s: Steps = %d, ref %d", label, got.Steps, ref.Steps)
	}
	if got.RFChoicePoints != ref.RFChoicePoints {
		t.Errorf("%s: RFChoicePoints = %d, ref %d", label, got.RFChoicePoints, ref.RFChoicePoints)
	}
	if got.FailDecisionPoints != ref.FailDecisionPoints {
		t.Errorf("%s: FailDecisionPoints = %d, ref %d", label, got.FailDecisionPoints, ref.FailDecisionPoints)
	}
	if got.MaxRFCandidates != ref.MaxRFCandidates {
		t.Errorf("%s: MaxRFCandidates = %d, ref %d", label, got.MaxRFCandidates, ref.MaxRFCandidates)
	}
	if got.Complete != ref.Complete {
		t.Errorf("%s: Complete = %v, ref %v", label, got.Complete, ref.Complete)
	}
	if len(got.Bugs) != len(ref.Bugs) {
		t.Fatalf("%s: %d bugs, ref %d", label, len(got.Bugs), len(ref.Bugs))
	}
	for i := range ref.Bugs {
		r, g := ref.Bugs[i], got.Bugs[i]
		if g.Type != r.Type || g.Message != r.Message || g.Count != r.Count || g.Choices != r.Choices {
			t.Errorf("%s: bug %d out of canonical order:\nref: %v (count %d, choices %q)\ngot: %v (count %d, choices %q)",
				label, i, r, r.Count, r.Choices, g, g.Count, g.Choices)
		}
	}
	if (ref.Metrics == nil) != (got.Metrics == nil) {
		t.Fatalf("%s: metrics presence differs", label)
	}
	if ref.Metrics != nil {
		rc, gc := ref.Metrics.Canonical(), got.Metrics.Canonical()
		if rc != gc {
			t.Errorf("%s: canonical metrics differ:\nref: %+v\ngot: %+v", label, rc, gc)
		}
	}
}

// choiceSnapCases is the cross-layer sweep set: the paper's running example
// shapes (commitstore, clean and buggy, plus a two-failure variant), the
// RECIPE structures in insert and update form, and the transactional PMDK
// structures — each built fresh per run.
func choiceSnapCases() []struct {
	name  string
	build func() core.Program
	opts  core.Options
} {
	commitstore := Find("commitstore")
	return []struct {
		name  string
		build func() core.Program
		opts  core.Options
	}{
		{"commitstore", func() core.Program { return commitstore.Build(0, false) }, core.Options{}},
		{"commitstore-buggy", func() core.Program { return commitstore.Build(0, true) }, core.Options{}},
		{"commitstore-2failures", func() core.Program { return commitstore.Build(0, false) },
			core.Options{MaxFailures: 2}},
		{"cceh", func() core.Program { return recipe.CCEHWorkload(3, recipe.CCEHBugs{}) }, core.Options{}},
		{"clht", func() core.Program { return recipe.CLHTWorkload(2, recipe.CLHTBugs{}) }, core.Options{}},
		{"fastfair-buggy", func() core.Program {
			return recipe.FastFairWorkload(3, recipe.FFBugs{NoHeaderFlush: true})
		}, core.Options{}},
		{"cceh-update", func() core.Program { return recipe.CCEHUpdateWorkload(3, 6) }, core.Options{}},
		{"btree", func() core.Program {
			return pmdk.BTreeWorkload(4, pmdk.CreateBugs{}, pmdk.BTreeBugs{})
		}, core.Options{}},
		{"hashmap_tx-buggy", func() core.Program {
			return pmdk.HashmapTXWorkload(3, pmdk.HashmapTXBugs{Tx: pmdk.TxBugs{NoEntryFlush: true}})
		}, core.Options{}},
	}
}

// TestChoiceSnapshotEquivalenceWorkloads sweeps the RECIPE/PMDK/example
// workloads across {POR on, off} x {1, 4 workers}: every configuration of
// the snapshot stack must produce a bit-identical exploration to the replay
// oracle (Snapshots: -1, every scenario re-run from scratch) of the same
// (POR, workers=1) cell.
func TestChoiceSnapshotEquivalenceWorkloads(t *testing.T) {
	for _, tc := range choiceSnapCases() {
		for _, por := range []int{1, -1} {
			base := tc.opts
			base.POR = por
			base.Observe = true

			refOpts := base
			refOpts.Snapshots = -1
			ref := core.New(tc.build(), refOpts).Run()

			for _, workers := range []int{1, 4} {
				onOpts := base
				onOpts.Workers = workers
				label := fmt.Sprintf("%s por=%d workers=%d", tc.name, por, workers)
				got := core.New(tc.build(), onOpts).Run()
				assertChoiceSnapEquivalent(t, label, ref, got)
			}
		}
	}
}

// TestChoiceSnapshotEquivalenceLitmus runs the litmus suite under the replay
// oracle (off) and the snapshot stack (on): the observation sets (the litmus
// contract itself) and the exploration results must be identical.
func TestChoiceSnapshotEquivalenceLitmus(t *testing.T) {
	for _, tst := range litmus.Tests() {
		off := tst
		off.Opts.Snapshots = -1
		off.Opts.Observe = true
		obsOff, resOff := litmus.Run(off)

		on := tst
		on.Opts.Observe = true
		obsOn, resOn := litmus.Run(on)

		if len(obsOff) != len(obsOn) {
			t.Errorf("%s: observation sets differ: off %v, on %v", tst.Name, obsOff, obsOn)
			continue
		}
		for i := range obsOff {
			if obsOff[i] != obsOn[i] {
				t.Errorf("%s: observation sets differ: off %v, on %v", tst.Name, obsOff, obsOn)
				break
			}
		}
		assertChoiceSnapEquivalent(t, tst.Name, resOff, resOn)
	}
}
