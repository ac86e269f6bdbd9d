package benchlist

import (
	"fmt"
	"testing"

	"jaaru/internal/core"
	"jaaru/internal/dist"
	"jaaru/internal/recipe"
)

// TestFigure14Conformance: the six fixed RECIPE programs of the paper's
// Figure 14 (§5.2) explore identically under each configuration that exists
// to make exploration cheaper — the full-replay oracle (Snapshots: -1), the
// unpruned oracle (POR: -1), four in-process workers, and a fleet of two over
// netsim whose first worker is killed mid-lease and requeued after its TTL.
// Every cell matches the serial reference on Result counts, Complete, bug
// keys in order and the canonical counters.
//
// The POR: -1 cell leaves out RFElisions and RFCandidates: an elided
// same-value read skips its refinement, so later loads of that byte see the
// unrefined interval's candidates. Those two counters are POR's own
// accounting (see internal/core/por.go); everything else must agree.
func TestFigure14Conformance(t *testing.T) {
	resolve := func(spec dist.ProgSpec) (core.Program, error) {
		for _, p := range recipe.PerfWorkloads(1) {
			if p.Name == spec.Bench {
				return p, nil
			}
		}
		return core.Program{}, fmt.Errorf("no Figure 14 program %q", spec.Bench)
	}
	ref := core.Options{Observe: true}
	columns := []struct {
		name  string
		opts  core.Options
		fleet bool
	}{
		{"snapshots=-1", core.Options{Observe: true, Snapshots: -1}, false},
		{"por=-1", core.Options{Observe: true, POR: -1}, false},
		{"workers=4", core.Options{Observe: true, Workers: 4}, false},
		{"fleet-of-2-killed", ref, true},
	}
	for _, prog := range recipe.PerfWorkloads(1) {
		serial := core.New(prog, ref).Run()
		for _, col := range columns {
			t.Run(prog.Name+"/"+col.name, func(t *testing.T) {
				var got *core.Result
				if col.fleet {
					got = fleetOfTwo(t, resolve, dist.ProgSpec{Bench: prog.Name}, col.opts, true)
				} else {
					got = core.New(prog, col.opts).Run()
				}
				want := serial
				if col.opts.POR < 0 {
					want, got = withoutElisions(want), withoutElisions(got)
				}
				assertChoiceSnapEquivalent(t, col.name, want, got)
			})
		}
	}
}

// withoutElisions copies r with POR's own read-from accounting zeroed.
func withoutElisions(r *core.Result) *core.Result {
	c, m := *r, *r.Metrics
	m.RFElisions, m.RFCandidates = 0, 0
	c.Metrics = &m
	return &c
}
