package core_test

import (
	"runtime"
	"testing"

	"jaaru/internal/core"
	"jaaru/internal/pmdk"
	"jaaru/internal/recipe"
)

// TestMinimizeTrialBytes gates the heap bytes one minimizer trial allocates,
// averaged over a whole Minimize call once the location cache is warm. The
// trials of one call share one pmem.Pool and recycle one stack, as the
// scenarios of an exploration do; a trial that builds its scenario storage
// afresh allocates 44-98 KB on these three seeded bugs.
func TestMinimizeTrialBytes(t *testing.T) {
	const maxBytes = 16 << 10
	opts := core.Options{FlagMultiRF: true, StopAtFirstBug: true}
	for _, tc := range []struct {
		name  string
		prog  core.Program
		steps int
	}{
		{"pmdk#1", pmdk.BugCases()[0].Program(), 0},
		{"pmdk#4", pmdk.BugCases()[3].Program(), 0},
		{"recipe#7", recipe.BugCases()[6].Program(), 20_000},
	} {
		opts.MaxSteps = tc.steps
		r := core.New(tc.prog, opts).Run()
		if !r.Buggy() {
			t.Fatalf("%s: no bug", tc.name)
		}
		core.Minimize(tc.prog, opts, r.Bugs[0]) // warm-up
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, m := core.Minimize(tc.prog, opts, r.Bugs[0])
		runtime.ReadMemStats(&after)
		perTrial := (after.TotalAlloc - before.TotalAlloc) / uint64(m.Trials)
		t.Logf("%s: %d trials, %d bytes per trial", tc.name, m.Trials, perTrial)
		if perTrial > maxBytes {
			t.Errorf("%s: a minimizer trial allocates %d bytes, want <= %d", tc.name, perTrial, maxBytes)
		}
	}
}
