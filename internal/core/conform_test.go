package core_test

import (
	"encoding/json"
	"fmt"
	"testing"

	"jaaru/internal/conform"
	"jaaru/internal/core"
)

// witnessed views r with each bug's witness, as JSON, for its evidence: one
// replay per bug with the forensics hooks armed.
func witnessed(t *testing.T, r *core.Result, observed []string) conform.View {
	t.Helper()
	v := conform.Served(r, nil, observed)
	for i := range r.Bugs {
		w, err := r.Witness(i)
		if err != nil {
			t.Fatalf("%s: witness of bug %d: %v", r.Program, i, err)
		}
		js, _ := json.Marshal(w)
		v.Evidence = append(v.Evidence, string(js))
	}
	return v
}

// run runs prog's row, its own reference asserted by check, under cols.
func run(t *testing.T, prog core.Program, opts core.Options, check func(testing.TB, *core.Result), cols ...conform.Column) {
	rw := conform.Row{Name: prog.Name, Build: func(func(string)) core.Program { return prog }, Opts: opts, Check: check}
	conform.Run(t, []conform.Row{rw}, cols, nil)
}

// TestParallelMatchesSerial: partitioning a tree with width at several depths
// across 2, 4 and 7 workers changes nothing a run reports, canonical counters
// included.
func TestParallelMatchesSerial(t *testing.T) {
	run(t, core.ParallelTreeProgram(), core.Options{}, nil,
		conform.Workers(2), conform.Workers(4), conform.Workers(7), conform.SnapshotsOff, conform.POROff)
}

// TestParallelMatchesSerialWithBugs: bug reports merge into the serial run's
// canonical order, counts and choice vectors.
func TestParallelMatchesSerialWithBugs(t *testing.T) {
	prog := core.Program{
		Name: "parallel-bugs",
		Run: func(c *core.Context) {
			r := c.Root()
			c.Store64(r, 7)
			c.Clflush(r, 8)
			c.Store64(r.Add(64), 9)
			c.Clflush(r.Add(64), 8)
		},
		Recover: func(c *core.Context) {
			r := c.Root()
			a, b := c.Load64(r), c.Load64(r.Add(64))
			c.Assert(b == 0 || a == 7, "second line persisted before first: a=%d b=%d", a, b)
			if a == 7 && b == 9 {
				c.Bug("both lines persisted")
			}
		},
	}
	run(t, prog, core.Options{}, func(t testing.TB, ref *core.Result) {
		if !ref.Buggy() {
			t.Fatal("program expected to be buggy")
		}
	}, conform.Workers(4))
}

// TestParallelSmallTreeManyWorkers: many more workers than scenarios. The
// frontier's refill path (pop's wait and the donations it solicits) must not
// stall when the tree is exhausted before most workers ever receive a branch:
// pop blocks only while claims are outstanding (pending > 0) and every
// consumer is released by the final finish broadcast. Regression test for the
// small-tree liveness audit documented on frontier.pop.
func TestParallelSmallTreeManyWorkers(t *testing.T) {
	prog := core.Program{
		Name: "litmus-tiny",
		Run: func(c *core.Context) {
			r := c.Root()
			c.Store64(r, 1)
			c.Clflush(r, 8)
		},
		Recover: func(c *core.Context) { _ = c.Load64(c.Root()) },
	}
	// The stall this guards against was timing-dependent: 50 runs give the
	// 8-worker pool many chances to race pop/finish/stop.
	var cols []conform.Column
	for i := range 50 {
		col := conform.Workers(8)
		col.Name += fmt.Sprintf("/iter=%d", i)
		cols = append(cols, col)
	}
	run(t, prog, core.Options{}, func(t testing.TB, ref *core.Result) {
		if ref.Scenarios > 4 {
			t.Fatalf("litmus workload grew to %d scenarios; this test needs workers >> scenarios", ref.Scenarios)
		}
	}, cols...)
}

// A worker clone of a no-failure-injection exploration must keep injection
// disabled (MaxFailures sentinel survives the clone's re-normalization),
// so serial and parallel direct executions agree.
func TestParallelPreservesDisabledFailureInjection(t *testing.T) {
	prog := core.Program{
		Name: "direct",
		Run: func(c *core.Context) {
			r := c.Root()
			c.Store64(r, 1)
			c.Clflush(r, 8)
			c.Store64(r.Add(64), 2)
			c.Clflush(r.Add(64), 8)
		},
		Recover: func(c *core.Context) { _ = c.Load64(c.Root()) },
	}
	run(t, prog, core.Options{MaxFailures: -1}, func(t testing.TB, ref *core.Result) {
		if ref.Executions != 1 || ref.Scenarios != 1 {
			t.Fatalf("serial direct execution explored %d executions / %d scenarios", ref.Executions, ref.Scenarios)
		}
	}, conform.Workers(4))
}

// PerfIssue merging must be partition-independent: under Workers>1 the
// per-location Count totals and the canonical example Line must match the
// serial run exactly. The guest flushes the same source location against
// several cache lines in descending order, so a first-seen representative
// would report the highest line serially and an arbitrary one in parallel.
func TestParallelPerfIssuesMatchSerial(t *testing.T) {
	prog := core.Program{
		Name: "perf-partition",
		Run: func(c *core.Context) {
			r := c.Root()
			for i := uint64(3); i > 0; i-- { // descending: lines 128, 64, 0
				line := r.Add((i - 1) * 64)
				c.Store64(line, i)
				c.Clflush(line, 8)
				c.Clflush(line, 8) // redundant, same source location each time
			}
			c.Sfence() // redundant: empty flush buffer
		},
		Recover: func(c *core.Context) {
			r := c.Root()
			for i := uint64(0); i < 3; i++ {
				_ = c.Load64(r.Add(i * 64))
			}
		},
	}
	run(t, prog, core.Options{FlagPerfIssues: true}, func(t testing.TB, ref *core.Result) {
		if ref.Buggy() || len(ref.PerfIssues) == 0 {
			t.Fatalf("bugs %v, perf issues %v", ref.Bugs, ref.PerfIssues)
		}
		// The serial representative must already be canonical: the
		// smallest line, although the largest was seen first.
		for _, p := range ref.PerfIssues {
			if p.Kind == core.PerfRedundantFlush && p.Line != core.PoolBase.Line() {
				t.Errorf("serial representative line = %v, want the smallest %v", p.Line, core.PoolBase.Line())
			}
		}
	}, conform.Workers(4))
}

// Witness building is independent of how the exploration that found the bug
// was partitioned: the canonical bug representative is the same, so the
// witness is too, byte for byte as JSON.
func TestBuildWitnessSerialParallelIdentical(t *testing.T) {
	prog := core.BuggyReplayProgram()
	rs := core.New(prog, core.Options{}).Run()
	rp := core.New(prog, core.Options{Workers: 4}).Run()
	if !rs.Buggy() {
		t.Fatal("no bug")
	}
	conform.Exact(t, "workers=4", conform.Partitioned(witnessed(t, rs, nil)), conform.Partitioned(witnessed(t, rp, nil)))
}
