package jaaru_test

// The public package's rows of the conformance matrix (the full matrix is
// internal/benchlist/conformance_test.go): the litmus corpus, the
// commitstore and walkv examples and representative RECIPE/PMDK workloads,
// run by conform.Run under the full-replay oracle (Snapshots: -1), the
// unpruned oracle (POR: -1) and four workers, each cell compared with the
// row's serial run.

import (
	"fmt"
	"slices"
	"testing"

	"jaaru"
	"jaaru/internal/benchlist"
	"jaaru/internal/conform"
	"jaaru/internal/core"
	"jaaru/internal/litmus"
	"jaaru/internal/pmdk"
	"jaaru/internal/recipe"
	"jaaru/internal/yat"
)

func litmusRows() (rows []conform.Row) {
	for _, tst := range litmus.Tests() {
		rows = append(rows, conform.Row{Name: tst.Name, Build: tst.Prog, Opts: tst.Opts})
	}
	return rows
}

func TestParallelEquivalenceLitmus(t *testing.T) { run(t, litmusRows(), conform.Workers(4)) }
func TestSnapshotEquivalenceLitmus(t *testing.T) { run(t, litmusRows(), conform.SnapshotsOff) }
func TestPOREquivalenceLitmus(t *testing.T)      { run(t, litmusRows(), conform.POROff) }

func run(t *testing.T, rows []conform.Row, cols ...conform.Column) { conform.Run(t, rows, cols, nil) }

// commitstore is Figure 4's addChild / readChild with and without the
// commit-store discipline: the correct variant finds nothing, the
// missing-flush one finds its bug.
func commitstore() (rows []conform.Row) {
	for _, flushData := range []bool{true, false} {
		rows = append(rows, conform.Row{
			Name:  fmt.Sprintf("flush=%v", flushData),
			Build: func(func(string)) jaaru.Program { return benchlist.Find("commitstore").Build(0, !flushData) },
			Opts:  jaaru.Options{FlagMultiRF: true},
			Check: func(t testing.TB, ref *jaaru.Result) {
				if ref.Buggy() == flushData {
					t.Errorf("flush=%v: bugs %v", flushData, ref.Bugs)
				}
			},
		})
	}
	return rows
}

func TestParallelEquivalenceCommitstore(t *testing.T) { run(t, commitstore(), conform.Workers(4)) }

// walkvProgram mirrors examples/walkv: a checksum-committed WAL key-value
// store whose recovery validates every record arithmetically and reports the
// log state it recovered.
func walkvProgram(obs func(string)) jaaru.Program {
	const (
		recSize = 24
		maxRecs = 8
		offHead = 0
		offLog  = 64
	)
	appendRecord := func(c *jaaru.Context, k, v uint64) {
		root := c.Root()
		head := c.Load64(root.Add(offHead))
		rec := root.Add(offLog + head*recSize)
		c.Store64(rec, k)
		c.Store64(rec.Add(8), v)
		sum := c.Fnv64(rec, 16)
		c.Store64(rec.Add(16), sum)
		c.Store64(root.Add(offHead), head+1)
		c.Persist(root.Add(offHead), 8)
	}
	return jaaru.Program{
		Name: "walkv",
		Run: func(c *jaaru.Context) {
			appendRecord(c, 1, 100)
			appendRecord(c, 2, 200)
			appendRecord(c, 3, 300)
		},
		Recover: func(c *jaaru.Context) {
			root := c.Root()
			head := c.Load64(root.Add(offHead))
			c.Assert(head <= maxRecs, "log head %d corrupt", head)
			state := ""
			for i := uint64(0); i < head; i++ {
				rec := root.Add(offLog + i*recSize)
				sum := c.Load64(rec.Add(16))
				if c.Fnv64(rec, 16) != sum || sum == 0 {
					state += "?"
					continue
				}
				k, v := c.Load64(rec), c.Load64(rec.Add(8))
				c.Assert(v == k*100, "checksum validated a torn record: k=%d v=%d", k, v)
				state += fmt.Sprintf("[%d=%d]", k, v)
			}
			obs(state)
		},
	}
}

// walkv's checksum-based recovery explores a wide multi-candidate tree.
var walkv = conform.Row{Name: "walkv", Build: walkvProgram, Check: func(t testing.TB, ref *jaaru.Result) {
	if ref.Buggy() {
		t.Errorf("walkv unexpectedly buggy: %v", ref.Bugs)
	}
}}

func TestParallelEquivalenceWalkv(t *testing.T) { run(t, []conform.Row{walkv}, conform.Workers(4)) }

// examples is the commitstore variants and walkv.
func examples() []conform.Row {
	rows := commitstore()
	for i := range rows {
		rows[i].Name = "commitstore/" + rows[i].Name
	}
	return append(rows, walkv)
}

// off is a column that turns snapshots or POR off, serial or with four
// workers, named by its worker count.
func off(snapshots, por bool) (cols []conform.Column) {
	for _, workers := range []int{1, 4} {
		cols = append(cols, conform.Tweak(fmt.Sprintf("workers=%d", workers), func(o *jaaru.Options) {
			o.Workers = workers
			if snapshots {
				o.Snapshots = -1
			}
			if por {
				o.POR = -1
			}
		}))
	}
	return cols
}

func TestSnapshotEquivalenceExamples(t *testing.T) { run(t, examples(), off(true, false)...) }
func TestPOREquivalenceExamples(t *testing.T)      { run(t, examples(), off(false, true)...) }

func fixed(p core.Program) conform.Row {
	return conform.Row{Name: p.Name, Build: func(func(string)) jaaru.Program { return p }}
}

// workloads is a RECIPE structure in insert form, another in a
// multi-bucket form and a PMDK example; with update, also the two update
// workloads, whose fingerprint sweep must prune.
func workloads(update bool) []conform.Row {
	rows := []conform.Row{
		fixed(recipe.CCEHWorkload(6, recipe.CCEHBugs{})),
		fixed(recipe.CLHTWorkloadBuckets(4, 8, recipe.CLHTBugs{})),
		fixed(pmdk.CTreeWorkload(4, pmdk.CTreeBugs{})),
	}
	if update {
		for _, p := range []core.Program{recipe.CCEHUpdateWorkload(2, 10), recipe.CLHTUpdateWorkload(2, 10)} {
			rw := fixed(p)
			rw.Check = sweeps
			rows = append(rows, rw)
		}
	}
	return rows
}

func sweeps(t testing.TB, ref *jaaru.Result) {
	if ref.Metrics.ScenariosPruned == 0 {
		t.Errorf("%s pruned nothing: its POR cells are vacuous", ref.Program)
	}
}

// TestSnapshotEquivalenceWorkloads: canonical counters included, the
// restore path re-applies exactly the per-counter deltas the skipped prefix
// would have accumulated.
func TestSnapshotEquivalenceWorkloads(t *testing.T) { run(t, workloads(false), off(true, false)...) }

// TestPOREquivalenceWorkloads crosses POR off with snapshots off and on,
// serial and parallel.
func TestPOREquivalenceWorkloads(t *testing.T) {
	var cols []conform.Column
	for _, snapshots := range []bool{false, true} {
		for _, col := range off(!snapshots, true) {
			col.Name += fmt.Sprintf("/snapshots=%v", snapshots)
			cols = append(cols, col)
		}
	}
	run(t, workloads(true), cols...)
}

// TestPOREquivalenceSeededBugs: pruning loses no bug on a sample of the
// RECIPE seeded-bug matrix (the full set is the matrix's seeded rows).
func TestPOREquivalenceSeededBugs(t *testing.T) {
	var rows []conform.Row
	for _, bc := range recipe.BugCases()[1:4] {
		rw := fixed(bc.Program())
		rw.Name = fmt.Sprintf("%s-%d", bc.Benchmark, bc.ID)
		rw.Prunes = bc.ID == 4 // FAST_FAIR's elided read-from picks drop scenarios
		rw.Check = func(t testing.TB, ref *jaaru.Result) {
			if !ref.Buggy() {
				t.Error("seeded bug not found with POR on")
			}
		}
		rows = append(rows, rw)
	}
	run(t, rows, conform.POROff)
}

// porUpdateObsProgram commits one slot then rewrites it in place, reporting
// every recovered value: the crash-time state recurs with period two, so a
// default run exercises the fingerprint sweep while the recovery behaviour
// set stays small enough for the eager explorer to enumerate exhaustively.
func porUpdateObsProgram(obs func(string)) jaaru.Program {
	return jaaru.Program{
		Name: "por-update-obs",
		Run: func(c *jaaru.Context) {
			root := c.Root()
			data := c.AllocLine(8)
			c.Store64(data, 7)
			c.Clflush(data, 8)
			c.Sfence()
			c.StorePtr(root, data)
			c.Clflush(root, 8)
			c.Sfence()
			for r := 0; r < 12; r++ {
				v := uint64(0xA5A5)
				if r%2 == 1 {
					v = 0x5A5A
				}
				c.Store64(data, v)
				c.Clflush(data, 8)
				c.Sfence()
			}
		},
		Recover: func(c *jaaru.Context) {
			p := c.LoadPtr(c.Root())
			if p == 0 {
				obs("empty")
				return
			}
			obs(fmt.Sprintf("v=%#x", c.Load64(p)))
		},
	}
}

// TestPORYatCrossCheck: ground truth per the eager (Yat) exploration — a
// default pruned run reaches exactly the behaviour set the exhaustive
// per-image enumeration reaches, on a workload where the sweep demonstrably
// fires and on walkv's wide recovery tree.
func TestPORYatCrossCheck(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(func(string)) jaaru.Program
	}{{"update", porUpdateObsProgram}, {"walkv", walkvProgram}} {
		t.Run(tc.name, func(t *testing.T) {
			on, pruned := conform.Explore(tc.build, jaaru.Options{Observe: true})
			var o conform.Obs
			eager, err := yat.Eager(tc.build(o.Add), jaaru.Options{}, 1_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if got := o.Set(); !slices.Equal(got, pruned.Observed) {
				t.Errorf("behaviour sets differ:\n  pruned: %v\n  eager:  %v", pruned.Observed, got)
			}
			if on.Buggy() || len(eager.Bugs) > 0 || on.FailurePoints != eager.FailurePoints {
				t.Errorf("pruned: %d bugs, %d failure points; eager: %d bugs, %d failure points",
					len(on.Bugs), on.FailurePoints, len(eager.Bugs), eager.FailurePoints)
			}
			if tc.name == "update" && on.Metrics.ScenariosPruned == 0 {
				t.Error("sweep never fired: cross-check is vacuous")
			}
		})
	}
}

// TestPORReduction: on the update workloads the sweep delivers at least the
// 5x physical-scenario reduction it promises, while reporting the exact
// logical scenario count of the unpruned run.
func TestPORReduction(t *testing.T) {
	var rows []conform.Row
	for _, p := range recipe.UpdateWorkloads(1) {
		rw := fixed(p)
		rw.Check = func(t testing.TB, ref *jaaru.Result) {
			physical := int64(ref.Scenarios) - ref.Metrics.ScenariosPruned
			if ref.Metrics.FingerprintHits == 0 || physical <= 0 {
				t.Fatalf("%d hits, pruned %d of %d scenarios", ref.Metrics.FingerprintHits, ref.Metrics.ScenariosPruned, ref.Scenarios)
			}
			if reduction := float64(ref.Scenarios) / float64(physical); reduction < 5 {
				t.Errorf("reduction = %.1fx (%d -> %d physical), want >= 5x", reduction, ref.Scenarios, physical)
			}
		}
		rows = append(rows, rw)
	}
	run(t, rows, conform.POROff)
}
