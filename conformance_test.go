package jaaru_test

// The public package's rows of the conformance matrix (the full matrix is
// internal/benchlist/conformance_test.go): the litmus corpus, the
// commitstore and walkv examples and representative RECIPE/PMDK workloads,
// run by conform.Run under the full-replay oracle (Snapshots: -1), the
// unpruned oracle (POR: -1) and four workers, each cell compared with the
// row's serial run.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"
	"testing"

	"jaaru"
	"jaaru/internal/benchlist"
	"jaaru/internal/conform"
	"jaaru/internal/core"
	"jaaru/internal/litmus"
	"jaaru/internal/pmdk"
	px "jaaru/internal/px86ref"
	"jaaru/internal/recipe"
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
// log state it recovered. Its appends are straight-line, so the run is
// px86ref ops (walkvRun) and the recovery Go.
func walkvProgram(obs func(string)) jaaru.Program {
	return goRecovery("walkv", walkvRun(), func(c *jaaru.Context) {
		root := c.Root()
		head := c.Load64(root.Add(walkvHead))
		c.Assert(head <= walkvMaxRecs, "log head %d corrupt", head)
		state := ""
		for i := uint64(0); i < head; i++ {
			rec := root.Add(walkvLog + i*walkvRecSize)
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
	})
}

const (
	walkvRecSize = 24
	walkvMaxRecs = 8
	walkvHead    = 0
	walkvLog     = 64
)

// walkvRun appends records 1=100, 2=200 and 3=300: key, value and the FNV-1a
// checksum of the two, then the head, persisted.
func walkvRun() (run []px.Op) {
	for head := uint64(0); head < 3; head++ {
		k, v := head+1, (head+1)*100
		rec := walkvLog + head*walkvRecSize
		h := fnv.New64a()
		h.Write(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, k), v))
		run = append(run, px.St64(rec, k), px.St64(rec+8, v), px.St64(rec+16, h.Sum64()),
			px.St64(walkvHead, head+1), px.WB(walkvHead), px.SFence())
	}
	return run
}

// goRecovery is a program whose pre-failure run is px86ref ops and whose
// recovery is Go.
func goRecovery(name string, run []px.Op, recover func(*jaaru.Context)) jaaru.Program {
	p := litmus.Program(name, px.Program{Run: run}, nil)
	p.Recover = recover
	return p
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

// porUpdateRun commits one slot then rewrites it in place: the crash-time
// state recurs with period two, so a default run exercises the fingerprint
// sweep.
func porUpdateRun() []px.Op {
	data := uint64(64)
	run := []px.Op{px.St64(data, 7), px.Flush(data), px.SFence(),
		px.St64(0, uint64(core.PoolBase)+data), px.Flush(0), px.SFence()}
	for r := 0; r < 12; r++ {
		v := uint64(0xA5A5)
		if r%2 == 1 {
			v = 0x5A5A
		}
		run = append(run, px.St64(data, v), px.Flush(data), px.SFence())
	}
	return run
}

// loadThrough reports the committed slot's value, through its pointer.
func loadThrough(obs func(string)) func(*jaaru.Context) {
	return func(c *jaaru.Context) {
		p := c.LoadPtr(c.Root())
		if p == 0 {
			obs("empty")
			return
		}
		obs(fmt.Sprintf("v=%#x", c.Load64(p)))
	}
}

// missingFlushRun publishes a pointer to a word it never flushed.
func missingFlushRun() []px.Op {
	return []px.Op{px.St64(64, 42), px.St64(0, uint64(core.PoolBase)+64), px.Flush(0)}
}

func innerIntact(func(string)) func(*jaaru.Context) {
	return func(c *jaaru.Context) {
		if p := c.LoadPtr(c.Root()); p != 0 {
			c.Assert(c.Load64(p) == 42, "inner value lost")
		}
	}
}

// TestPORPx86RefCrossCheck: programs whose recovery is Go. Recovery runs
// through core.RunRecoveryOn on every image px86ref.Images says a failure of
// the pre-failure run can leave; the behaviours and bug keys are exactly
// those a default, pruned run reaches lazily — on a workload where the sweep
// fires, on walkv's wide recovery tree, and on a missing flush.
func TestPORPx86RefCrossCheck(t *testing.T) {
	for _, tc := range []struct {
		name    string
		run     []px.Op
		recover func(obs func(string)) func(*jaaru.Context)
	}{
		{"update", porUpdateRun(), loadThrough},
		{"walkv", walkvRun(), func(obs func(string)) func(*jaaru.Context) { return walkvProgram(obs).Recover }},
		{"missing-flush", missingFlushRun(), innerIntact},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build := func(obs func(string)) jaaru.Program { return goRecovery(tc.name, tc.run, tc.recover(obs)) }
			on, lazy := conform.Explore(build, jaaru.Options{Observe: true})
			var o conform.Obs
			var bugs []string
			for _, img := range px.Images(tc.run) {
				image := make(map[jaaru.Addr]byte, len(img))
				for off, b := range img {
					image[core.PoolBase.Add(off)] = b
				}
				for _, b := range core.RunRecoveryOn(build(o.Add), jaaru.Options{}, image, core.PoolBase+core.RootSize).Bugs {
					if k := b.Type.String() + ": " + b.Message; !slices.Contains(bugs, k) {
						bugs = append(bugs, k)
					}
				}
			}
			if got := o.Set(); !slices.Equal(got, lazy.Observed) {
				t.Errorf("behaviour sets differ:\n  lazy:    %v\n  px86ref: %v", lazy.Observed, got)
			}
			var want []string
			for _, b := range on.Bugs {
				want = append(want, b.Type.String()+": "+b.Message)
			}
			slices.Sort(bugs)
			if !slices.Equal(bugs, want) {
				t.Errorf("bugs differ:\n  lazy:    %q\n  px86ref: %q", want, bugs)
			}
			if tc.name == "update" && on.Metrics.ScenariosPruned == 0 {
				t.Error("sweep never fired: cross-check is vacuous")
			}
			if tc.name == "missing-flush" && len(bugs) == 0 {
				t.Error("the missing flush went unnoticed")
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
