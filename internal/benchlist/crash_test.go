package benchlist

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"jaaru/internal/conform"
	"jaaru/internal/core"
	"jaaru/internal/forensics"
	"jaaru/internal/report"
)

// Crash rows: guests that crash the way Go programs do — a nil-map write, an
// index out of range, a division by zero on a spawned thread. A Go panic in
// guest code is a bug report (core.BugCrash), so every column must report the
// same crash, and a reader must get the same witness for it.

// logIndexCrash appends four flushed log entries to one line, then indexes
// them in a map it never made: the pre-failure run crashes after its last
// flush, and every failure before that point recovers.
func logIndexCrash(obs func(string)) core.Program {
	entry := func(c *core.Context, i int) core.Addr { return c.Root().Add(uint64(8 * i)) }
	return core.Program{
		Name: "crash/run-nil-map",
		Run: func(c *core.Context) {
			for i := range 4 {
				c.Store64(entry(c, i), uint64(i+1))
				c.Clflush(entry(c, i), 8)
			}
			var index map[uint64]int
			for i := range 4 {
				index[c.Load64(entry(c, i))] = i
			}
		},
		Recover: func(c *core.Context) {
			n := 0
			for i := range 4 {
				if c.Load64(entry(c, i)) != 0 {
					n++
				}
			}
			obs(fmt.Sprintf("%d entries", n))
		},
	}
}

// slotIndexCrash persists the number of the slot it is filling and flushes
// it after each step; recovery bumps that slot's count in a three-slot table
// without bounding the persisted number, and the last one is out of range.
func slotIndexCrash(obs func(string)) core.Program {
	return core.Program{
		Name: "crash/recover-index",
		Run: func(c *core.Context) {
			for s := uint64(1); s <= 3; s++ {
				c.Store64(c.Root(), s)
				c.Clflush(c.Root(), 8)
			}
		},
		Recover: func(c *core.Context) {
			counts := make([]uint64, 3)
			s := c.Load64(c.Root())
			counts[s]++
			obs(fmt.Sprintf("slot %d", s))
		},
	}
}

// averageCrash persists a running total and count on one line; recovery
// spawns one thread to average them and one to report the total, and the
// averaging thread divides by a count that may not have persisted.
func averageCrash(obs func(string)) core.Program {
	total := func(c *core.Context) core.Addr { return c.Root() }
	count := func(c *core.Context) core.Addr { return c.Root().Add(8) }
	return core.Program{
		Name: "crash/spawned-divide",
		Run: func(c *core.Context) {
			for i := range uint64(3) {
				c.Store64(total(c), 10*(i+1))
				c.Store64(count(c), i+1)
				c.Clflush(c.Root(), 16)
			}
		},
		Recover: func(c *core.Context) {
			avg := c.Spawn(func(c *core.Context) {
				obs(fmt.Sprintf("average %d", c.Load64(total(c))/c.Load64(count(c))))
			})
			sum := c.Spawn(func(c *core.Context) {
				obs(fmt.Sprintf("total %d", c.Load64(total(c))))
			})
			avg.Join(c)
			sum.Join(c)
		},
	}
}

func crashRows() []conform.Row {
	var rows []conform.Row
	for _, build := range []func(func(string)) core.Program{logIndexCrash, slotIndexCrash, averageCrash} {
		rows = append(rows, conform.Row{Name: build(nil).Name, Build: build, Opts: core.Options{FlagMultiRF: true}})
	}
	return rows
}

// TestCrashConformance runs the matrix over the crash rows: the same crash
// under the replay oracle, POR off, in-process workers, range donation and a
// fleet of two, healthy and with a worker killed mid-lease.
func TestCrashConformance(t *testing.T) {
	rows := crashRows()
	for i := range rows {
		rows[i].Check = func(t testing.TB, ref *core.Result) {
			if len(ref.Bugs) != 1 || ref.Bugs[0].Type != core.BugCrash || !ref.Complete {
				t.Errorf("%s: bugs %v, complete %v; want one crash and a complete run", ref.Program, ref.Bugs, ref.Complete)
			}
		}
	}
	matrix(t, rows, columns)
}

// TestCrashWitnesses: a crash's serial witness and its minimized witness
// reproduce it, validate against the witness schema and render, as `jaaru
// explain -minimize -validate` would show them.
func TestCrashWitnesses(t *testing.T) {
	for _, rw := range crashRows() {
		prog := rw.Build(func(string) {})
		res := core.New(prog, rw.Opts).Run()
		if !res.Buggy() {
			t.Fatalf("%s: no bug", rw.Name)
		}
		b := res.Bugs[0]
		mb, m := core.Minimize(prog, rw.Opts, b)
		for _, tc := range []struct {
			name string
			bug  *core.BugReport
			min  *forensics.Minimization
		}{{"serial", b, nil}, {"minimized", mb, m}} {
			w := core.BuildWitness(prog, rw.Opts, tc.bug)
			w.Minimized = tc.min
			if !w.Reproduced {
				t.Errorf("%s %s witness does not reproduce %v", rw.Name, tc.name, tc.bug)
			}
			data, err := report.WitnessJSON(w)
			if err != nil {
				t.Fatal(err)
			}
			if err := forensics.ValidateJSON(data); err != nil {
				t.Errorf("%s %s witness: %v", rw.Name, tc.name, err)
			}
			if text := report.WitnessText(w); !strings.Contains(text, "crash: panic: ") {
				t.Errorf("%s %s witness renders without its crash:\n%s", rw.Name, tc.name, text)
			}
		}
	}
}

// TestEngineErrorUnderEveryDriver: a guest whose choice shape alternates
// between runs breaks replay under the full-replay oracle. The serial run,
// in-process workers and a fleet each report it as one BugEngine key on an
// incomplete Result, and nothing panics. Each fleet worker builds its own
// program, so each keeps its own run count.
func TestEngineErrorUnderEveryDriver(t *testing.T) {
	rw := conform.Row{Name: "alternating", Build: func(func(string)) core.Program {
		var runs atomic.Int64
		return core.Program{
			Name: "alternating",
			Run: func(c *core.Context) {
				c.Store64(c.Root(), 1)
				if runs.Add(1)%2 == 1 {
					c.Store64(c.Root(), 2)
				}
			},
			Recover: func(c *core.Context) { c.Load64(c.Root()) },
		}
	}}
	opts := core.Options{Snapshots: -1, Observe: true}
	views := map[string]conform.View{"fleet-of-2": fleet(false)(t, rw, opts)}
	for _, workers := range []int{1, 2} {
		o := opts
		o.Workers = workers
		_, views[fmt.Sprintf("workers=%d", workers)] = conform.Explore(rw.Build, o)
	}
	for name, v := range views {
		if len(v.Bugs) != 1 || v.Bugs[0].Type != core.BugEngine || v.Result.Complete {
			t.Errorf("%s: bugs %+v, complete %v; want one engine error and an incomplete run", name, v.Bugs, v.Result.Complete)
			continue
		}
		if want := views["workers=1"].Bugs[0]; v.Bugs[0].Message != want.Message {
			t.Errorf("%s: %q, serial %q", name, v.Bugs[0].Message, want.Message)
		}
	}
}
