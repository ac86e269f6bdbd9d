package litmus

// The independent oracle: every single-threaded litmus test and every
// program of a generated corpus reports, under the checker, exactly the
// observation set px86ref enumerates — under EvictEager and EvictExplore,
// POR on and off, and the snapshot stack on and off.

import (
	"fmt"
	"slices"
	"testing"

	"jaaru/internal/conform"
	"jaaru/internal/core"
	px "jaaru/internal/px86ref"
)

var (
	explore = conform.Base{Name: "explore", Apply: func(o *core.Options) { o.Eviction = core.EvictExplore }}
	oracle  = []conform.Column{conform.SnapshotsOff, conform.POROff}
)

func oracleRow(name string, p px.Program, failures int, bases ...conform.Base) conform.Row {
	return conform.Row{Name: name, Build: func(obs func(string)) core.Program { return Program(name, p, obs) },
		Opts: core.Options{MaxFailures: failures}, Want: px.Observe(p, failures), Bases: bases}
}

func TestPx86RefLitmus(t *testing.T) {
	var rows []conform.Row
	for _, tst := range Tests() {
		if tst.IR == nil {
			continue
		}
		rw := oracleRow(tst.Name, *tst.IR, 1, explore)
		if !slices.Equal(rw.Want, tst.Want) {
			t.Errorf("%s: px86ref reports %q, the test wants %q", tst.Name, rw.Want, tst.Want)
		}
		rows = append(rows, rw)
	}
	conform.Run(t, rows, oracle, nil)
}

// corpus is the generated programs: item by item the shapes ROADMAP item 1
// asks for (2–3 lines, ≤ 8 operations, one and two failures), under both
// eviction policies, and the shapes the generators px86ref replaced drew —
// 14 operations over two lines with every store width and RMWs, three
// lines, and five lines, past a 256-byte page — under the default policy.
var corpus = []struct {
	name     string
	shape    px.Shape
	failures int
	seeds    int64
	bases    []conform.Base
}{
	{"2lines", px.Shape{Lines: 2, Words: 2, Ops: 8}, 1, 10, []conform.Base{explore}},
	{"3lines", px.Shape{Lines: 3, Words: 1, Ops: 6}, 1, 8, []conform.Base{explore}},
	{"2lines-2failures", px.Shape{Lines: 2, Words: 2, Ops: 6, Recover: 4}, 2, 12, nil},
	{"3lines-2failures", px.Shape{Lines: 3, Words: 1, Ops: 6, Recover: 4}, 2, 8, nil},
	{"2failures-explore", px.Shape{Lines: 2, Words: 1, Ops: 3, Recover: 2}, 2, 6, []conform.Base{explore}},
	{"mixed-rmw", px.Shape{Lines: 2, Words: 2, Ops: 14, Mixed: true, RMW: true}, 1, 10, nil},
	{"3lines-10ops", px.Shape{Lines: 3, Words: 1, Ops: 10}, 1, 6, nil},
	{"cross-page", px.Shape{Lines: 5, Words: 1, Ops: 10}, 1, 6, nil},
}

// recurring commits a word, then rewrites it in place, flushed and fenced,
// twelve times: the crash-time state recurs with period two, so the
// fingerprint sweep prunes.
func recurring() px.Program {
	run := []px.Op{px.St64(64, 7), px.Flush(64), px.SFence(), px.St64(0, 1), px.Flush(0), px.SFence()}
	for r := range 12 {
		run = append(run, px.St64(64, 0xA5A5+uint64(r%2)*0xB4B5), px.Flush(64), px.SFence())
	}
	return px.Program{Run: run, Recover: []px.Op{px.Ld64("committed", 0), px.Ld64("v", 64)}}
}

func TestPx86RefCorpus(t *testing.T) {
	var rows []conform.Row
	deeper := 0 // programs whose second failure reaches something the first cannot
	for _, c := range corpus {
		for seed := range c.seeds {
			p := px.Generate(seed, c.shape)
			rw := oracleRow(fmt.Sprintf("%s/%d", c.name, seed), p, c.failures, c.bases...)
			if c.failures == 2 && len(rw.Want) > len(px.Observe(p, 1)) {
				deeper++
			}
			rows = append(rows, rw)
		}
	}
	if deeper == 0 {
		t.Error("no two-failure program observes more than its one-failure run: the depth-3 stack is untested")
	}
	rw := oracleRow("recurring", recurring(), 1)
	rw.Prunes = true
	rw.Check = func(t testing.TB, ref *core.Result) {
		if ref.Metrics.ScenariosPruned == 0 {
			t.Error("recurring pruned nothing")
		}
	}
	conform.Run(t, append(rows, rw), oracle, nil)
}

// FuzzPx86Ref compares the checker with px86ref on the program a seed
// generates, in one of the corpus shapes, under the default options.
func FuzzPx86Ref(f *testing.F) {
	for seed := range int64(8) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		c := corpus[uint64(seed)%uint64(len(corpus))]
		p := px.Generate(seed, c.shape)
		_, v := conform.Explore(func(obs func(string)) core.Program { return Program("fuzz", p, obs) },
			core.Options{MaxFailures: c.failures})
		if want := px.Observe(p, c.failures); !slices.Equal(v.Observed, want) {
			t.Errorf("%s seed %d: %v / %v\nchecker: %q\npx86ref: %q", c.name, seed, p.Run, p.Recover, v.Observed, want)
		}
	})
}

// TestRecoveryEndDeviation pins the one documented deviation (DESIGN.md §
// The independent oracle): a recovery has no failure point after its last
// flush effect, so a store it leaves unflushed at its end never reaches the
// next recovery, while Px86 can persist it and fail before the recovery
// returns. Generate closes every recovery that stores with a clflush.
func TestRecoveryEndDeviation(t *testing.T) {
	p := px.Program{Run: []px.Op{px.St64(0, 1), px.Flush(0)}, Recover: []px.Op{px.Ld64("x", 0), px.St64(0, 2)}}
	_, v := conform.Explore(func(obs func(string)) core.Program { return Program("end", p, obs) }, core.Options{MaxFailures: 2})
	if want := []string{"x=0", "x=1", "x=2"}; !slices.Equal(px.Observe(p, 2), want) {
		t.Errorf("px86ref: %q, want %q", px.Observe(p, 2), want)
	}
	if want := []string{"x=0", "x=1"}; !slices.Equal(v.Observed, want) {
		t.Errorf("checker: %q, want %q", v.Observed, want)
	}
	p.Recover = append(p.Recover, px.Flush(0))
	conform.Run(t, []conform.Row{oracleRow("closed", p, 2)}, nil, nil)
}
