package core_test

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"reflect"
	"sort"
	"testing"

	"jaaru/internal/benchlist"
	"jaaru/internal/core"
	"jaaru/internal/litmus"
	"jaaru/internal/obs"
	"jaaru/internal/pmdk"
	"jaaru/internal/pmem"
	"jaaru/internal/recipe"
	"jaaru/internal/tso"
)

// eagerCase is one program the eager oracle explores; build takes the
// observation sink a litmus program reports its post-failure states to.
type eagerCase struct {
	name  string
	build func(obs func(string)) core.Program
	opts  core.Options
}

func eagerCases() []eagerCase {
	var cases []eagerCase
	add := func(name string, prog func() core.Program) {
		cases = append(cases, eagerCase{name: name, build: func(func(string)) core.Program { return prog() }})
	}
	for _, tst := range litmus.Tests() {
		if tst.Opts.Eviction == core.EvictEager {
			cases = append(cases, eagerCase{name: "litmus/" + tst.Name, build: tst.Prog, opts: tst.Opts})
		}
	}
	for _, b := range benchlist.All() {
		add("example/"+b.Name, func() core.Program { return b.Build(2, false) })
	}
	for _, bc := range pmdk.BugCases() {
		add(fmt.Sprintf("pmdk-bug/%d", bc.ID), bc.Program)
	}
	for _, bc := range recipe.BugCases() {
		add(fmt.Sprintf("recipe-bug/%d", bc.ID), bc.Program)
	}
	for _, p := range append(pmdk.FixedPrograms(2), recipe.FixedPrograms(4)...) {
		add("fixed/"+p.Name, func() core.Program { return p })
	}
	for _, p := range recipe.FixedPrograms(6) {
		add("fig14/"+p.Name, func() core.Program { return p })
	}
	// Every operation kind, redundant flushes and fences for the perf-issue
	// detector, and a missing-flush bug whose witness crosses all of them.
	add("flush-mix", func() core.Program {
		return core.Program{
			Name: "flush-mix",
			Run: func(c *core.Context) {
				r := c.Root()
				c.Sfence()
				c.Store64(r, 1)
				c.Clflush(r, 8)
				c.Clflush(r, 8)
				c.Store32(r.Add(64), 2)
				c.Clflushopt(r.Add(64), 8)
				c.Clflushopt(r.Add(512), 8)
				c.Sfence()
				c.CAS64(r.Add(128), 0, 3)
				c.Store16(r.Add(320), 4)
				c.Persist(r.Add(128), 72)
				c.Store8(r.Add(256), 5)
				c.Mfence()
			},
			Recover: func(c *core.Context) {
				r := c.Root()
				if c.Load8(r.Add(256)) == 5 {
					c.Assert(c.Load64(r) == 1 && c.Load16(r.Add(320)) == 4, "flag persisted before its data")
				}
			},
		}
	})
	return cases
}

// eagerRun is everything observable about one exploration: the Result with
// its wall-clock fields zeroed and Metrics reduced to the canonical counters,
// the bug reports' exported fields, every bug's witness as JSON, the
// post-failure observations of a litmus program, and a hash of every call the
// forensics probe received (entry, σ and writeback, in order).
type eagerRun struct {
	res       core.Result
	metrics   obs.Metrics
	bugs      []core.BugReport
	witnesses []string
	observed  []string
	probe     uint64
}

func exploreEager(t *testing.T, tc eagerCase, viaBuffer bool) eagerRun {
	t.Helper()
	defer core.SetEagerViaBuffer(core.SetEagerViaBuffer(viaBuffer))
	seen := map[string]bool{}
	opts := tc.opts
	opts.Observe, opts.FlagPerfIssues, opts.MaxSteps = true, true, 2_000
	ck := core.New(tc.build(func(s string) { seen[s] = true }), opts)
	h := fnv.New64a()
	ck.SetProbe(&tso.Probe{
		OnEvict:     func(e tso.Entry, s pmem.Seq) { fmt.Fprintf(h, "%+v@%d\n", e, s) },
		OnWriteback: func(line pmem.Addr, s pmem.Seq, op int) { fmt.Fprintf(h, "wb %v@%d op%d\n", line, s, op) },
	})
	res := ck.Run()
	run := eagerRun{probe: h.Sum64()}
	for i, b := range res.Bugs {
		run.bugs = append(run.bugs, core.BugReport{Type: b.Type, Message: b.Message,
			Execution: b.Execution, Scenario: b.Scenario, Count: b.Count, Choices: b.Choices})
		w, err := res.Witness(i)
		if err != nil {
			t.Fatal(err)
		}
		js, err := json.Marshal(w)
		if err != nil {
			t.Fatal(err)
		}
		run.witnesses = append(run.witnesses, string(js))
	}
	run.metrics = res.Metrics.Canonical()
	run.res = *res
	run.res.Duration, run.res.Metrics, run.res.Bugs = 0, nil, nil
	for s := range seen {
		run.observed = append(run.observed, s)
	}
	sort.Strings(run.observed)
	return run
}

// TestEagerIssueMatchesBufferedPath: under EvictEager a guest store, flush or
// fence applies its effect directly, with no store-buffer entry and no line
// table. The reference is the general path, Push followed at once by
// EvictOldest (Figure 7's Exec_* then Figure 8's Evict_SB). Over the litmus
// corpus, the benchmark registry, the 25 seeded bugs and the fixed variants,
// and the six Figure 14 structures at n = 6, both paths produce the same
// Result, canonical counters (store-buffer evictions, flush-buffer writebacks
// and both occupancy peaks among them), bug reports, perf issues, witnesses
// (built by replays through the same path), post-failure observations and
// every call the forensics probe receives.
func TestEagerIssueMatchesBufferedPath(t *testing.T) {
	for _, tc := range eagerCases() {
		direct, buffered := exploreEager(t, tc, false), exploreEager(t, tc, true)
		if !reflect.DeepEqual(direct, buffered) {
			t.Errorf("%s: direct eager issue diverges from Push + EvictOldest:\ndirect   %+v\nbuffered %+v",
				tc.name, direct, buffered)
		}
	}
}
