package core_test

import (
	"fmt"
	"hash/fnv"
	"testing"

	"jaaru/internal/benchlist"
	"jaaru/internal/conform"
	"jaaru/internal/core"
	"jaaru/internal/litmus"
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

// exploreEager views one exploration, every bug's witness included, and
// hashes every call the forensics probe received (entry, σ and writeback, in
// order).
func exploreEager(t *testing.T, tc eagerCase, viaBuffer bool) (conform.View, uint64) {
	t.Helper()
	defer core.SetEagerViaBuffer(core.SetEagerViaBuffer(viaBuffer))
	var seen conform.Obs
	opts := tc.opts
	opts.Observe, opts.FlagPerfIssues, opts.MaxSteps = true, true, 2_000
	ck := core.New(tc.build(seen.Add), opts)
	h := fnv.New64a()
	ck.SetProbe(&tso.Probe{
		OnEvict:     func(e tso.Entry, s pmem.Seq) { fmt.Fprintf(h, "%+v@%d\n", e, s) },
		OnWriteback: func(line pmem.Addr, s pmem.Seq, op int) { fmt.Fprintf(h, "wb %v@%d op%d\n", line, s, op) },
	})
	return witnessed(t, ck.Run(), seen.Set()), h.Sum64()
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
		direct, directProbe := exploreEager(t, tc, false)
		buffered, bufferedProbe := exploreEager(t, tc, true)
		conform.Exact(t, tc.name+": direct eager issue against Push + EvictOldest", buffered, direct)
		if directProbe != bufferedProbe {
			t.Errorf("%s: the forensics probe saw different calls", tc.name)
		}
	}
}
