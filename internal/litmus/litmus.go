// Package litmus contains small programs with exactly known sets of
// post-failure behaviours, validating the operational simulator in
// internal/tso against the reordering constraints of the paper's Table 1
// (the Px86sim model). Each test lists the exact set of recovery
// observations that must be explored — no more (soundness of the
// constraints) and no fewer (exhaustiveness of the exploration). The
// single-threaded tests are px86ref programs, so the independent model
// answers them too; Program is the one adapter that runs such a program on
// the checker.
package litmus

import (
	"fmt"
	"sort"

	"jaaru/internal/core"
	px "jaaru/internal/px86ref"
)

// Test is one litmus program and its expected behaviour set.
type Test struct {
	Name string
	// Doc names the Table 1 cells or §2 prose the test exercises.
	Doc string
	// IR is a single-threaded test's program as data; Prog runs it through
	// Program. Multi-threaded tests have none.
	IR *px.Program
	// Prog builds the program; obs receives one observation string per
	// explored post-failure behaviour (or per pre-failure run for
	// run-phase tests).
	Prog func(obs func(string)) core.Program
	// Want is the exact expected observation set, sorted.
	Want []string
	// Opts configures the checker (zero value = defaults).
	Opts core.Options
}

// Run explores the test's program and returns the sorted set of distinct
// observations along with the checker result.
func Run(tst Test) ([]string, *core.Result) {
	seen := make(map[string]bool)
	res := core.New(tst.Prog(func(s string) { seen[s] = true }), tst.Opts).Run()
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out, res
}

// Program runs p on the checker: its Run ops, then its Recover ops after
// every failure, at their offsets from the root. A recovery that completes
// reports what its named loads read to obs, formatted as px86ref formats it.
func Program(name string, p px.Program, obs func(string)) core.Program {
	return core.Program{
		Name:    name,
		Run:     func(c *core.Context) { execute(c, p.Run, nil) },
		Recover: func(c *core.Context) { execute(c, p.Recover, obs) },
	}
}

func execute(c *core.Context, ops []px.Op, obs func(string)) {
	var names []string
	var vals []uint64
	for _, op := range ops {
		a := c.Root().Add(op.Addr)
		switch op.Kind {
		case px.Store:
			switch op.Size {
			case 1:
				c.Store8(a, uint8(op.Val))
			case 2:
				c.Store16(a, uint16(op.Val))
			case 4:
				c.Store32(a, uint32(op.Val))
			default:
				c.Store64(a, op.Val)
			}
		case px.Load:
			if v := c.Load64(a); op.Name != "" {
				names, vals = append(names, op.Name), append(vals, v)
			}
		case px.Clflush:
			c.Clflush(a, 1)
		case px.Clflushopt:
			c.Clflushopt(a, 1)
		case px.Clwb:
			c.Clwb(a, 1)
		case px.Sfence:
			c.Sfence()
		case px.Mfence:
			c.Mfence()
		case px.CAS:
			c.CAS64(a, op.Old, op.Val)
		case px.FetchAdd:
			c.AtomicAdd64(a, op.Val)
		}
	}
	if obs != nil {
		obs(px.Observation(names, vals))
	}
}

// ir is a single-threaded test: its program as data, run through Program.
func ir(name, doc string, run, recover []px.Op, want ...string) Test {
	p := px.Program{Run: run, Recover: recover}
	return Test{Name: name, Doc: doc, IR: &p, Want: want,
		Prog: func(obs func(string)) core.Program { return Program(name, p, obs) }}
}

// Tests returns the litmus suite.
func Tests() []Test {
	const x, y = 0, 64 // two words on two lines
	xy := []px.Op{px.Ld64("x", x), px.Ld64("y", y)}
	ab := []px.Op{px.Ld64("a", 0), px.Ld64("b", 8)} // two words on one line
	return []Test{
		// y=1 without x=1 is impossible: the second flush cannot pass the
		// first store.
		ir("clflush-ordered-with-stores",
			"Table 1: Write→clflush ✓ and clflush→Write ✓ — clflush enters the store buffer like a store",
			[]px.Op{px.St64(x, 1), px.Flush(x), px.St64(y, 1), px.Flush(y)}, xy,
			"x=0 y=0", "x=1 y=0", "x=1 y=1"),
		// x=0 y=1 IS reachable: clflush(y) persisted y while the clflushopt(x)
		// writeback waited for a fence that never came.
		ir("clflushopt-reorders-across-other-line-store",
			"Table 1: clflushopt→Write ✗ and Write→clflushopt CL — a later clflush to another line can take effect while the clflushopt writeback is still pending",
			[]px.Op{px.St64(x, 1), px.FlushOpt(x), px.St64(y, 1), px.Flush(y)}, xy,
			"x=0 y=0", "x=0 y=1", "x=1 y=0", "x=1 y=1"),
		// x=0 y=1 is now forbidden.
		ir("sfence-orders-clflushopt",
			"Table 1: clflushopt→sfence ✓ and sfence→Write ✓ — after an sfence the writeback precedes later flushes",
			[]px.Op{px.St64(x, 1), px.FlushOpt(x), px.SFence(), px.St64(y, 1), px.Flush(y)}, xy,
			"x=0 y=0", "x=1 y=0", "x=1 y=1"),
		ir("mfence-orders-clflushopt", "Table 1: clflushopt→mfence ✓",
			[]px.Op{px.St64(x, 1), px.FlushOpt(x), px.MFence(), px.St64(y, 1), px.Flush(y)}, xy,
			"x=0 y=0", "x=1 y=0", "x=1 y=1"),
		ir("rmw-orders-clflushopt", "Table 1: clflushopt→RMW ✓ — locked RMW has fence semantics (§4)",
			[]px.Op{px.St64(x, 1), px.FlushOpt(x), px.Add(128, 1), px.St64(y, 1), px.Flush(y)}, xy,
			"x=0 y=0", "x=1 y=0", "x=1 y=1"),
		// Once the fence passes, both same-line stores are persistent. Before
		// it, the cut respects store order: b=1 without a=1 is impossible.
		ir("clflushopt-covers-same-line-stores",
			"Table 1: Write→clflushopt CL — a clflushopt is ordered after earlier stores to its own line",
			[]px.Op{px.St64(0, 1), px.St64(8, 1), px.FlushOpt(0), px.SFence()}, ab,
			"a=0 b=0", "a=1 b=0", "a=1 b=1"),
		ir("clwb-identical-to-clflushopt", "§2: clwb is semantically identical to clflushopt",
			[]px.Op{px.St64(x, 1), px.WB(x), px.St64(y, 1), px.Flush(y)}, xy,
			"x=0 y=0", "x=0 y=1", "x=1 y=0", "x=1 y=1"),
		ir("persist-idiom", "clwb+sfence (Persist) makes a range durable before the next store",
			[]px.Op{px.St64(x, 1), px.WB(x), px.SFence(), px.St64(y, 1), px.WB(y), px.SFence()}, xy,
			"x=0 y=0", "x=1 y=0", "x=1 y=1"),
		// Cuts of (a=1, b=2, a=3): (0,0) (1,0) (1,2) (3,2).
		ir("same-line-store-order", "stores to one line persist in store order (the Figure 2 shape)",
			[]px.Op{px.St64(0, 1), px.St64(8, 2), px.St64(0, 3), px.Flush(0)}, ab,
			"a=0 b=0", "a=1 b=0", "a=1 b=2", "a=3 b=2"),
		// A store on a third line makes the end-of-run failure point eligible
		// without constraining the first two lines.
		ir("cross-line-independence",
			"lines persist independently: without flushes, every combination of two lines' contents is reachable",
			[]px.Op{px.St64(x, 1), px.St64(y, 1), px.St64(128, 1), px.Flush(128)},
			[]px.Op{px.Ld64("a", x), px.Ld64("b", y)},
			"a=0 b=0", "a=0 b=1", "a=1 b=0", "a=1 b=1"),
		// committed=1 with data=0 is impossible: the RMW drained the flush
		// buffer before its own store took effect.
		ir("cas-as-commit-store",
			"a locked CAS serves as a commit store: its fence semantics order the prior clflushopt writeback",
			[]px.Op{px.St64(y, 7), px.FlushOpt(y), px.Cas(x, 0, 1), px.Flush(x)},
			[]px.Op{px.Ld64("committed", x), px.Ld64("data", y)},
			"committed=0 data=0", "committed=0 data=7", "committed=1 data=7"),
		// x=1 appears only for the failure point before the clflush; after
		// it, the writeback covers x=2 and x=1 is gone forever.
		ir("overwrite-before-flush",
			"only the flushed-or-later values survive: an overwritten, never-flushed value is unreachable",
			[]px.Op{px.St64(x, 1), px.St64(x, 2), px.Flush(x), px.St64(x, 3)},
			[]px.Op{px.Ld64("x", x)},
			"x=0", "x=1", "x=2", "x=3"),
		{
			Name: "store-buffering",
			Doc:  "Table 1: Write→Read ✗ — the classic SB litmus test under delayed eviction",
			Prog: func(obs func(string)) core.Program {
				return core.Program{
					Name: "sb",
					Run: func(c *core.Context) {
						x := c.Alloc(8, 64)
						y := c.Alloc(8, 64)
						var r1, r2 uint64
						h1 := c.Spawn(func(c *core.Context) {
							c.Store64(x, 1)
							r1 = c.Load64(y)
						})
						h2 := c.Spawn(func(c *core.Context) {
							c.Store64(y, 1)
							r2 = c.Load64(x)
						})
						h1.Join(c)
						h2.Join(c)
						obs(fmt.Sprintf("r1=%d r2=%d", r1, r2))
					},
				}
			},
			Want: []string{"r1=0 r2=0"},
			Opts: core.Options{Eviction: core.EvictAtFences},
		},
		{
			Name: "store-buffer-bypass",
			Doc:  "§2: a core observes its own buffered stores (bypassing)",
			Prog: func(obs func(string)) core.Program {
				return core.Program{
					Name: "bypass",
					Run: func(c *core.Context) {
						x := c.Alloc(8, 64)
						c.Store64(x, 7)
						obs(fmt.Sprintf("r=%d", c.Load64(x)))
					},
				}
			},
			Want: []string{"r=7"},
			Opts: core.Options{Eviction: core.EvictAtFences},
		},
		{
			Name: "mfence-makes-stores-visible",
			Doc:  "Table 1: mfence→Read ✓ — after mfence another thread observes the store",
			Prog: func(obs func(string)) core.Program {
				return core.Program{
					Name: "mfence-visible",
					Run: func(c *core.Context) {
						x := c.Alloc(8, 64)
						done := c.Alloc(8, 64)
						h := c.Spawn(func(c *core.Context) {
							c.Store64(x, 1)
							c.Mfence()
							c.Store64(done, 1)
							c.Mfence()
						})
						// Spin until the flag is visible, then x must be too.
						for c.Load64(done) == 0 {
						}
						obs(fmt.Sprintf("x=%d", c.Load64(x)))
						h.Join(c)
					},
				}
			},
			Want: []string{"x=1"},
			Opts: core.Options{Eviction: core.EvictAtFences},
		},
	}
}
