package core

import (
	"strings"
	"testing"
)

func TestPerfRedundantFlushDetected(t *testing.T) {
	prog := Program{
		Name: "double-flush",
		Run: func(c *Context) {
			r := c.Root()
			c.Store64(r, 1)
			c.Clflush(r, 8)
			c.Clflush(r, 8) // redundant: nothing stored since the first
		},
		Recover: func(c *Context) { _ = c.Load64(c.Root()) },
	}
	res := New(prog, Options{FlagPerfIssues: true}).Run()
	if res.Buggy() {
		t.Fatalf("bugs: %v", res.Bugs)
	}
	found := false
	for _, p := range res.PerfIssues {
		if p.Kind == PerfRedundantFlush {
			found = true
			if !strings.Contains(p.Loc, "perf_test.go") {
				t.Errorf("issue location %q is not in guest code", p.Loc)
			}
		}
	}
	if !found {
		t.Errorf("redundant flush not flagged: %v", res.PerfIssues)
	}
}

func TestPerfFlushOfUntouchedLine(t *testing.T) {
	prog := Program{
		Name: "flush-untouched",
		Run: func(c *Context) {
			r := c.Root()
			c.Store64(r, 1)
			c.Clflush(r, 8)
			c.Clflushopt(r.Add(512), 8) // line never written
			c.Sfence()
		},
		Recover: func(c *Context) {},
	}
	res := New(prog, Options{FlagPerfIssues: true}).Run()
	found := false
	for _, p := range res.PerfIssues {
		if p.Kind == PerfRedundantFlush {
			found = true
		}
	}
	if !found {
		t.Errorf("flush of an untouched line not flagged: %v", res.PerfIssues)
	}
}

func TestPerfRedundantFenceDetected(t *testing.T) {
	prog := Program{
		Name: "useless-fence",
		Run: func(c *Context) {
			r := c.Root()
			c.Store64(r, 1)
			c.Sfence() // no pending clflushopt: orders nothing on TSO
			c.Clflush(r, 8)
		},
		Recover: func(c *Context) {},
	}
	res := New(prog, Options{FlagPerfIssues: true}).Run()
	found := false
	for _, p := range res.PerfIssues {
		if p.Kind == PerfRedundantFence {
			found = true
		}
	}
	if !found {
		t.Errorf("redundant sfence not flagged: %v", res.PerfIssues)
	}
}

func TestPerfCleanProgramHasNoIssues(t *testing.T) {
	prog := Program{
		Name: "clean-perf",
		Run: func(c *Context) {
			r := c.Root()
			c.Store64(r, 1)
			c.Clflushopt(r, 8)
			c.Sfence()
			c.Store64(r.Add(64), 2)
			c.Clflush(r.Add(64), 8)
		},
		Recover: func(c *Context) {},
	}
	res := New(prog, Options{FlagPerfIssues: true}).Run()
	if len(res.PerfIssues) != 0 {
		t.Errorf("clean program flagged: %v", res.PerfIssues)
	}
}

func TestPerfDetectionOffByDefault(t *testing.T) {
	prog := Program{
		Name: "perf-off",
		Run: func(c *Context) {
			r := c.Root()
			c.Store64(r, 1)
			c.Clflush(r, 8)
			c.Clflush(r, 8)
		},
		Recover: func(c *Context) {},
	}
	res := New(prog, Options{}).Run()
	if len(res.PerfIssues) != 0 {
		t.Errorf("perf issues recorded without the flag: %v", res.PerfIssues)
	}
}

func TestPerfIssueStringFormats(t *testing.T) {
	p := &PerfIssue{Kind: PerfRedundantFlush, Loc: "x.go:1", Line: 0x1000, Count: 3}
	if s := p.String(); !strings.Contains(s, "redundant flush") || !strings.Contains(s, "3×") {
		t.Errorf("flush string: %q", s)
	}
	p = &PerfIssue{Kind: PerfRedundantFence, Loc: "y.go:2", Count: 1}
	if s := p.String(); !strings.Contains(s, "redundant fence") {
		t.Errorf("fence string: %q", s)
	}
	if PerfIssueKind(99).String() == "" {
		t.Error("unknown kind renders empty")
	}
}

// The mini-PMDK transaction commit persists each added range once; the
// whole tx layer must be perf-clean... and a doubled Persist in guest code
// must be visible through real workloads too.
func TestPerfIssuesThroughWorkload(t *testing.T) {
	prog := Program{
		Name: "workload-redundant",
		Run: func(c *Context) {
			n := c.AllocLine(64)
			for i := uint64(0); i < 8; i++ {
				c.Store64(n.Add(8*i), i)
			}
			c.Persist(n, 64)
			c.Persist(n, 64) // belt and braces — flagged
			c.StorePtr(c.Root(), n)
			c.Persist(c.Root(), 8)
		},
		Recover: func(c *Context) {
			if p := c.LoadPtr(c.Root()); p != 0 {
				_ = c.Load64(p)
			}
		},
	}
	res := New(prog, Options{FlagPerfIssues: true}).Run()
	if res.Buggy() {
		t.Fatalf("bugs: %v", res.Bugs)
	}
	flush := 0
	for _, p := range res.PerfIssues {
		if p.Kind == PerfRedundantFlush {
			flush++
		}
	}
	if flush == 0 {
		t.Errorf("double Persist not flagged: %v", res.PerfIssues)
	}
}
