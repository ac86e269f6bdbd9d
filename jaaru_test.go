package jaaru_test

// Tests of the public API surface: everything a downstream user touches
// must be reachable through the jaaru package alone.

import (
	"os/exec"
	"strings"
	"testing"

	"jaaru"
)

func TestPublicAPICheck(t *testing.T) {
	prog := jaaru.Program{
		Name: "api",
		Run: func(c *jaaru.Context) {
			data := c.AllocLine(8)
			c.Store64(data, 42)
			c.Clflush(data, 8)
			c.StorePtr(c.Root(), data)
			c.Clflush(c.Root(), 8)
		},
		Recover: func(c *jaaru.Context) {
			if p := c.LoadPtr(c.Root()); p != 0 {
				c.Assert(c.Load64(p) == 42, "committed data lost")
			}
		},
	}
	res := jaaru.Check(prog, jaaru.Options{})
	if res.Buggy() {
		t.Fatalf("bugs: %v", res.Bugs)
	}
	if res.Executions < 2 || res.FailurePoints < 2 || !res.Complete {
		t.Errorf("implausible result: %+v", res)
	}
}

func TestPublicAPIBugDetection(t *testing.T) {
	prog := jaaru.Program{
		Name: "api-bug",
		Run: func(c *jaaru.Context) {
			data := c.AllocLine(8)
			c.Store64(data, 42)
			// BUG: data never flushed before the commit.
			c.StorePtr(c.Root(), data)
			c.Clflush(c.Root(), 8)
		},
		Recover: func(c *jaaru.Context) {
			if p := c.LoadPtr(c.Root()); p != 0 {
				c.Assert(c.Load64(p) == 42, "committed data lost")
			}
		},
	}
	res := jaaru.Check(prog, jaaru.Options{FlagMultiRF: true})
	if !res.Buggy() {
		t.Fatal("missing flush not detected through the public API")
	}
	if res.Bugs[0].Type != jaaru.BugAssertion {
		t.Errorf("bug type = %v", res.Bugs[0].Type)
	}
	if len(res.MultiRF) == 0 {
		t.Error("multi-rf debugging support empty")
	}
}

func TestPublicAPIExecute(t *testing.T) {
	res := jaaru.Execute("direct", func(c *jaaru.Context) {
		a := c.Alloc(16, 8)
		c.Store64(a, 1)
		c.Store32(a.Add(8), 2)
		if c.Load64(a) != 1 || c.Load32(a.Add(8)) != 2 {
			c.Bug("lost store")
		}
	}, jaaru.Options{})
	if res.Buggy() {
		t.Fatalf("bugs: %v", res.Bugs)
	}
	if res.Scenarios != 1 {
		t.Errorf("direct execution ran %d scenarios", res.Scenarios)
	}
}

func TestPublicAPIPerfIssues(t *testing.T) {
	prog := jaaru.Program{
		Name: "api-perf",
		Run: func(c *jaaru.Context) {
			r := c.Root()
			c.Store64(r, 1)
			c.Clflush(r, 8)
			c.Clflush(r, 8)
		},
		Recover: func(c *jaaru.Context) {},
	}
	res := jaaru.Check(prog, jaaru.Options{FlagPerfIssues: true})
	if len(res.PerfIssues) == 0 {
		t.Fatal("redundant flush not reported through the public API")
	}
	if !strings.Contains(res.PerfIssues[0].String(), "redundant") {
		t.Errorf("perf issue string: %q", res.PerfIssues[0])
	}
}

func TestPublicAPIConstants(t *testing.T) {
	if jaaru.CacheLineSize != 64 {
		t.Errorf("CacheLineSize = %d", jaaru.CacheLineSize)
	}
	if jaaru.RootSize < 1024 {
		t.Errorf("RootSize = %d", jaaru.RootSize)
	}
	var a jaaru.Addr = 0x1040
	if a.Line() != 0x1040 || jaaru.Addr(0x1041).Line() != 0x1040 {
		t.Error("Addr.Line broken")
	}
}

func TestPublicAPIThreadsAndChecksums(t *testing.T) {
	res := jaaru.Execute("threads", func(c *jaaru.Context) {
		a := c.Alloc(32, 8)
		h := c.Spawn(func(c *jaaru.Context) {
			c.StoreBytes(a, []byte{1, 2, 3, 4})
		})
		h.Join(c)
		sum := c.Fnv64(a, 4)
		if sum == 0 {
			c.Bug("empty checksum")
		}
		got := c.LoadBytes(a, 4)
		for i, b := range []byte{1, 2, 3, 4} {
			if got[i] != b {
				c.Bug("byte %d = %d", i, got[i])
			}
		}
		c.Memset(a.Add(16), 0xEE, 8)
		if c.Load8(a.Add(20)) != 0xEE {
			c.Bug("memset lost")
		}
	}, jaaru.Options{})
	if res.Buggy() {
		t.Fatalf("bugs: %v", res.Bugs)
	}
}

func TestPublicAPINewCheckerAndReplay(t *testing.T) {
	prog := jaaru.Program{
		Name: "api-replay",
		Run: func(c *jaaru.Context) {
			d := c.AllocLine(8)
			c.Store64(d, 1)
			c.StorePtr(c.Root(), d)
			c.Clflush(c.Root(), 8)
		},
		Recover: func(c *jaaru.Context) {
			if p := c.LoadPtr(c.Root()); p != 0 {
				c.Assert(c.Load64(p) == 1, "lost")
			}
		},
	}
	res := jaaru.NewChecker(prog, jaaru.Options{}).Run()
	if !res.Buggy() {
		t.Fatal("missing flush not found")
	}
	trace := jaaru.Replay(prog, jaaru.Options{}, res.Bugs[0])
	if len(trace) == 0 {
		t.Fatal("empty replay trace")
	}
	var _ jaaru.TraceOp = trace[0]
	if tail := res.Bugs[0].Trace(2); len(trace) < 2 || len(tail) != 2 ||
		tail[0] != trace[len(trace)-2] || tail[1] != trace[len(trace)-1] {
		t.Errorf("BugReport.Trace(2) = %v, want the last two operations of %v", tail, trace)
	}
}

// TestBenchmarkModuleCompiles vets the nested benchmark module against the
// working tree. benchmark/ imports core.Options, pmem.Stack and the -metrics
// row labels, but as a module of its own it is invisible to the root's
// `go build ./... && go test ./...`, so an API change that breaks the only
// benchmark would otherwise go unnoticed until the driver runs it.
func TestBenchmarkModuleCompiles(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the benchmark module and its tests (~3 s)")
	}
	out, err := exec.Command("go", "-C", "benchmark", "vet", "./...").CombinedOutput()
	if err != nil {
		t.Fatalf("go -C benchmark vet ./...: %v\n%s", err, out)
	}
}
