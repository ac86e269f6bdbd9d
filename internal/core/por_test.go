package core

import (
	"sync"
	"testing"
)

// porInsertProgram writes n distinct values to n distinct slots, flushing
// each: every failure point exposes a different persisted state, so the
// fingerprint seen-set only ever records misses.
func porInsertProgram(n int) Program {
	return Program{
		Name: "por-insert",
		Run: func(c *Context) {
			slots := c.AllocLine(uint64(n) * 8)
			for i := 0; i < n; i++ {
				a := slots + Addr(i*8)
				c.Store64(a, uint64(i)*10+3)
				c.Clflush(a, 8)
				c.Sfence()
			}
		},
		Recover: func(c *Context) {
			slots := Addr(PoolBase)
			_ = c.Load64(slots)
		},
	}
}

// porUpdateProgram commits a slot and then rewrites it in place for rounds
// passes, alternating two values: the crash-time state recurs with period
// two, the shape the fingerprint sweep prunes.
func porUpdateProgram(rounds int) Program {
	return Program{
		Name: "por-update",
		Run: func(c *Context) {
			root := c.Root()
			data := c.AllocLine(8)
			c.Store64(data, 7)
			c.Clflush(data, 8)
			c.Sfence()
			c.StorePtr(root, data)
			c.Clflush(root, 8)
			c.Sfence()
			for r := 0; r < rounds; r++ {
				v := uint64(0xA5A5)
				if r%2 == 1 {
					v = 0x5A5A
				}
				c.Store64(data, v)
				c.Clflush(data, 8)
				c.Sfence()
			}
		},
		Recover: func(c *Context) {
			p := c.LoadPtr(c.Root())
			if p == 0 {
				return
			}
			v := c.Load64(p)
			c.Assert(v == 7 || v == 0xA5A5 || v == 0x5A5A,
				"slot holds %#x after recovery", v)
		},
	}
}

func TestPORFpEligibilityGates(t *testing.T) {
	prog := porUpdateProgram(2)
	cases := []struct {
		name string
		opts Options
		want bool
	}{
		{"default", Options{}, true},
		{"disabled", Options{POR: -1}, false},
		{"multi failure", Options{MaxFailures: 2}, false},
		{"no failure injection", Options{MaxFailures: -1}, false},
		{"random scheduler", Options{RandomScheduler: true, Seed: 1}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New(prog, tc.opts)
			if got := c.porFpEligible(); got != tc.want {
				t.Errorf("porFpEligible = %v, want %v", got, tc.want)
			}
		})
	}
	t.Run("no recovery", func(t *testing.T) {
		p := prog
		p.Recover = nil
		if New(p, Options{}).porFpEligible() {
			t.Error("porFpEligible without a Recover function")
		}
	})
}

// fpCollector records every seen-set consultation through the porFPHook test
// hook. Workers share one collector, so it locks.
type fpCollector struct {
	mu   sync.Mutex
	fps  map[uint64]bool
	hits int
}

func newFpCollector() *fpCollector { return &fpCollector{fps: make(map[uint64]bool)} }

func (f *fpCollector) hook(fp uint64, hit bool) {
	f.mu.Lock()
	f.fps[fp] = true
	if hit {
		f.hits++
	}
	f.mu.Unlock()
}

func (f *fpCollector) set() map[uint64]bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[uint64]bool, len(f.fps))
	for k := range f.fps {
		out[k] = true
	}
	return out
}

// TestPORFingerprintSetDeterministicAcrossWorkers: the set of fingerprints
// consulted against the seen-set must not depend on how the choice tree is
// partitioned across workers. An insert-style program keeps the set
// hit-free, so serial and parallel runs must consult the identical set.
func TestPORFingerprintSetDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) *fpCollector {
		col := newFpCollector()
		c := New(porInsertProgram(4), Options{Workers: workers})
		c.porFPHook = col.hook
		res := c.Run()
		if !res.Complete || res.Buggy() {
			t.Fatalf("workers=%d: unexpected result %+v", workers, res)
		}
		return col
	}
	serial := run(1)
	parallel := run(4)
	if serial.hits != 0 || parallel.hits != 0 {
		t.Fatalf("insert program produced fingerprint hits (serial %d, parallel %d): "+
			"the determinism comparison needs a hit-free state space",
			serial.hits, parallel.hits)
	}
	if len(serial.set()) == 0 {
		t.Fatal("no fingerprints consulted; the POR layer looks inactive")
	}
	ss, ps := serial.set(), parallel.set()
	if len(ss) != len(ps) {
		t.Fatalf("consultation sets differ in size: serial %d, parallel %d", len(ss), len(ps))
	}
	for fp := range ss {
		if !ps[fp] {
			t.Errorf("fingerprint %#x consulted serially but not in parallel", fp)
		}
	}
}

// TestPORSweepEquivalence: on a state-recurring workload the sweep must
// prune physical scenarios while preserving the logical result exactly.
func TestPORSweepEquivalence(t *testing.T) {
	prog := porUpdateProgram(12)
	off := New(prog, Options{POR: -1, Observe: true}).Run()
	on := New(prog, Options{Observe: true}).Run()

	if on.Scenarios != off.Scenarios || on.Executions != off.Executions ||
		on.FailurePoints != off.FailurePoints || on.Complete != off.Complete ||
		len(on.Bugs) != len(off.Bugs) {
		t.Errorf("logical results diverge:\noff %+v\non  %+v", off, on)
	}
	if off.Metrics.ScenariosPruned != 0 || off.Metrics.FingerprintHits != 0 {
		t.Errorf("POR disabled but pruning counters nonzero: %+v", off.Metrics)
	}
	if on.Metrics.ScenariosPruned == 0 {
		t.Error("update workload pruned no scenarios")
	}
	if on.Metrics.FingerprintHits == 0 {
		t.Error("update workload recorded no fingerprint hits")
	}
	physical := int64(on.Scenarios) - on.Metrics.ScenariosPruned
	if physical <= 0 {
		t.Fatalf("pruned %d of %d scenarios: accounting broken",
			on.Metrics.ScenariosPruned, on.Scenarios)
	}
	if physical*2 > int64(off.Scenarios) {
		t.Errorf("weak reduction: %d physical vs %d unpruned scenarios",
			physical, off.Scenarios)
	}
}
