package pmdk

import (
	"strings"
	"testing"

	"jaaru/internal/core"
)

// ---- Direct (no-failure) operational tests ---------------------------------

func direct(t *testing.T, name string, fn func(*core.Context)) {
	t.Helper()
	res := core.Execute(name, fn, core.Options{})
	if res.Buggy() {
		t.Fatalf("%s: %v", name, res.Bugs[0])
	}
}

func TestPoolCreateOpen(t *testing.T) {
	direct(t, "pool", func(c *core.Context) {
		Create(c, 4096, CreateBugs{})
		p, ok := Open(c)
		if !ok {
			t.Error("freshly created pool failed to open")
		}
		if p.RootObj() != 0 {
			t.Error("fresh pool has a root object")
		}
		p.SetRootObj(42)
		if p.RootObj() != 42 {
			t.Error("root object not set")
		}
	})
}

func TestOpenUncreatedPool(t *testing.T) {
	direct(t, "pool-open-empty", func(c *core.Context) {
		if _, ok := Open(c); ok {
			t.Error("uncreated pool opened")
		}
	})
}

func TestHeapAllocAndCheck(t *testing.T) {
	direct(t, "heap", func(c *core.Context) {
		p := Create(c, 4096, CreateBugs{})
		a := p.PAlloc(32, HeapBugs{})
		b := p.PAlloc(16, HeapBugs{})
		if a == b || b < a {
			t.Errorf("allocations overlap: %v %v", a, b)
		}
		if c.Load64(a) != 0 {
			t.Error("allocation not zeroed")
		}
		if !p.HeapContains(a) || !p.HeapContains(b) {
			t.Error("HeapContains wrong")
		}
		p.HeapCheck()
	})
}

func TestTxCommitAndRollback(t *testing.T) {
	direct(t, "tx", func(c *core.Context) {
		p := Create(c, 4096, CreateBugs{})
		obj := p.PAlloc(16, HeapBugs{})
		c.Store64(obj, 7)
		c.Persist(obj, 8)

		tx := p.TxBegin(TxBugs{})
		tx.Add(obj, 8)
		c.Store64(obj, 9)
		tx.Commit()
		if c.Load64(obj) != 9 {
			t.Error("committed value lost")
		}

		// Simulated abort: add, mutate, then roll back via TxRecover.
		tx = p.TxBegin(TxBugs{})
		tx.Add(obj, 8)
		c.Store64(obj, 11)
		p.TxRecover()
		if got := c.Load64(obj); got != 9 {
			t.Errorf("rollback restored %d, want 9", got)
		}
	})
}

func TestBTreeOperations(t *testing.T) {
	direct(t, "btree-ops", func(c *core.Context) {
		p := Create(c, 256<<10, CreateBugs{})
		tr := NewBTree(p, BTreeBugs{})
		// Insert enough keys to force multi-level splits.
		for i := uint64(1); i <= 40; i++ {
			k := (i * 17) % 41
			tr.Insert(k, k*100)
		}
		for i := uint64(1); i <= 40; i++ {
			k := (i * 17) % 41
			v, ok := tr.Lookup(k)
			if !ok || v != k*100 {
				t.Fatalf("Lookup(%d) = %d, %v", k, v, ok)
			}
		}
		if _, ok := tr.Lookup(999); ok {
			t.Error("found a key never inserted")
		}
		if n := tr.Check(); n != 40 {
			t.Errorf("Check counted %d keys, want 40", n)
		}
		// Update in place.
		tr.Insert(17, 4242)
		if v, _ := tr.Lookup(17); v != 4242 {
			t.Error("update lost")
		}
		if n := tr.Check(); n != 40 {
			t.Errorf("update changed key count to %d", n)
		}
	})
}

func TestCTreeOperations(t *testing.T) {
	direct(t, "ctree-ops", func(c *core.Context) {
		p := Create(c, 256<<10, CreateBugs{})
		tr := NewCTree(p, CTreeBugs{})
		for i := uint64(1); i <= 30; i++ {
			k := (i * 29) % 97
			tr.Insert(k, k+1000)
		}
		for i := uint64(1); i <= 30; i++ {
			k := (i * 29) % 97
			v, ok := tr.Lookup(k)
			if !ok || v != k+1000 {
				t.Fatalf("Lookup(%d) = %d, %v", k, v, ok)
			}
		}
		if _, ok := tr.Lookup(98); ok {
			t.Error("found a key never inserted")
		}
		if n := tr.Check(); n != 30 {
			t.Errorf("Check counted %d leaves, want 30", n)
		}
		tr.Insert(29, 7)
		if v, _ := tr.Lookup(29); v != 7 {
			t.Error("update lost")
		}
	})
}

func TestRBTreeOperations(t *testing.T) {
	direct(t, "rbtree-ops", func(c *core.Context) {
		p := Create(c, 256<<10, CreateBugs{})
		tr := NewRBTree(p, RBTreeBugs{})
		for i := uint64(1); i <= 50; i++ {
			tr.Insert(i, i*2) // ascending order exercises rotations heavily
		}
		for i := uint64(1); i <= 50; i++ {
			v, ok := tr.Lookup(i)
			if !ok || v != i*2 {
				t.Fatalf("Lookup(%d) = %d, %v", i, v, ok)
			}
		}
		if n := tr.Check(); n != 50 {
			t.Errorf("Check counted %d nodes, want 50", n)
		}
		tr.Insert(25, 99)
		if v, _ := tr.Lookup(25); v != 99 {
			t.Error("update lost")
		}
	})
}

func TestHashmapAtomicOperations(t *testing.T) {
	direct(t, "hashmap-atomic-ops", func(c *core.Context) {
		p := Create(c, 256<<10, CreateBugs{})
		h := CreateHashmapAtomic(p, 16, HashmapAtomicBugs{})
		for i := uint64(0); i < 40; i++ {
			h.Insert(i*7, i)
		}
		for i := uint64(0); i < 40; i++ {
			v, ok := h.Lookup(i * 7)
			if !ok || v != i {
				t.Fatalf("Lookup(%d) = %d, %v", i*7, v, ok)
			}
		}
		if n := h.Check(); n != 40 {
			t.Errorf("Check counted %d nodes, want 40", n)
		}
	})
}

func TestHashmapTXOperations(t *testing.T) {
	direct(t, "hashmap-tx-ops", func(c *core.Context) {
		p := Create(c, 256<<10, CreateBugs{})
		h := CreateHashmapTX(p, 16, HashmapTXBugs{})
		for i := uint64(0); i < 30; i++ {
			h.Insert(i*13, i)
		}
		for i := uint64(0); i < 30; i++ {
			v, ok := h.Lookup(i * 13)
			if !ok || v != i {
				t.Fatalf("Lookup(%d) = %d, %v", i*13, v, ok)
			}
		}
		if n := h.Check(); n != 30 {
			t.Errorf("Check counted %d nodes, want 30", n)
		}
	})
}

// ---- Crash-consistency: fixed variants must explore clean -------------------

func TestFixedVariantsExploreClean(t *testing.T) {
	for _, prog := range FixedPrograms(5) {
		prog := prog
		t.Run(prog.Name, func(t *testing.T) {
			t.Parallel()
			res := core.New(prog, core.Options{}).Run()
			if res.Buggy() {
				t.Fatalf("fixed variant buggy: %v\nchoices: %s\ntrace tail: %v",
					res.Bugs[0], res.Bugs[0].Choices, res.Bugs[0].Trace(64))
			}
			if !res.Complete {
				t.Fatal("exploration incomplete")
			}
			if res.FailurePoints == 0 || res.Scenarios < res.FailurePoints {
				t.Errorf("suspicious exploration: %d scenarios, %d failure points",
					res.Scenarios, res.FailurePoints)
			}
		})
	}
}

// ---- Crash-consistency: seeded bugs must be found (Figure 12) ---------------

func TestPMDKBugs(t *testing.T) {
	for _, bc := range BugCases() {
		bc := bc
		t.Run(bc.Benchmark+"-"+bc.Label, func(t *testing.T) {
			t.Parallel()
			res := core.New(bc.Program(), core.Options{FlagMultiRF: true}).Run()
			if !res.Buggy() {
				t.Fatalf("bug #%d (%s) not detected", bc.ID, bc.Symptom)
			}
			typeOK := false
			labelOK := bc.Label == ""
			for _, b := range res.Bugs {
				for _, want := range bc.Expect {
					if b.Type == want {
						typeOK = true
					}
				}
				if bc.Label != "" && strings.Contains(b.Message, bc.Label) {
					labelOK = true
				}
			}
			if !typeOK {
				t.Errorf("bug #%d: no bug of expected type in %v", bc.ID, res.Bugs)
			}
			if !labelOK {
				t.Errorf("bug #%d: no bug mentions %q in %v", bc.ID, bc.Label, res.Bugs)
			}
		})
	}
}

func TestBugRegistryShape(t *testing.T) {
	cases := BugCases()
	if len(cases) != 7 {
		t.Fatalf("Figure 12 has 7 bugs, registry has %d", len(cases))
	}
	newCount := 0
	for _, bc := range cases {
		if bc.New {
			newCount++
		}
	}
	if newCount != 6 {
		t.Errorf("Figure 12 stars 6 new bugs, registry stars %d", newCount)
	}
}

func TestBTreeDelete(t *testing.T) {
	direct(t, "btree-delete", func(c *core.Context) {
		p := Create(c, 256<<10, CreateBugs{})
		tr := NewBTree(p, BTreeBugs{})
		for i := uint64(1); i <= 30; i++ {
			tr.Insert(i, i*100)
		}
		for i := uint64(2); i <= 30; i += 2 {
			if !tr.Delete(i) {
				t.Errorf("Delete(%d) = false", i)
			}
		}
		if tr.Delete(999) || tr.Delete(2) {
			t.Error("deleted a missing key")
		}
		for i := uint64(1); i <= 30; i++ {
			_, ok := tr.Lookup(i)
			if want := i%2 == 1; ok != want {
				t.Errorf("Lookup(%d) = %v, want %v", i, ok, want)
			}
		}
		if n := tr.Check(); n != 15 {
			t.Errorf("Check counted %d live keys, want 15", n)
		}
		// Revive a tombstoned key.
		tr.Insert(2, 42)
		if v, ok := tr.Lookup(2); !ok || v != 42 {
			t.Error("revive after delete failed")
		}
	})
}

// Deletion must be failure-atomic: after a crash the key is either fully
// present with its old value or fully absent.
func TestBTreeDeleteCrashConsistency(t *testing.T) {
	prog := core.Program{
		Name: "btree-delete-crash",
		Run: func(c *core.Context) {
			p := Create(c, workloadHeap, CreateBugs{})
			tr := NewBTree(p, BTreeBugs{})
			tr.Insert(10, 100)
			tr.Insert(20, 200)
			tr.Delete(10)
		},
		Recover: func(c *core.Context) {
			p, ok := Open(c)
			if !ok {
				return
			}
			p.TxRecover()
			tr := NewBTree(p, BTreeBugs{})
			tr.Check()
			if v, found := tr.Lookup(10); found {
				c.Assert(v == 100, "key 10 half-deleted: %d", v)
			}
			if v, found := tr.Lookup(20); found {
				c.Assert(v == 200, "key 20 corrupted: %d", v)
			}
		},
	}
	res := core.New(prog, core.Options{}).Run()
	if res.Buggy() {
		t.Fatalf("bugs: %v", res.Bugs[0])
	}
}

func TestSkiplistOperations(t *testing.T) {
	direct(t, "skiplist-ops", func(c *core.Context) {
		p := Create(c, 256<<10, CreateBugs{})
		s := NewSkiplist(p, SkiplistBugs{})
		for i := uint64(1); i <= 60; i++ {
			k := i*37%127 + 1
			s.Insert(k, k+9)
		}
		for i := uint64(1); i <= 60; i++ {
			k := i*37%127 + 1
			v, ok := s.Lookup(k)
			if !ok || v != k+9 {
				t.Fatalf("Lookup(%d) = %d, %v", k, v, ok)
			}
		}
		if _, ok := s.Lookup(999); ok {
			t.Error("found a key never inserted")
		}
		if n := s.Check(); n != 60 {
			t.Errorf("Check counted %d keys, want 60", n)
		}
		for i := uint64(1); i <= 60; i += 3 {
			k := i*37%127 + 1
			if !s.Delete(k) {
				t.Errorf("Delete(%d) = false", k)
			}
		}
		if s.Delete(999) {
			t.Error("deleted a missing key")
		}
		if n := s.Check(); n != 40 {
			t.Errorf("Check after deletes = %d, want 40", n)
		}
		s.Insert(5, 555)
		if v, _ := s.Lookup(5); v != 555 {
			t.Error("insert after delete failed")
		}
	})
}

func TestOracleSkiplist(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		oracleRun(t, "skiplist", seed, 300, 60, func(c *core.Context) (func(k, v uint64), func(k uint64) bool, func(k uint64) (uint64, bool)) {
			p := Create(c, 8<<20, CreateBugs{})
			s := NewSkiplist(p, SkiplistBugs{})
			return s.Insert, s.Delete, s.Lookup
		})
	}
}

// A crash mid-insert or mid-delete must leave the whole tower linked or
// unlinked — the multi-level link is one transaction.
func TestSkiplistCrashConsistency(t *testing.T) {
	prog := core.Program{
		Name: "skiplist-crash",
		Run: func(c *core.Context) {
			p := Create(c, workloadHeap, CreateBugs{})
			s := NewSkiplist(p, SkiplistBugs{})
			s.Insert(10, 100)
			s.Insert(20, 200)
			s.Delete(10)
			s.Insert(30, 300)
		},
		Recover: func(c *core.Context) {
			p, ok := Open(c)
			if !ok {
				return
			}
			p.TxRecover()
			s := NewSkiplist(p, SkiplistBugs{})
			s.Check()
			for _, k := range []uint64{10, 20, 30} {
				if v, found := s.Lookup(k); found {
					c.Assert(v == k*10, "key %d recovered value %d", k, v)
				}
			}
		},
	}
	res := core.New(prog, core.Options{}).Run()
	if res.Buggy() {
		t.Fatalf("bugs: %v\nchoices: %s", res.Bugs[0], res.Bugs[0].Choices)
	}
	if !res.Complete {
		t.Fatal("exploration incomplete")
	}
}

// The NoNodeFlush knob must be detectable, like the btree's bug #1.
func TestSkiplistNoNodeFlushDetected(t *testing.T) {
	res := core.New(SkiplistWorkload(6, SkiplistBugs{NoNodeFlush: true}),
		core.Options{StopAtFirstBug: true}).Run()
	if !res.Buggy() {
		t.Fatal("unflushed skiplist node not detected")
	}
}
