package jaaru_test

import (
	"fmt"
	"testing"

	"jaaru"
	"jaaru/internal/pmdk"
)

// commitStoreProgram initializes lines cache lines and, with commitStore,
// publishes them through a root pointer recovery checks before reading —
// §3.2's commit-store pattern. Without it, recovery reads the data at its
// well-known offset whether or not the pointer was persisted.
func commitStoreProgram(lines int, commitStore bool) jaaru.Program {
	return jaaru.Program{
		Name: fmt.Sprintf("ablation-%d-%v", lines, commitStore),
		Run: func(c *jaaru.Context) {
			arr := c.AllocLine(uint64(lines) * 64)
			for i := 0; i < lines; i++ {
				c.Store64(arr.Add(uint64(i)*64), uint64(i)+1)
			}
			c.Clflush(arr, uint64(lines)*64)
			c.StorePtr(c.Root(), arr)
			c.Clflush(c.Root(), 8)
		},
		Recover: func(c *jaaru.Context) {
			arr := c.LoadPtr(c.Root())
			if arr == 0 {
				if commitStore {
					return // not committed: do not touch the data
				}
				arr = c.Root().Add(jaaru.RootSize)
			}
			for i := 0; i < lines; i++ {
				_ = c.Load64(arr.Add(uint64(i) * 64))
			}
		},
	}
}

// transferProgram writes the same three words in one transaction, under the
// undo log or the redo log; recovery must never see a torn first word.
func transferProgram(redo bool) jaaru.Program {
	return jaaru.Program{
		Name: fmt.Sprintf("transfer-redo=%v", redo),
		Run: func(c *jaaru.Context) {
			p := pmdk.Create(c, 8192, pmdk.CreateBugs{})
			a := p.PAlloc(24, pmdk.HeapBugs{})
			p.SetRootObj(a)
			if redo {
				tx := p.RedoBegin()
				tx.Set(a, 1)
				tx.Set(a.Add(8), 2)
				tx.Set(a.Add(16), 3)
				tx.Commit()
				return
			}
			tx := p.TxBegin(pmdk.TxBugs{})
			tx.Add(a, 24)
			c.Store64(a, 1)
			c.Store64(a.Add(8), 2)
			c.Store64(a.Add(16), 3)
			tx.Commit()
		},
		Recover: func(c *jaaru.Context) {
			p, ok := pmdk.Open(c)
			if !ok {
				return
			}
			if redo {
				p.RedoRecover()
			} else {
				p.TxRecover()
			}
			if a := p.RootObj(); a != 0 {
				v := c.Load64(a)
				c.Assert(v == 0 || v == 1, "torn: %d", v)
			}
		},
	}
}

// twoLineProgram flushes one store to each of two lines; recovery reads both.
func twoLineProgram() jaaru.Program {
	return jaaru.Program{
		Name: "two-lines",
		Run: func(c *jaaru.Context) {
			r := c.Root()
			c.Store64(r, 1)
			c.Clflush(r, 8)
			c.Store64(r.Add(64), 2)
			c.Clflush(r.Add(64), 8)
		},
		Recover: func(c *jaaru.Context) {
			_ = c.Load64(c.Root())
			_ = c.Load64(c.Root().Add(64))
		},
	}
}

// TestAblationCounts pins the explored-execution counts of the ablations
// EXPERIMENTS.md reports: the commit store keeps an 8-line initialization
// linear (4 scenarios) where reading without it is exponential (2^8 + 3);
// the redo log costs a little more than the undo log on the same transfer;
// exploring store-buffer eviction (Figure 11's "choose to evict") costs ~26×
// the eager policy on a two-line program. Every run is clean and complete.
func TestAblationCounts(t *testing.T) {
	for _, tc := range []struct {
		name  string
		prog  jaaru.Program
		opts  jaaru.Options
		execs int
	}{
		{"commit-store", commitStoreProgram(8, true), jaaru.Options{}, 5},
		{"no-commit-store", commitStoreProgram(8, false), jaaru.Options{MaxScenarios: 4096}, 260},
		{"undo-log", transferProgram(false), jaaru.Options{}, 15},
		{"redo-log", transferProgram(true), jaaru.Options{}, 17},
		{"evict-eager", twoLineProgram(), jaaru.Options{}, 6},
		{"evict-explore", twoLineProgram(), jaaru.Options{Eviction: jaaru.EvictExplore}, 155},
	} {
		res := jaaru.Check(tc.prog, tc.opts)
		if res.Buggy() || !res.Complete || res.Executions != tc.execs {
			t.Errorf("%s: %d executions (buggy %v, complete %v), want %d, clean and complete",
				tc.name, res.Executions, res.Buggy(), res.Complete, tc.execs)
		}
	}
}
