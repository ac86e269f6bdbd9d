package yat

import (
	"fmt"
	"math/big"
	"testing"

	"jaaru/internal/core"
)

func TestSci(t *testing.T) {
	cases := []struct {
		n    int64
		want string
	}{
		{0, "0"},
		{1, "1.00e0"},
		{9, "9.00e0"},
		{10, "1.00e1"},
		{1234, "1.23e3"},
		{999999, "1.00e6"},
	}
	for _, c := range cases {
		if got := Sci(big.NewInt(c.n)); got != c.want {
			t.Errorf("Sci(%d) = %q, want %q", c.n, got, c.want)
		}
	}
	// 9^16: the paper's intro example (an unflushed array of 128 ints has
	// 9^(n/8) states).
	n := new(big.Int).Exp(big.NewInt(9), big.NewInt(16), nil)
	if got := Sci(n); got != "1.85e15" {
		t.Errorf("Sci(9^16) = %q", got)
	}
}

// The paper's intro example: initialize a cache-line-aligned array of n
// 64-bit integers and crash right before its flushes — the PM has 9^(n/8)
// possible states, which is what Yat must explore. Jaaru explores almost
// none of them when recovery guards with a commit word.
func arrayProgram(n int) core.Program {
	return core.Program{
		Name: fmt.Sprintf("array-%d", n),
		Run: func(c *core.Context) {
			arr := c.AllocLine(uint64(n) * 8)
			for i := 0; i < n; i++ {
				c.Store64(arr.Add(uint64(i)*8), uint64(i)+1)
			}
			c.Clflush(arr, uint64(n)*8) // crash injected right before these
			c.StorePtr(c.Root(), arr)   // commit store
			c.Clflush(c.Root(), 8)
		},
		Recover: func(c *core.Context) {
			arr := c.LoadPtr(c.Root())
			if arr == 0 {
				return
			}
			for i := 0; i < n; i++ {
				v := c.Load64(arr.Add(uint64(i) * 8))
				c.Assert(v == uint64(i)+1, "array slot %d corrupt: %d", i, v)
			}
		},
	}
}

func TestCountStatesArray(t *testing.T) {
	// 128 integers spanning 16 lines: at the failure point right before
	// the array's flushes all 16 lines are dirty with 8 stores each, so
	// Yat's worst failure point has exactly 9^16 states.
	res := CountStates(arrayProgram(128), core.Options{})
	want := new(big.Int).Exp(big.NewInt(9), big.NewInt(16), nil)
	if res.MaxPerPoint.Cmp(want) != 0 {
		t.Errorf("MaxPerPoint = %s, want 9^16 = %s", res.MaxPerPoint, want)
	}
	if res.States.Cmp(want) < 0 {
		t.Errorf("total %s below the worst point %s", res.States, want)
	}
	if res.MaxDirtyLines != 16 {
		t.Errorf("MaxDirtyLines = %d, want 16", res.MaxDirtyLines)
	}
	// Jaaru, by contrast, explores a tiny number of executions thanks to
	// the commit store.
	jr := core.New(arrayProgram(128), core.Options{}).Run()
	if jr.Buggy() {
		t.Fatalf("bugs: %v", jr.Bugs)
	}
	if jr.Executions > 64 {
		t.Errorf("Jaaru explored %d executions; expected a tiny number vs 9^16", jr.Executions)
	}
	if res.FailurePoints == 0 {
		t.Error("no failure points counted")
	}
}

func TestCountStatesCleanProgram(t *testing.T) {
	// A program that flushes immediately after every store: each failure
	// point has exactly one dirty line with one store (the store preceding
	// the flush about to take effect).
	prog := core.Program{
		Name: "clean",
		Run: func(c *core.Context) {
			r := c.Root()
			for i := uint64(0); i < 4; i++ {
				c.Store64(r.Add(i*64), i+1)
				c.Clflush(r.Add(i*64), 8)
			}
		},
		Recover: func(c *core.Context) {},
	}
	res := CountStates(prog, core.Options{})
	if res.FailurePoints != 5 { // 4 pre-flush + end
		t.Errorf("FailurePoints = %d, want 5", res.FailurePoints)
	}
	// Each of the 4 pre-flush points has 2 states (store persisted or
	// not); the end point has 1 dirty... none (all flushed) → 1.
	want := big.NewInt(4*2 + 1)
	if res.States.Cmp(want) != 0 {
		t.Errorf("States = %s, want %s", res.States, want)
	}
}
