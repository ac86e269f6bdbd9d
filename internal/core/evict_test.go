package core

import (
	"fmt"
	"sort"
	"testing"
)

// With EvictExplore, store-buffer eviction is a model-checking choice
// point (Figure 11): the classic SB litmus test must then exhibit every
// TSO-legal outcome — not just the one a fixed schedule or policy picks.
func TestEvictExploreSBLitmus(t *testing.T) {
	seen := make(map[string]bool)
	prog := Program{
		Name: "sb-explore",
		Run: func(c *Context) {
			x := c.Alloc(8, 64)
			y := c.Alloc(8, 64)
			start := c.Alloc(8, 8)
			var r1, r2 uint64
			h1 := c.Spawn(func(c *Context) {
				for c.Load64(start) == 0 {
				}
				c.Store64(x, 1)
				r1 = c.Load64(y)
			})
			h2 := c.Spawn(func(c *Context) {
				for c.Load64(start) == 0 {
				}
				c.Store64(y, 1)
				r2 = c.Load64(x)
			})
			c.Store64(start, 1)
			c.Mfence() // make the start flag visible under any eviction choice
			h1.Join(c)
			h2.Join(c)
			seen[fmt.Sprintf("r1=%d r2=%d", r1, r2)] = true
		},
	}
	res := New(prog, Options{Eviction: EvictExplore}).Run()
	if res.Buggy() {
		t.Fatalf("bugs: %v", res.Bugs)
	}
	var got []string
	for k := range seen {
		got = append(got, k)
	}
	sort.Strings(got)
	want := []string{"r1=0 r2=0", "r1=0 r2=1", "r1=1 r2=0", "r1=1 r2=1"}
	if len(got) != len(want) {
		t.Fatalf("outcomes = %v, want all four TSO-legal results %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("outcomes = %v, want %v", got, want)
		}
	}
}

// A single thread must never observe its own stores out of order, no
// matter the eviction choices (TSO total store order + bypassing).
func TestEvictExploreSingleThreadCoherence(t *testing.T) {
	prog := Program{
		Name: "coherence-explore",
		Run: func(c *Context) {
			a := c.Alloc(16, 8)
			c.Store64(a, 1)
			c.Store64(a.Add(8), 2)
			v1 := c.Load64(a)
			v2 := c.Load64(a.Add(8))
			c.Assert(v1 == 1 && v2 == 2, "own stores reordered: %d %d", v1, v2)
			c.Store64(a, 3)
			c.Assert(c.Load64(a) == 3, "stale read after overwrite")
		},
	}
	res := New(prog, Options{Eviction: EvictExplore}).Run()
	if res.Buggy() {
		t.Fatalf("bugs: %v", res.Bugs)
	}
	if res.Scenarios < 2 {
		t.Errorf("eviction choices not explored: %d scenarios", res.Scenarios)
	}
}
