// Commit stores: the paper's Figure 4 (addChild / readChild), with and
// without the commit-store discipline, demonstrating both the lazy
// exploration win (§3.2) and the debugging support for missing flushes.
//
// The correct version flushes the child's data before publishing it through
// the child pointer (the commit store); recovery checks the pointer before
// touching the data, so Jaaru explores just 1 + 2 + 1 post-failure
// executions across the three failure points. The buggy version omits the
// data flush: recovery can observe a committed pointer whose data did not
// persist, which Jaaru reports along with the load that could read from
// more than one store — and, via the forensics layer, a minimized witness
// explaining exactly which stores each recovery load could observe and why.
//
// Run with:
//
//	go run ./examples/commitstore
package main

import (
	"fmt"

	"jaaru"
)

const dataValue = 0xDA7A

func addChild(c *jaaru.Context, flushData bool) {
	root := c.Root() // ptr->child lives here
	tmp := c.AllocLine(8)
	c.Store64(tmp, dataValue) // tmp->data = data
	if flushData {
		c.Clflush(tmp, 8)
	}
	c.StorePtr(root, tmp) // ptr->child = tmp  (the commit store)
	c.Clflush(root, 8)
}

func readChild(c *jaaru.Context) {
	child := c.LoadPtr(c.Root())
	if child == 0 {
		return // not committed: nothing to read
	}
	// The commit store guarantees the data was persisted first.
	c.Assert(c.Load64(child) == dataValue, "committed child lost its data")
}

func run(name string, flushData bool) {
	prog := jaaru.Program{
		Name:    name,
		Run:     func(c *jaaru.Context) { addChild(c, flushData) },
		Recover: readChild,
	}
	res := jaaru.Check(prog, jaaru.Options{FlagMultiRF: true, Observe: true})
	fmt.Printf("%s:\n", name)
	fmt.Printf("  failure points: %d, post-failure executions: %d\n",
		res.FailurePoints, res.Executions-1)
	// Observe attaches the counter snapshot: the refinement counters make
	// the lazy-exploration win visible (each recovery load consults the
	// interval constraints instead of enumerating states eagerly).
	fmt.Printf("  refined loads: %d (%d candidate stores, max %d per load)\n",
		res.Metrics.LoadRefinements, res.Metrics.RFCandidates, res.Metrics.MaxRFCandidates)
	if res.Buggy() {
		for _, b := range res.Bugs {
			fmt.Printf("  BUG: %v\n", b)
		}
		for _, m := range res.MultiRF {
			fmt.Printf("  debugging support: %v\n", m)
		}
		explain(res)
	} else {
		fmt.Println("  no bugs: the commit-store discipline holds")
	}
	fmt.Println()
}

// explain builds the structured witness for the first bug: the minimized
// decision prefix, where the power failure was injected, and — for each
// post-failure load — which stores it could legally have read from. The
// full text/JSON renderings are available via jaaru.FormatWitnessText and
// jaaru.MarshalWitnessJSON, or `go run ./cmd/jaaru explain -buggy commitstore`.
func explain(res *jaaru.Result) {
	nb, min, err := res.Bugs[0].Minimize()
	if err != nil {
		fmt.Printf("  minimize: %v\n", err)
		return
	}
	w, err := nb.Witness()
	if err != nil {
		fmt.Printf("  witness: %v\n", err)
		return
	}
	fmt.Printf("  witness: %d decisions (%d before minimization), reproduced=%v\n",
		min.MinimizedLen, min.OriginalLen, w.Reproduced)
	for _, f := range w.Failures {
		fmt.Printf("    power failure injected before op %d\n", f.Op)
	}
	// One resolution per load operation (the witness records every byte;
	// the first byte carries the interesting verdicts here).
	seen := map[int]bool{}
	for _, l := range w.Loads {
		if len(l.Candidates) < 2 || seen[l.Op] {
			continue
		}
		seen[l.Op] = true
		fmt.Printf("    load at %s could read %d stores:\n", l.Loc, len(l.Candidates))
		for _, c := range l.Candidates {
			marker := "   "
			if c.Chosen {
				marker = " > "
			}
			fmt.Printf("    %sval=%#x — %s\n", marker, c.Val, c.Reason)
		}
	}
}

func main() {
	run("addChild-correct", true)
	run("addChild-missing-flush", false)
}
