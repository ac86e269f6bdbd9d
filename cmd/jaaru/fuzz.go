package main

import (
	"flag"
	"fmt"
	"os"

	"jaaru/internal/fuzz"
)

// runFuzz is `jaaru fuzz [-seeds N] [-ops M] [-lines L] [-mixed] [-rmw] [-v]`,
// the checker's self-validation: it generates random persistent-memory
// programs (stores of every width, clflush, clflushopt, clwb, sfence, mfence,
// locked RMWs) and checks, for each, that Jaaru's lazy constraint-refinement
// exploration discovers exactly the same set of post-failure behaviours as a
// Yat-style eager enumeration of every legal memory image. A mismatch exits 1.
func runFuzz(args []string) {
	fs := flag.NewFlagSet("jaaru fuzz", flag.ExitOnError)
	seeds := fs.Int("seeds", 100, "number of random programs to check")
	ops := fs.Int("ops", 14, "pre-failure operations per program")
	lines := fs.Int("lines", 2, "cache lines touched (eager cost is exponential per line)")
	mixed := fs.Bool("mixed", true, "include 1/2/4-byte stores")
	rmw := fs.Bool("rmw", true, "include locked RMW operations")
	verbose := fs.Bool("v", false, "print per-seed statistics")
	fs.Parse(args)

	var totalLazy, totalEager, failures int
	for seed := int64(0); seed < int64(*seeds); seed++ {
		st, err := fuzz.CrossCheck(fuzz.Config{
			Seed:       seed,
			Ops:        *ops,
			Lines:      *lines,
			MixedSizes: *mixed,
			RMW:        *rmw,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "MISMATCH: %v\n", err)
			failures++
			continue
		}
		totalLazy += st.LazyExecutions
		totalEager += st.EagerImages
		if *verbose {
			fmt.Printf("seed %3d: %3d distinct states, %4d lazy executions, %6d eager images\n",
				seed, st.States, st.LazyExecutions, st.EagerImages)
		}
	}
	fmt.Printf("\n%d/%d programs agree between lazy and eager exploration\n",
		*seeds-failures, *seeds)
	fmt.Printf("total executions: %d lazy vs %d eager images (%.1f× reduction)\n",
		totalLazy, totalEager, float64(totalEager)/float64(max(totalLazy, 1)))
	if failures > 0 {
		os.Exit(1)
	}
}
