package main

import (
	"fmt"
	"strings"

	"jaaru/internal/core"
	"jaaru/internal/recipe"
	"jaaru/internal/yat"
)

// fig14 prints the paper's Figure 14 for the six fixed RECIPE programs at
// the given scale: the executions Jaaru explores (#JExec.), the wall-clock
// exploration time (JTime), the failure points (#FPoints), executions per
// failure point, and the post-failure states an eager checker such as Yat
// would have to explore — counted analytically with big integers, as the
// paper did (Yat is not publicly available). A fixed program that reports a
// bug is an error.
func fig14(scale int) error {
	fmt.Println("Figure 14 — Jaaru's state space reduction (fixed RECIPE variants)")
	fmt.Printf("%-12s  %7s  %10s  %8s  %8s  %14s\n",
		"Benchmark", "#JExec.", "JTime", "#FPoints", "Ex/FP", "#Yat Execs.")
	fmt.Println("------------------------------------------------------------------")

	for _, prog := range recipe.PerfWorkloads(scale) {
		res := core.New(prog, core.Options{}).Run()
		if res.Buggy() {
			return fmt.Errorf("%s: unexpected bug: %v", prog.Name, res.Bugs[0])
		}
		count := yat.CountStates(prog, core.Options{})
		perFP := float64(res.Executions-1) / float64(max(res.FailurePoints, 1))
		fmt.Printf("%-12s  %7d  %10s  %8d  %8.2f  %14s\n",
			strings.TrimPrefix(prog.Name, "recipe/"), res.Executions, res.Duration.Round(1e6),
			res.FailurePoints, perFP, count.Sci())
	}
	fmt.Println()
	fmt.Println("Paper (for shape comparison): CCEH 891/14.51s/528/2.17e182,")
	fmt.Println("FAST_FAIR 170/1.48s/41/5.43e15, P-ART 174/1.86s/22/1.21e34,")
	fmt.Println("P-BwTree 71/0.79s/36/1.50e16, P-CLHT 25/1.59s/12/1.93e605,")
	fmt.Println("P-Masstree 24/0.17s/16/1.67e15.")
	fmt.Println("Executions per failure point should fall between 1 and 8 (paper: 1.4-7.9);")
	fmt.Println("the eager column should exceed Jaaru's by many orders of magnitude.")
	return nil
}
