package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"time"

	"jaaru/internal/core"
	"jaaru/internal/obs"
	"jaaru/internal/pmdk"
	"jaaru/internal/recipe"
)

// bugCase is one seeded bug with the options cmd/jaaru-bugs explores it under.
type bugCase struct {
	name   string
	prog   func() core.Program
	opts   core.Options
	expect []core.BugType
}

// bugCases is the Figure 12 + Figure 13 registry: 7 PMDK and 18 RECIPE bugs.
// The smoke tier cuts the RECIPE step budget tenfold: the three infinite-loop
// bugs are still found, and their witnesses cost a tenth.
func bugCases(t tier) []bugCase {
	recipeSteps := [2]int{20_000, 2_000}[t]
	var cases []bugCase
	for _, bc := range pmdk.BugCases() {
		cases = append(cases, bugCase{
			name: fmt.Sprintf("pmdk#%d", bc.ID), prog: bc.Program, expect: bc.Expect,
			opts: core.Options{FlagMultiRF: true, StopAtFirstBug: true},
		})
	}
	for _, bc := range recipe.BugCases() {
		cases = append(cases, bugCase{
			name: fmt.Sprintf("recipe#%d", bc.ID), prog: bc.Program, expect: bc.Expect,
			opts: core.Options{FlagMultiRF: true, StopAtFirstBug: true, MaxSteps: recipeSteps},
		})
	}
	return cases
}

// passResult is what one bugs25 pass reports: the harness runs each pass in a
// child process of its own binary (`jaaru-bench --bugs-pass ...`), which
// prints this as JSON. A process per pass gives this in-process workload the
// same accounting as the CLI ones: CPU and peak RSS from the exited process,
// every pass from a cold heap. (Measured inside one long-lived harness, peak
// RSS is a lifetime high-water mark that drifted 18-35 MiB with collector
// timing.)
type passResult struct {
	Verdict verdict
	// Fail is the first case that did not count, empty when all 25 did.
	Fail string
	// ExploreNs is the 25 explorations to their first bug; WitnessNs and
	// MinimizeNs the forensics on them; Trials the minimizer's re-runs.
	ExploreNs, WitnessNs, MinimizeNs int64
	Trials                           int
	// Counts holds the summed observability counters of a traced pass.
	Counts map[string]float64 `json:",omitempty"`
}

// runBugsPass is the child's side: explore every case to its first bug, then
// build the witness and minimize it, in the order the seed draws. The verdict
// is the sum over cases; a case whose first bug has an unexpected type (or
// whose witness does not reproduce) is left out of Bugs, so the pinned 25
// fails; Complete says that every case counted.
//
// The witness of an infinite-loop bug is left out of the pass. It records
// every load of a 20 000-step execution and takes 1.0-1.6 s for each of the
// three RECIPE loop bugs, against 0.3 s for everything else in the pass
// together; timed inside it, verdict_s on this workload would measure three
// witnesses and nothing the workload exists for. loopWitnesses times them
// apart, as forensics.loop_witness_ms.
func runBugsPass(t tier, seed int64, traced bool) passResult {
	cases := bugCases(t)
	res := passResult{Counts: map[string]float64{}}
	for _, ci := range rand.New(rand.NewSource(seed)).Perm(len(cases)) {
		bc := cases[ci]
		opts := bc.opts
		opts.Observe = traced
		prog := bc.prog()
		t0 := time.Now()
		r := core.New(prog, opts).Run()
		res.ExploreNs += time.Since(t0).Nanoseconds()
		res.Verdict.Scenarios += r.Scenarios
		res.Verdict.Executions += r.Executions
		res.Verdict.FailurePoints += r.FailurePoints
		res.Verdict.Steps += r.Steps
		if r.Metrics != nil {
			addCounts(res.Counts, metricsCounts(*r.Metrics))
		}

		fail := ""
		switch {
		case !r.Buggy():
			fail = "bug not found"
		case !slices.Contains(bc.expect, r.Bugs[0].Type):
			fail = fmt.Sprintf("bug type %v, expected one of %v", r.Bugs[0].Type, bc.expect)
		default:
			bug := r.Bugs[0]
			t0 = time.Now()
			reproduced := bug.Type == core.BugInfiniteLoop || core.BuildWitness(prog, opts, bug).Reproduced
			t1 := time.Now()
			_, min := core.Minimize(prog, opts, bug)
			res.WitnessNs += t1.Sub(t0).Nanoseconds()
			res.MinimizeNs += time.Since(t1).Nanoseconds()
			res.Trials += min.Trials
			if !reproduced || min.MinimizedLen > min.OriginalLen {
				fail = fmt.Sprintf("witness reproduced=%v, minimized %d -> %d decisions", reproduced, min.OriginalLen, min.MinimizedLen)
			}
		}
		if fail == "" {
			res.Verdict.Bugs++
		} else if res.Fail == "" {
			res.Fail = bc.name + ": " + fail
		}
	}
	res.Verdict.Complete = res.Verdict.Bugs == len(cases)
	return res
}

// bugsPassMain is the entry point of `jaaru-bench --bugs-pass`.
func bugsPassMain(args []string) {
	fs := flag.NewFlagSet("bugs-pass", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "case order")
	smoke := fs.Bool("smoke", false, "the go test's tier")
	traced := fs.Bool("trace", false, "explore with Options.Observe and report the counters")
	fs.Parse(args)
	t := tierFull
	if *smoke {
		t = tierSmoke
	}
	json.NewEncoder(os.Stdout).Encode(runBugsPass(t, *seed, *traced))
}

// bugsPass is the harness's side: one child process, exec to exit.
func (h *harness) bugsPass(w *workload, traced bool, parent, idx int) rep {
	self, err := os.Executable()
	if err != nil {
		return rep{fail: err.Error()}
	}
	args := []string{"--bugs-pass", "--seed", fmt.Sprint(h.rng.Int63())}
	if h.tier == tierSmoke {
		args = append(args, "--smoke")
	}
	if traced {
		args = append(args, "--trace")
	}
	sp := h.tr.begin("jaaru-bench "+strings.Join(args, " "), parent, idx)
	out, exit, wall, u, err := runToExit(self, args...)
	h.tr.end(sp)

	r := rep{wall: wall, cpu: u.cpu, rssMB: u.rssMB}
	var pass passResult
	switch {
	case err != nil:
		r.fail = err.Error()
	case exit != 0:
		r.fail = fmt.Sprintf("exit status %d", exit)
	default:
		if err := json.Unmarshal(out, &pass); err != nil {
			r.fail = "pass result: " + err.Error()
		} else if r.fail = pass.Fail; r.fail == "" && pass.Verdict != w.want[h.tier] {
			r.fail = fmt.Sprintf("verdict %+v, pinned %+v", pass.Verdict, w.want[h.tier])
		}
	}
	r.steps, r.pass = pass.Verdict.Steps, pass
	if traced {
		r.counts = pass.Counts
		r.counts["core.failure_points"] = float64(pass.Verdict.FailurePoints)
	}
	return r
}

// loopWitnesses builds, in this process, the witnesses the pass leaves out —
// those of the cases whose first bug is an infinite loop — and returns how
// long they took together.
func loopWitnesses(t tier) (time.Duration, error) {
	var took time.Duration
	for _, bc := range bugCases(t) {
		prog := bc.prog()
		r := core.New(prog, bc.opts).Run()
		if !r.Buggy() || r.Bugs[0].Type != core.BugInfiniteLoop {
			continue
		}
		t0 := time.Now()
		wit := core.BuildWitness(prog, bc.opts, r.Bugs[0])
		took += time.Since(t0)
		if !wit.Reproduced {
			return took, fmt.Errorf("%s: witness does not reproduce the bug", bc.name)
		}
	}
	return took, nil
}

// addCounts folds one case's counters into the pass total: high-water marks
// (names ending in _max) keep the larger value, everything else sums.
func addCounts(total, c map[string]float64) {
	for name, v := range c {
		if strings.HasSuffix(name, "_max") {
			total[name] = max(total[name], v)
		} else {
			total[name] += v
		}
	}
}

// obsCounters maps obs.Metrics json tags — also the coordinator's /metrics
// families, prefixed jaaru_ — to per-layer metric names.
var obsCounters = map[string]string{
	"steps":                "core.steps",
	"scenarios":            "core.scenarios",
	"executions":           "core.executions",
	"load_cache_hits":      "core.load_cache_hits",
	"load_sb_hits":         "core.load_sb_hits",
	"load_refinements":     "core.load_refinements",
	"refinements_skipped":  "core.refinements_skipped",
	"rf_candidates":        "core.rf_candidates",
	"snapshot_captures":    "core.snapshot_captures",
	"snapshot_restores":    "core.snapshot_restores",
	"max_snapshot_bytes":   "core.snapshot_bytes_max",
	"choice_snap_captures": "core.choice_snap_captures",
	"choice_restores":      "core.choice_restores",
	"replay_steps":         "core.replay_steps",
	"scenarios_pruned":     "core.por_scenarios_pruned",
	"fingerprint_hits":     "core.por_fingerprint_hits",
	"fingerprint_misses":   "core.por_fingerprint_misses",
	"rf_elisions":          "core.por_rf_elisions",
	"sb_evictions":         "tso.sb_evictions",
	"fb_writebacks":        "tso.fb_writebacks",
	"max_sb_occupancy":     "tso.sb_occupancy_max",
	"leases_granted":       "dist.leases",
	"lease_requeues":       "dist.requeues",
}

// metricsCounts names an in-process snapshot's counters the way the CLI and
// fleet passes name theirs, going through the snapshot's JSON form so the
// tag table above is the only vocabulary.
func metricsCounts(m obs.Metrics) map[string]float64 {
	data, _ := json.Marshal(m)
	var byTag map[string]float64
	json.Unmarshal(data, &byTag) // all fields are integers
	counts := map[string]float64{}
	for tag, v := range byTag {
		if name, ok := obsCounters[tag]; ok {
			counts[name] = v
		}
	}
	return counts
}
