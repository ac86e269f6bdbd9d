package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// harness runs one workload in one mode. The load is a closed loop with one
// client: each repetition starts when the previous one has exited, and the
// only busy threads are the ones the workload itself asks for (at most 2).
type harness struct {
	root     string // repository root: where go build runs and .bench_build lives
	prebuilt string // binaries to reuse instead of building (tests only)
	tier     tier
	window   time.Duration // how long the timed repetitions measure
	minReps  int           // never report a median of fewer repetitions
	setups   int           // set-ups per run; setup_s is their median

	rng    *rand.Rand
	tr     *tracer
	binDir string
}

// outcome is what one run reports.
type outcome struct {
	metrics   map[string]float64
	attempted int
	failed    int
	// reps is the number of timed repetitions behind each median, and
	// spread their interquartile range ÷ median, per end-to-end metric.
	reps   int
	spread map[string]float64
}

// checksPerRep is how many pinned verdicts one repetition checks.
func checksPerRep(w *workload) int {
	if w.kind == kindBugs {
		return len(bugCases(tierFull))
	}
	return 1
}

// setup does what must happen before the first repetition can start — build
// the three binaries and, for the fleet, bring a coordinator up to its listen
// line — and returns how long that took. The binaries of the last set-up are
// the ones the repetitions run.
func (h *harness) setup(w *workload, parent int) (time.Duration, error) {
	sp := h.tr.begin("setup", parent, -1)
	defer h.tr.end(sp)
	start := time.Now()
	if h.prebuilt != "" {
		h.binDir = h.prebuilt
	} else {
		h.cleanup() // an earlier set-up's binaries
		spb := h.tr.begin("setup.go_build", sp, -1)
		dir, err := buildBinaries(h.root)
		h.tr.end(spb)
		if err != nil {
			return 0, err
		}
		h.binDir = dir
	}
	if w.kind == kindFleet {
		spc := h.tr.begin("setup.coordinator_up", sp, -1)
		srv, _, err := h.startCoordinator()
		h.tr.end(spc)
		if err != nil {
			return 0, err
		}
		took := time.Since(start)
		srv.stop()
		return took, nil
	}
	return time.Since(start), nil
}

// cleanup removes the binaries the last set-up built.
func (h *harness) cleanup() {
	if h.prebuilt == "" && h.binDir != "" {
		os.RemoveAll(h.binDir)
		h.binDir = ""
	}
}

// runRep dispatches one repetition. workers overrides the workload's own
// count: 1 runs the serial twin of a parallel or fleet workload (same bench,
// same n, same pinned verdict) for the speed-up ratios.
func (h *harness) runRep(w *workload, workers int, traced bool, parent, idx int) rep {
	switch {
	case w.kind == kindBugs:
		return h.bugsPass(w, traced, parent, idx)
	case w.kind == kindFleet && workers > 1:
		return h.fleetRep(w, traced, parent, idx)
	default:
		return h.cliRep(w, workers, traced, parent, idx)
	}
}

// series runs rounds of untraced repetitions, one per entry of variants (a
// worker count) in each round, so that two variants whose ratio is reported
// are measured side by side. The first round is a discarded warm-up (the
// smoke tier skips it); rounds go on until there are at least h.minReps timed
// ones and window has passed. Every repetition's verdict is checked, the
// warm-up's too. A failed repetition is counted and its round left out of
// the timings.
func (h *harness) series(w *workload, variants []int, window time.Duration, o *outcome) ([][]rep, error) {
	sp := h.tr.begin("untraced", 0, -1)
	defer h.tr.end(sp)
	timed := make([][]rep, len(variants))
	start := time.Now()
	for idx := 0; len(timed[0]) < h.minReps || time.Since(start) < window; idx++ {
		round := make([]rep, len(variants))
		ok := true
		for v, workers := range variants {
			r := h.runRep(w, workers, false, sp, idx)
			o.attempted += checksPerRep(w)
			if r.fail != "" {
				ok = false
				o.failed++
				fmt.Fprintf(os.Stderr, "%s workers=%d rep %d FAILED: %s\n", w.name, workers, idx, r.fail)
				if o.failed >= 3 {
					return nil, fmt.Errorf("%d repetitions failed, giving up", o.failed)
				}
			}
			round[v] = r
		}
		if !ok {
			continue
		}
		if idx == 0 && h.tier == tierFull {
			start = time.Now() // the window measures timed repetitions only
			continue
		}
		for v := range variants {
			timed[v] = append(timed[v], round[v])
		}
	}
	return timed, nil
}

var (
	wallOf = func(r rep) float64 { return r.wall.Seconds() }
	cpuOf  = func(r rep) float64 { return r.cpu.Seconds() }
)

// untraced produces the end-to-end metrics.
func (h *harness) untraced(w *workload) (outcome, error) {
	o := outcome{metrics: map[string]float64{}, spread: map[string]float64{}}
	// Most set-ups come before the repetitions, the rest after them, so a
	// noisy spell of a few seconds cannot reach the median.
	var setups []float64
	setUp := func(n int) error {
		for i := 0; i < n; i++ {
			d, err := h.setup(w, 0)
			if err != nil {
				return err
			}
			setups = append(setups, d.Seconds())
		}
		return nil
	}
	defer h.cleanup()
	if err := setUp((h.setups + 1) / 2); err != nil {
		return o, err
	}
	timed, err := h.series(w, []int{w.workers}, h.window, &o)
	if err != nil {
		return o, err
	}
	if err := setUp(h.setups / 2); err != nil {
		return o, err
	}
	reps := timed[0]
	o.reps = len(reps)
	o.metrics["setup_s"] = median(setups)
	for name, f := range map[string]func(rep) float64{
		"verdict_s":   wallOf,
		"steps_per_s": func(r rep) float64 { return float64(r.steps) / r.wall.Seconds() },
		"cpu_s":       cpuOf,
		"peak_rss_mb": func(r rep) float64 { return r.rssMB },
	} {
		o.metrics[name] = medianOf(reps, f)
		o.spread[name] = iqrShare(reps, f)
	}
	return o, nil
}

// traced produces the per-layer metrics: an untraced series as the baseline
// (with the serial twin beside it where a speed-up is defined), one traced
// repetition for the counts, and the layer probes.
func (h *harness) traced(w *workload) (outcome, error) {
	o := outcome{metrics: map[string]float64{}}
	m := o.metrics
	if _, err := h.setup(w, 0); err != nil {
		return o, err
	}
	defer h.cleanup()

	variants := []int{w.workers}
	if w.workers > 1 {
		variants = append(variants, 1)
	}
	timed, err := h.series(w, variants, h.window*3/10, &o)
	if err != nil {
		return o, err
	}
	base := timed[0]
	o.reps = len(base)
	verdictS := medianOf(base, wallOf)
	m["harness.rep_spread"] = spread(base, wallOf)
	if w.workers > 1 {
		layer := "parallel"
		if w.kind == kindFleet {
			layer = "dist"
			m["dist.worker_cpu_share_min"] = medianOf(base, workerShareMin)
		}
		m[layer+".speedup"] = medianOf(timed[1], wallOf) / verdictS
		m[layer+".cpu_inflation"] = medianOf(base, cpuOf) / medianOf(timed[1], cpuOf)
	}

	sp := h.tr.begin("traced", 0, -1)
	tr := h.runRep(w, w.workers, true, sp, 0)
	h.tr.end(sp)
	o.attempted += checksPerRep(w)
	if tr.fail == "" && tr.counts["core.steps"] != float64(tr.steps) {
		// A renamed row or family would otherwise read as a silent 0.
		tr.fail = fmt.Sprintf("traced counts say %.0f steps, the verdict %d", tr.counts["core.steps"], tr.steps)
	}
	if tr.fail != "" {
		o.failed++
		fmt.Fprintf(os.Stderr, "%s traced rep FAILED: %s\n", w.name, tr.fail)
	}
	for name, v := range tr.counts {
		m[name] = v
	}
	m["obs.traced_slowdown"] = tr.wall.Seconds() / verdictS
	if m["core.scenarios"] > 0 {
		m["guest.steps_per_scenario"] = m["core.steps"] / m["core.scenarios"]
	}
	if w.kind == kindBugs {
		ms := func(f func(passResult) int64) float64 {
			return medianOf(base, func(r rep) float64 { return float64(f(r.pass)) / 1e6 })
		}
		m["core.first_bug_ms"] = ms(func(p passResult) int64 { return p.ExploreNs })
		m["forensics.witness_ms"] = ms(func(p passResult) int64 { return p.WitnessNs })
		m["forensics.minimize_ms"] = ms(func(p passResult) int64 { return p.MinimizeNs })
		m["forensics.minimize_trials"] = float64(tr.pass.Trials)
		spl := h.tr.begin("bugs25.loop_witnesses", 0, -1)
		took, err := loopWitnesses(h.tier)
		h.tr.end(spl)
		if err != nil {
			return o, err
		}
		m["forensics.loop_witness_ms"] = took.Seconds() * 1e3
	}

	spp := h.tr.begin("probes", 0, -1)
	p := &prober{dur: h.window * 3 / 100, rng: h.rng, tr: h.tr, parent: spp, out: m}
	runs := directRuns(w, h.tier)
	p.core(runs)
	p.pmem(p.images(runs))
	p.tso()
	if w.kind == kindFleet {
		if err := p.dataPlane([2]int{64, 6}[h.tier]); err != nil {
			return o, err
		}
	}
	h.tr.end(spp)

	attribute(m, medianOf(base, cpuOf))
	return o, nil
}

// workerShareMin is the least-loaded worker's share of the fleet's worker CPU
// in one repetition: 1/workers is balanced. Scenarios per worker are not
// exposed by any endpoint, so CPU — which the OS measures from outside —
// stands in for them.
func workerShareMin(r rep) float64 {
	if len(r.procs) < 2 {
		return 0
	}
	var sum, least float64
	least = math.Inf(1)
	for _, u := range r.procs[1:] { // procs[0] is the coordinator
		sum += u.cpu.Seconds()
		least = min(least, u.cpu.Seconds())
	}
	if sum == 0 {
		return 0
	}
	return least / sum
}

// attribute prices the traced pass's counts with the probes' unit costs and
// reports how much of the untraced CPU time (the verdict time, for a serial
// workload) that outside view explains. The model is additive and small:
//
//	the guest's pre-failure code runs fresh once, and every replayed step
//	costs the same, at direct speed;
//	every refined load byte costs a pmem read on the workload's own image,
//	or a re-read when the refinement walk was skipped;
//	every snapshot or choice-point restore costs one rewind of a read sweep;
//	every fingerprint hashes one changed line; every scenario that is
//	neither pruned nor a restore recycles its stack.
//
// What it leaves out is the residual: recovery code's own dispatch, stores
// and flushes (no counter separates their physical count from the logical
// core.steps), chooser and snapshot-capture work, process start. Reported,
// never gated.
func attribute(m map[string]float64, cpuS float64) {
	restores := m["core.snapshot_restores"] + m["core.choice_restores"]
	fullRuns := max(0, m["core.scenarios"]-m["core.por_scenarios_pruned"]-restores)
	ns := (m["guest.pre_failure_steps"]+m["core.replay_steps"])*m["core.direct_ns_per_step"] +
		(m["core.load_refinements"]-m["core.refinements_skipped"])*m["pmem.read_ns_per_byte"] +
		m["core.refinements_skipped"]*m["pmem.reread_ns_per_byte"] +
		restores*m["pmem.mark_rewind_ns"] +
		(m["core.por_fingerprint_hits"]+m["core.por_fingerprint_misses"])*m["pmem.fingerprint_ns_per_line"] +
		fullRuns*m["pmem.recycle_ns"]
	m["attribution.modelled_share"] = ns / 1e9 / cpuS
	m["attribution.residual_share"] = 1 - m["attribution.modelled_share"]
}

// ---- statistics -------------------------------------------------------------

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianOf(reps []rep, f func(rep) float64) float64 {
	v := make([]float64, len(reps))
	for i, r := range reps {
		v[i] = f(r)
	}
	return median(v)
}

// spread is (max − min) ÷ median of the repetitions: harness.rep_spread.
func spread(reps []rep, f func(rep) float64) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, r := range reps {
		lo, hi = min(lo, f(r)), max(hi, f(r))
	}
	return (hi - lo) / medianOf(reps, f)
}

// iqrShare is the distance between the first and third quartile of the
// repetitions as a share of their median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives. Unlike spread it does not grow
// with the number of repetitions, so -compare sets it against the bound.
func iqrShare(reps []rep, f func(rep) float64) float64 {
	n := len(reps)
	if n < 2 {
		return 0
	}
	x := make([]float64, n)
	for i, r := range reps {
		x[i] = f(r)
	}
	sort.Float64s(x)
	quartile := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - 4*j)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return (quartile(3) - quartile(1)) / median(x)
}

// repoRoot finds the directory holding the jaaru module: the working
// directory when run through run.sh, or its parent under `go test`.
func repoRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "jaaru", "main.go")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("no jaaru checkout at %s or its parent", wd)
}
