package main

import (
	"bufio"
	"bytes"
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// rep is one repetition of a workload: what the user waited, what the OS
// charged, and whether the verdict matched the pinned expectation.
type rep struct {
	wall  time.Duration
	cpu   time.Duration
	rssMB float64
	steps int64
	// fail is empty when the verdict was checked and matched.
	fail string
	// counts holds the traced pass's counters under their metric names.
	counts map[string]float64
	// procs keeps per-process usage for the fleet (coordinator first).
	procs []usage
	// pass is what a bugs25 pass reported.
	pass passResult
}

var (
	summaryRE = regexp.MustCompile(`(?m)^.+: (\d+) executions, (\d+) scenarios, (\d+) failure points, (\d+) steps, `)
	bugsRE    = regexp.MustCompile(`(?m)^(\d+) distinct bug\(s\):$`)
	kvRE      = regexp.MustCompile(`^(.+?)\s{2,}(\S+)$`)
)

// parseSummary reads the verdict off the jaaru CLI's summary block.
func parseSummary(out []byte) (verdict, error) {
	m := summaryRE.FindSubmatch(out)
	if m == nil {
		return verdict{}, fmt.Errorf("no summary line in output")
	}
	var v verdict
	v.Executions, _ = strconv.Atoi(string(m[1]))
	v.Scenarios, _ = strconv.Atoi(string(m[2]))
	v.FailurePoints, _ = strconv.Atoi(string(m[3]))
	v.Steps, _ = strconv.ParseInt(string(m[4]), 10, 64)
	v.Complete = !bytes.Contains(out, []byte("exploration truncated"))
	switch b := bugsRE.FindSubmatch(out); {
	case b != nil:
		v.Bugs, _ = strconv.Atoi(string(b[1]))
	case !bytes.Contains(out, []byte("no bugs found")):
		return verdict{}, fmt.Errorf("neither a bug list nor \"no bugs found\" in output")
	}
	return v, nil
}

// cliCounters maps the -metrics block's row labels to per-layer metric names.
var cliCounters = map[string]string{
	"guest steps":                  "core.steps",
	"scenarios":                    "core.scenarios",
	"executions":                   "core.executions",
	"loads: cache hits":            "core.load_cache_hits",
	"loads: store-buffer hits":     "core.load_sb_hits",
	"loads: refinements":           "core.load_refinements",
	"refinements skipped":          "core.refinements_skipped",
	"rf candidates (total)":        "core.rf_candidates",
	"snapshots captured":           "core.snapshot_captures",
	"snapshots restored":           "core.snapshot_restores",
	"snapshot bytes (max)":         "core.snapshot_bytes_max",
	"choice snapshots captured":    "core.choice_snap_captures",
	"choice snapshots restored":    "core.choice_restores",
	"replayed guest steps":         "core.replay_steps",
	"scenarios pruned":             "core.por_scenarios_pruned",
	"fingerprint hits":             "core.por_fingerprint_hits",
	"fingerprint misses":           "core.por_fingerprint_misses",
	"rf elisions":                  "core.por_rf_elisions",
	"store-buffer evictions":       "tso.sb_evictions",
	"flush-buffer writebacks":      "tso.fb_writebacks",
	"store-buffer occupancy (max)": "tso.sb_occupancy_max",
	"donations":                    "parallel.donations",
	"frontier pushed":              "parallel.frontier_pushed",
}

// parseMetricsBlock reads the "observability" table `jaaru -metrics` prints
// after the summary. Rows the CLI leaves out (a feature that never fired)
// stay absent, which the caller reads as 0.
func parseMetricsBlock(out []byte) map[string]float64 {
	counts := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	in := false
	for sc.Scan() {
		line := strings.TrimRight(sc.Text(), " ")
		if line == "observability" {
			in = true
			continue
		}
		if !in {
			continue
		}
		m := kvRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		if name, ok := cliCounters[m[1]]; ok {
			if v, err := strconv.ParseFloat(m[2], 64); err == nil {
				counts[name] = v
			}
		}
	}
	return counts
}

// cliRep runs `jaaru [-workers k] [-metrics] -n N <bench>` once: exec to
// process exit is the verdict time.
func (h *harness) cliRep(w *workload, workers int, traced bool, parent, idx int) rep {
	args := []string{"-n", strconv.Itoa(w.n[h.tier])}
	if workers > 1 {
		args = append(args, "-workers", strconv.Itoa(workers))
	}
	if traced {
		args = append(args, "-metrics")
	}
	args = append(args, w.bench)

	sp := h.tr.begin("jaaru "+strings.Join(args, " "), parent, idx)
	out, exit, wall, u, err := runToExit(filepath.Join(h.binDir, "jaaru"), args...)
	h.tr.end(sp)

	r := rep{wall: wall, cpu: u.cpu, rssMB: u.rssMB}
	if err != nil {
		r.fail = err.Error()
		return r
	}
	got, err := parseSummary(out)
	switch {
	case err != nil:
		r.fail = err.Error()
	case exit != 0:
		r.fail = fmt.Sprintf("exit status %d", exit)
	case got != w.want[h.tier]:
		r.fail = fmt.Sprintf("verdict %+v, pinned %+v", got, w.want[h.tier])
	}
	r.steps = got.Steps
	if traced {
		r.counts = parseMetricsBlock(out)
		r.counts["core.failure_points"] = float64(got.FailurePoints)
	}
	return r
}
