package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"jaaru/internal/core"
)

// manifest is BENCHMARK.json, the one place metric names, units, directions,
// bounds and the workloads' reasons are written down. The harness reads it at
// start and emits exactly the metrics it names; Go keeps only what the file
// has no key for: which counts must repeat exactly, and the pinned verdicts.
type manifest struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []metric `json:"end_to_end"`
	PerLayer  []metric `json:"per_layer"`
}

type metric struct {
	Name, Unit, Better string
	// Bound is the share of the parent's median an end-to-end metric may
	// worsen by; per-layer metrics have none.
	Bound float64
}

func loadManifest(root string) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var mf manifest
	if err := json.Unmarshal(data, &mf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %v", err)
	}
	named := map[string]bool{}
	for _, d := range mf.PerLayer {
		named[d.Name] = true
	}
	for name := range exactCounts {
		if !named[name] {
			return nil, fmt.Errorf("BENCHMARK.json: per_layer lacks the exact count %s", name)
		}
	}
	for i, w := range mf.Workloads {
		if i >= len(workloads) || workloads[i].name != w.Name {
			return nil, fmt.Errorf("BENCHMARK.json: workload %d is %q, the harness runs %d others", i, w.Name, len(workloads))
		}
	}
	if len(mf.Workloads) != len(workloads) {
		return nil, fmt.Errorf("BENCHMARK.json names %d workloads, the harness runs %d", len(mf.Workloads), len(workloads))
	}
	return &mf, nil
}

// exactCounts are the counts that must repeat bit for bit between two runs
// of a serial workload with the same seed: logical work the checker does for
// a fixed input. -compare gates on them. Counts that depend on scheduling
// (parallel.*, dist.*) and every timing are left out.
var exactCounts = map[string]bool{
	"core.steps": true, "core.scenarios": true, "core.executions": true, "core.failure_points": true,
	"core.load_cache_hits": true, "core.load_sb_hits": true, "core.load_refinements": true,
	"core.refinements_skipped": true, "core.rf_candidates": true,
	"core.snapshot_captures": true, "core.snapshot_restores": true, "core.snapshot_bytes_max": true,
	"core.choice_snap_captures": true, "core.choice_restores": true, "core.replay_steps": true,
	"core.por_scenarios_pruned": true, "core.por_fingerprint_hits": true,
	"core.por_fingerprint_misses": true, "core.por_rf_elisions": true,
	"pmem.image_lines": true, "pmem.image_bytes": true, "pmem.image_stores": true,
	"tso.sb_evictions": true, "tso.fb_writebacks": true, "tso.sb_occupancy_max": true,
	"forensics.minimize_trials": true, "guest.steps_per_scenario": true,
}

// verdict is the deterministic part of a Result: what the checker must report
// for a fixed (bench, n), whatever driver explored it.
type verdict struct {
	Scenarios, Executions, FailurePoints int
	Steps                                int64
	Bugs                                 int
	Complete                             bool
}

func verdictOf(r *core.Result) verdict {
	return verdict{r.Scenarios, r.Executions, r.FailurePoints, r.Steps, len(r.Bugs), r.Complete}
}

type kind int

const (
	kindCLI   kind = iota // one `jaaru` process per repetition
	kindFleet             // jaaru-server + jaaru-worker processes over loopback TCP
	kindBugs              // the 25 seeded bugs, explored and explained in-process
)

// tier selects the workload size: full is what BENCHMARK.json measures,
// smoke is the n=6 size the go test uses.
type tier int

const (
	tierFull tier = iota
	tierSmoke
)

type workload struct {
	name    string
	kind    kind
	bench   string // benchlist name (CLI and fleet)
	workers int    // -workers (CLI) or worker processes (fleet)
	n       [2]int
	// want is the pinned verdict per tier, recorded from the first run and
	// treated as ground truth since. For bugs25 the fields are sums over the
	// 25 cases and Bugs counts cases whose first bug had an expected type.
	want [2]verdict
}

// serial reports whether one checker explores the whole tree, which makes
// every traced count deterministic.
func (w *workload) serial() bool { return w.kind == kindBugs || w.workers == 1 }

var partWant = [2]verdict{
	{Scenarios: 731, Executions: 732, FailurePoints: 633, Steps: 14804874, Complete: true},
	{Scenarios: 43, Executions: 44, FailurePoints: 36, Steps: 35466, Complete: true},
}

// workloads, in BENCHMARK.json's order; the reason for each is in that file.
var workloads = []workload{
	{name: "part_serial", kind: kindCLI, bench: "part", workers: 1, n: [2]int{256, 6}, want: partWant},
	{name: "part_workers2", kind: kindCLI, bench: "part", workers: 2, n: [2]int{256, 6}, want: partWant},
	{name: "part_fleet2", kind: kindFleet, bench: "part", workers: 2, n: [2]int{256, 6}, want: partWant},
	{
		name: "cceh_update", kind: kindCLI, bench: "cceh-update", workers: 1, n: [2]int{1536, 6},
		want: [2]verdict{
			{Scenarios: 18446, Executions: 18447, FailurePoints: 9226, Steps: 767621006, Complete: true},
			{Scenarios: 86, Executions: 87, FailurePoints: 46, Steps: 26126, Complete: true},
		},
	},
	{
		name: "pmserver_write", kind: kindCLI, bench: "pmserver", workers: 1, n: [2]int{128, 6},
		want: [2]verdict{
			{Scenarios: 2337, Executions: 2338, FailurePoints: 1561, Steps: 37871396, Complete: true},
			{Scenarios: 141, Executions: 142, FailurePoints: 97, Steps: 134844, Complete: true},
		},
	},
	{
		name: "bugs25", kind: kindBugs, workers: 1,
		want: [2]verdict{
			{Scenarios: 155, Executions: 180, FailurePoints: 627, Steps: 162080, Bugs: 25, Complete: true},
			{Scenarios: 155, Executions: 180, FailurePoints: 627, Steps: 108080, Bugs: 25, Complete: true},
		},
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
