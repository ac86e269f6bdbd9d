package main

import (
	"io"
	"os"
	"regexp"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for jaaru-bench when the bugs25
// workload starts a pass as a child of its own executable.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "--bugs-pass" {
		bugsPassMain(os.Args[2:])
		return
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload in both modes on the n=6 tier (one
// repetition, the fleet on 127.0.0.1:0) and checks the contract with
// BENCHMARK.json: names are well formed and unique, every run emits exactly
// the metrics the file names for its mode, every end-to-end metric is
// measured on every workload, and every per-layer metric on at least one.
func TestSmoke(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	mf, err := loadManifest(root)
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metric(nil), mf.EndToEnd...), mf.PerLayer...) {
		if !nameRE.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("bad or duplicate metric name %q", d.Name)
		}
		seen[d.Name] = true
	}

	bin, err := buildBinaries(root)
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(bin)
	cfg := config{root: root, mf: mf, seed: 1, smoke: true, binDir: bin}
	measured := map[string]bool{}
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			start := time.Now()
			res, err := runOne(cfg, w, traced, "")
			t.Logf("%s traced=%v: %v", w.name, traced, time.Since(start).Round(time.Millisecond))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			defs := mf.EndToEnd
			if traced {
				defs = mf.PerLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d named", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				mv, ok := res.Metrics[d.Name]
				if !ok || mv.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s emitted=%v unit %q, want %q", w.name, traced, d.Name, ok, mv.Unit, d.Unit)
				}
				if !traced && (!res.produced[d.Name] || mv.Value <= 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must be measured and positive", w.name, d.Name, mv.Value)
				}
				if res.produced[d.Name] {
					measured[d.Name] = true
				}
			}
		}
	}
	for _, d := range mf.PerLayer {
		if !measured[d.Name] {
			t.Errorf("per-layer metric %s is named in BENCHMARK.json but no workload measures it", d.Name)
		}
	}
}

func TestCompareReports(t *testing.T) {
	mf := &manifest{
		EndToEnd: []metric{{Name: "verdict_s", Unit: "s", Better: "lower", Bound: 0.1}},
		PerLayer: []metric{{Name: "core.steps", Unit: "count", Better: "lower"}},
	}
	mk := func(verdictS, spread, steps float64) *report {
		r := &report{Seed: 1, Workloads: map[string]*workloadReport{}}
		for _, w := range workloads {
			r.Workloads[w.name] = &workloadReport{
				Attempted: 1,
				EndToEnd:  map[string]float64{"verdict_s": verdictS},
				RepSpread: map[string]float64{"verdict_s": spread},
				PerLayer:  map[string]float64{"core.steps": steps},
			}
		}
		return r
	}
	base := mk(1.00, 0.02, 100)
	for _, tc := range []struct {
		name string
		b    *report
		want bool
	}{
		{"within the bound", mk(1.08, 0.02, 100), true},
		{"faster", mk(0.50, 0.02, 100), true},
		{"slower than the bound", mk(1.30, 0.02, 100), false},
		{"spread wider than the bound", mk(1.00, 0.15, 100), false},
		{"an exact count moved", mk(1.00, 0.02, 101), false},
	} {
		if got := compareReports(io.Discard, mf, base, tc.b); got != tc.want {
			t.Errorf("%s: compare = %v, want %v", tc.name, got, tc.want)
		}
	}
}
