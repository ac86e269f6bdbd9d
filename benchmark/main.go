// Command jaaru-bench is the repository's one benchmark: time to verdict on
// six workloads, attributed to the core / pmem / tso / dist layers from
// outside. BENCHMARK.json names benchmark/run.sh, which builds and runs it:
//
//	sh benchmark/run.sh --workload part_serial --seed 1 --seconds 10 --trace 0
//	sh benchmark/run.sh --workload all --out a.json      # every workload, both modes
//	sh benchmark/run.sh -compare a.json b.json           # run-to-run acceptance
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
// (and writes the spans to benchmark/out/trace-<workload>.json). The last
// line of standard output is one JSON object. See README.md for definitions.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// metricValue and result are the shape of the final JSON line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// produced names the metrics the harness measured on this run; the
	// others were printed as 0 (not applicable to the workload).
	produced map[string]bool
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "--bugs-pass" {
		bugsPassMain(os.Args[2:])
		return
	}
	name := flag.String("workload", "", "workload name, or \"all\" for every workload in both trace modes")
	seed := flag.Int64("seed", 1, "seeds the bugs25 case order and the probe op-streams (the checked inputs are fixed by bench and n)")
	seconds := flag.Float64("seconds", 10, "how long the timed repetitions measure")
	trace := flag.Int("trace", 0, "0: end-to-end metrics from untraced repetitions; 1: per-layer metrics from a traced pass and probes")
	smoke := flag.Bool("smoke", false, "n=6 inputs, one repetition, one set-up: the go test's tier")
	out := flag.String("out", "", "merge this run's metrics into a JSON report (the input of -compare)")
	compare := flag.Bool("compare", false, "compare two reports: -compare a.json b.json")
	flag.Parse()

	root, err := repoRoot()
	if err != nil {
		fatal(err)
	}
	mf, err := loadManifest(root)
	if err != nil {
		fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: -compare a.json b.json"))
		}
		ok, err := compareFiles(mf, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	cfg := config{root: root, mf: mf, seed: *seed, seconds: *seconds, smoke: *smoke}
	var res result
	if *name == "all" {
		if *out == "" {
			*out = filepath.Join(root, "benchmark", "out", "report.json")
		}
		if res, err = runAll(cfg, *out); err != nil {
			fatal(err)
		}
	} else {
		w := findWorkload(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		if res, err = runOne(cfg, w, *trace == 1, *out); err != nil {
			fatal(err)
		}
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "jaaru-bench:", err)
	os.Exit(2)
}

// runAll runs every workload in both modes, each in a fresh harness process
// exactly as the driver would start it, and merges them into one report. A
// fresh process matters for peak_rss_mb: Linux reports a child's max RSS as at
// least its parent's RSS at spawn, and a harness that has already run probes
// or bugs25 in-process would put that floor above the workloads' own peaks.
func runAll(cfg config, reportPath string) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	total := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			args := []string{"--workload", w.name, "--trace", trace, "--out", reportPath,
				"--seed", fmt.Sprint(cfg.seed), "--seconds", fmt.Sprint(cfg.seconds)}
			if cfg.smoke {
				args = append(args, "--smoke")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			os.Stdout.Write(stdout)
			var r result
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			if jerr := json.Unmarshal(lines[len(lines)-1], &r); jerr != nil {
				return total, fmt.Errorf("%s --trace %s: %v (no result line: %v)", w.name, trace, err, jerr)
			}
			total.Attempted += r.Attempted
			total.Failed += r.Failed
			total.Correct = total.Correct && r.Correct
		}
	}
	return total, nil
}

type config struct {
	root    string
	mf      *manifest
	seed    int64
	seconds float64
	smoke   bool
	// binDir, when set, holds prebuilt binaries the set-up reuses instead of
	// building: the smoke test builds once for its twelve runs.
	binDir string
}

// runOne measures one workload in one mode, prints every metric BENCHMARK.json
// names for that mode with its unit, and returns the JSON-line form. A metric
// the harness did not produce for this workload (dist.* off the fleet,
// forensics.* off bugs25, ...) reads 0; a metric the harness produced that
// the file does not name is an error.
func runOne(cfg config, w *workload, traced bool, reportPath string) (result, error) {
	h := &harness{
		root: cfg.root, prebuilt: cfg.binDir,
		window:  time.Duration(cfg.seconds * float64(time.Second)),
		minReps: 5, setups: 5,
		rng: rand.New(rand.NewSource(cfg.seed)),
		tr:  newTracer(w.name),
	}
	if cfg.smoke {
		h.tier, h.window, h.minReps, h.setups = tierSmoke, 0, 1, 1
	}
	run, defs := h.untraced, cfg.mf.EndToEnd
	if traced {
		run, defs = h.traced, cfg.mf.PerLayer
	}
	o, err := run(w)
	if err != nil {
		return result{}, fmt.Errorf("%s: %v", w.name, err)
	}

	res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	fmt.Printf("%s (traced %v, seed %d): %d timed repetitions, %d verdicts checked, %d failed\n",
		w.name, traced, cfg.seed, o.reps, o.attempted, o.failed)
	values := map[string]float64{}
	for _, d := range defs {
		v := o.metrics[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		values[d.Name] = v
		res.Metrics[d.Name] = metricValue{v, d.Unit}
		line := fmt.Sprintf("  %-32s %18.6g %s", d.Name, v, d.Unit)
		if sp, ok := o.spread[d.Name]; ok {
			line += fmt.Sprintf("   (median of %d, IQR %.1f%%)", o.reps, 100*sp)
		}
		fmt.Println(line)
	}
	res.produced = map[string]bool{}
	for name := range o.metrics {
		if _, named := values[name]; !named {
			return res, fmt.Errorf("%s: the harness produced %s, which BENCHMARK.json does not name", w.name, name)
		}
		res.produced[name] = true
	}
	if traced {
		path := filepath.Join(cfg.root, "benchmark", "out", "trace-"+w.name+".json")
		if err := h.tr.write(path, cfg.seed, values); err != nil {
			return res, err
		}
	}
	if reportPath != "" {
		run := runReport{traced, cfg.seed, res.Attempted, res.Failed, values, o.spread}
		if err := mergeReport(reportPath, w.name, run); err != nil {
			return res, err
		}
	}
	return res, nil
}
