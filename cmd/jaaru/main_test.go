package main

import (
	"errors"
	"math/big"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestStepBudgetIsLibraryDefault drives the built binary: the CLI must not
// narrow core.Options.MaxSteps below the library default. With a 100 000-step
// override, cceh-update at n=2048 — a straight-line pre-failure run of more
// than 100 000 operations — was reported as an infinite loop; a real one
// (RECIPE bug #1, the missing segment flush in the CCEH constructor) must
// still be caught.
func TestStepBudgetIsLibraryDefault(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the jaaru binary (~3 s)")
	}
	bin := filepath.Join(t.TempDir(), "jaaru")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	out, err := exec.Command(bin, "-n", "2048", "cceh-update").CombinedOutput()
	if err != nil {
		t.Fatalf("jaaru -n 2048 cceh-update: %v\n%s", err, out)
	}
	if s := string(out); !strings.Contains(s, "no bugs found") || strings.Contains(s, "truncated") {
		t.Errorf("jaaru -n 2048 cceh-update did not end complete and clean:\n%s", s)
	}

	out, err = exec.Command(bin, "-n", "1", "-buggy", "cceh").CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 {
		t.Fatalf("jaaru -n 1 -buggy cceh: err = %v, want exit status 1\n%s", err, out)
	}
	if !strings.Contains(string(out), "infinite loop: step budget of 1048576 exceeded") {
		t.Errorf("seeded infinite loop not reported against the library step budget:\n%s", out)
	}
}

// TestTraceFlagReplaysBugs drives the built binary: -trace prints, under each
// bug, the last operations of that bug's scenario — replayed from the report,
// so serial and partitioned explorations print the same lines.
func TestTraceFlagReplaysBugs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the jaaru binary (~2 s)")
	}
	bin := filepath.Join(t.TempDir(), "jaaru")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	bugs := func(args ...string) string {
		out, err := exec.Command(bin, args...).CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 1 {
			t.Fatalf("jaaru %v: err = %v, want exit status 1\n%s", args, err, out)
		}
		_, after, _ := strings.Cut(string(out), "distinct bug(s):\n")
		return after
	}
	plain := bugs("-buggy", "commitstore")
	serial := bugs("-trace", "-buggy", "commitstore")
	if strings.Contains(plain, " store ") || !strings.Contains(serial, "      T0 store ") ||
		!strings.Contains(serial, "      T0 load ") {
		t.Errorf("-trace did not add the operations:\nwithout:\n%s\nwith:\n%s", plain, serial)
	}
	// "first scenario N" is a worker-local discovery index.
	if par := bugs("-trace", "-workers", "4", "-buggy", "commitstore"); !sameButScenarioIndex(serial, par) {
		t.Errorf("-trace differs under -workers 4:\nserial:\n%s\nparallel:\n%s", serial, par)
	}
}

// TestFig14Table drives the built binary: `jaaru fig14` prints one row per
// fixed RECIPE program, each within the bands its footer states — between 1
// and 8 executions per failure point, and an eager (Yat) state count above
// Jaaru's executions. fig14 is not a workload: -list does not show it, and
// -buggy is refused.
func TestFig14Table(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the jaaru binary (~2 s)")
	}
	bin := filepath.Join(t.TempDir(), "jaaru")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	out, err := exec.Command(bin, "fig14").CombinedOutput()
	if err != nil {
		t.Fatalf("jaaru fig14: %v\n%s", err, out)
	}
	_, table, _ := strings.Cut(string(out), "---\n")
	lines := strings.Split(table, "\n")
	want := []string{"CCEH", "FAST_FAIR", "P-ART", "P-BwTree", "P-CLHT", "P-Masstree"}
	if len(lines) < len(want) {
		t.Fatalf("jaaru fig14 printed too few rows:\n%s", out)
	}
	for i, name := range want {
		f := strings.Fields(lines[i])
		if len(f) != 6 || f[0] != name {
			t.Errorf("row %d = %q, want the %s row", i, lines[i], name)
			continue
		}
		execs, err1 := strconv.Atoi(f[1])
		perFP, err2 := strconv.ParseFloat(f[4], 64)
		eager, ok := new(big.Float).SetString(f[5])
		if err1 != nil || err2 != nil || !ok || !strings.Contains(f[5], "e") {
			t.Errorf("%s: unparsable row %q", name, lines[i])
			continue
		}
		if perFP < 1 || perFP > 8 {
			t.Errorf("%s: %.2f executions per failure point, outside [1, 8]", name, perFP)
		}
		if eager.Cmp(big.NewFloat(float64(execs))) <= 0 {
			t.Errorf("%s: eager count %s does not exceed %d executions", name, f[5], execs)
		}
	}

	if out, err := exec.Command(bin, "-list").CombinedOutput(); err != nil || strings.Contains(string(out), "fig14") {
		t.Errorf("jaaru -list: err = %v, lists fig14 = %v\n%s", err, strings.Contains(string(out), "fig14"), out)
	}
	out, err = exec.Command(bin, "-buggy", "fig14").CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 2 || !strings.Contains(string(out), "-buggy") {
		t.Errorf("jaaru -buggy fig14: err = %v, want exit status 2 and a message naming -buggy\n%s", err, out)
	}
}

func sameButScenarioIndex(a, b string) bool {
	strip := func(s string) string {
		var out []string
		for _, line := range strings.Split(s, "\n") {
			if i := strings.Index(line, ", first scenario "); i >= 0 {
				line = line[:i]
			}
			out = append(out, line)
		}
		return strings.Join(out, "\n")
	}
	return strip(a) == strip(b)
}
