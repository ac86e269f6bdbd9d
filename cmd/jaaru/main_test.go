package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/big"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"jaaru/internal/benchlist"
	"jaaru/internal/forensics"
)

// bin is the jaaru binary TestMain builds once for every test that drives
// it. Under -short it is not built, and those tests skip.
var bin string

func TestMain(m *testing.M) {
	flag.Parse()
	os.Exit(func() int {
		if testing.Short() {
			return m.Run()
		}
		dir, err := os.MkdirTemp("", "jaaru-cmd-test")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer os.RemoveAll(dir)
		bin = filepath.Join(dir, "jaaru")
		if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
			return 1
		}
		return m.Run()
	}())
}

func skipShort(t *testing.T, cost string) {
	t.Helper()
	if testing.Short() {
		t.Skip("runs the jaaru binary (" + cost + ")")
	}
}

// run executes the binary and returns its stdout, stderr and exit status.
func run(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var o, e strings.Builder
	cmd.Stdout, cmd.Stderr = &o, &e
	err := cmd.Run()
	var ee *exec.ExitError
	if err != nil && !errors.As(err, &ee) {
		t.Fatalf("jaaru %v: %v", args, err)
	}
	return o.String(), e.String(), cmd.ProcessState.ExitCode()
}

// TestSubcommandsAreNotBenchmarks: the first argument picks a subcommand
// before it could name a benchmark, so no subcommand (nor fig14) may shadow
// a registered benchmark name.
func TestSubcommandsAreNotBenchmarks(t *testing.T) {
	names := []string{"fig14"}
	for name := range subcommands {
		names = append(names, name)
	}
	for _, name := range names {
		if benchlist.Find(name) != nil {
			t.Errorf("subcommand %q is also a benchmark name", name)
		}
	}
}

// TestExplainSubcommand drives the forensics path end to end: find the
// commitstore bug, minimize its choice prefix, build the witness, and emit
// JSON that the schema accepts. A clean program has nothing to explain
// (exit 1); an unknown benchmark is a usage error (exit 2).
func TestExplainSubcommand(t *testing.T) {
	skipShort(t, "~1 s")
	out, errOut, code := run(t, "explain", "-buggy", "-minimize", "-json", "-validate", "commitstore")
	if code != 0 {
		t.Fatalf("jaaru explain: exit %d\n%s", code, errOut)
	}
	if !json.Valid([]byte(out)) {
		t.Fatalf("jaaru explain -json printed invalid JSON:\n%s", out)
	}
	if err := forensics.ValidateJSON([]byte(out)); err != nil {
		t.Errorf("witness JSON fails the schema: %v", err)
	}
	if _, errOut, code := run(t, "explain", "commitstore"); code != 1 || !strings.Contains(errOut, "nothing to explain") {
		t.Errorf("jaaru explain commitstore: exit %d, want 1\n%s", code, errOut)
	}
	if _, errOut, code := run(t, "explain", "no-such-benchmark"); code != 2 {
		t.Errorf("jaaru explain no-such-benchmark: exit %d, want 2\n%s", code, errOut)
	}
}

// TestBugsSubcommand: `jaaru bugs` regenerates Figures 12 and 13 — one row
// per seeded bug, 7 PMDK and 18 RECIPE, each detected — and exits 0.
func TestBugsSubcommand(t *testing.T) {
	skipShort(t, "~1 s")
	out, errOut, code := run(t, "bugs")
	if code != 0 {
		t.Fatalf("jaaru bugs: exit %d\n%s\n%s", code, out, errOut)
	}
	rows := 0
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			if _, err := strconv.Atoi(f[0]); err == nil {
				rows++
			}
		}
	}
	if rows != 25 || strings.Contains(out, "NOT DETECTED") {
		t.Errorf("jaaru bugs: %d bug rows, want 25, all detected:\n%s", rows, out)
	}
}

// TestFuzzSubcommand: lazy and eager exploration agree on five random
// programs.
func TestFuzzSubcommand(t *testing.T) {
	skipShort(t, "~1 s")
	out, errOut, code := run(t, "fuzz", "-seeds", "5")
	if code != 0 || !strings.Contains(out, "\n5/5 programs agree between lazy and eager exploration\n") {
		t.Errorf("jaaru fuzz -seeds 5: exit %d\n%s\n%s", code, out, errOut)
	}
}

// TestTopSubcommandExitStatus: a missing -server is a usage error (2), an
// unreachable endpoint a failed poll (1).
func TestTopSubcommandExitStatus(t *testing.T) {
	skipShort(t, "~1 s")
	if _, errOut, code := run(t, "top"); code != 2 || !strings.Contains(errOut, "-server is required") {
		t.Errorf("jaaru top: exit %d, want 2\n%s", code, errOut)
	}
	if _, errOut, code := run(t, "top", "-server", "http://127.0.0.1:1", "-timeout", "1s"); code != 1 {
		t.Errorf("jaaru top -server http://127.0.0.1:1: exit %d, want 1\n%s", code, errOut)
	}
}

// TestStepBudgetIsLibraryDefault drives the built binary: the CLI must not
// narrow core.Options.MaxSteps below the library default. With a 100 000-step
// override, cceh-update at n=2048 — a straight-line pre-failure run of more
// than 100 000 operations — was reported as an infinite loop; a real one
// (RECIPE bug #1, the missing segment flush in the CCEH constructor) must
// still be caught.
func TestStepBudgetIsLibraryDefault(t *testing.T) {
	skipShort(t, "~3 s")

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
	skipShort(t, "~2 s")
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
	skipShort(t, "~2 s")

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
