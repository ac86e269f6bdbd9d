package main

import (
	"errors"
	"os/exec"
	"path/filepath"
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
