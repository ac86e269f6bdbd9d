package conform

import (
	"fmt"
	"strings"
	"testing"

	"jaaru/internal/core"
)

// Row is one program of a matrix, built fresh for every run.
type Row struct {
	Name  string
	Build func(obs func(string)) core.Program
	Opts  core.Options
	// Bases are further option sets the row also runs under, each against
	// its own serial reference.
	Bases []Base
	// Prunes marks a row whose scenario count POR cuts under its own
	// options: its POR cells compare by Pruned, and its reference must elide
	// or prune. Every other POR cell, under a base too, compares by
	// Unpruned, so a POR defect that drops scenarios where none may go
	// fails it.
	Prunes bool
	// Check, if set, asserts what the row's own reference reports.
	Check func(t testing.TB, ref *core.Result)
}

// Base is a named change to a row's options.
type Base struct {
	Name  string
	Apply func(*core.Options)
}

// Column is one configuration. Run explores a fresh build of the row under
// opts and views the result; POR selects the POR relation; Partitioned
// columns split the tree, so bugs' Scenario indices are compared out.
type Column struct {
	Name        string
	POR         bool
	Partitioned bool
	Run         func(t *testing.T, rw Row, opts core.Options) View
}

// Tweak is the column that explores the row with its options changed by f,
// checking that a disabled snapshot stack never restored and disabled POR
// never pruned.
func Tweak(name string, f func(*core.Options)) Column {
	var probe core.Options
	f(&probe)
	return Column{Name: name, POR: probe.POR < 0, Partitioned: probe.Workers > 1,
		Run: func(t *testing.T, rw Row, opts core.Options) View {
			f(&opts)
			res, v := Explore(rw.Build, opts)
			if m := res.Metrics; opts.Snapshots < 0 && m.SnapshotRestores != 0 || opts.POR < 0 && m.ScenariosPruned+m.FingerprintHits != 0 {
				t.Errorf("snapshots=%d por=%d, yet %d restores, %d pruned, %d hits",
					opts.Snapshots, opts.POR, m.SnapshotRestores, m.ScenariosPruned, m.FingerprintHits)
			}
			return v
		}}
}

// The columns every process-local matrix has.
var (
	SnapshotsOff = Tweak("snapshots=-1", func(o *core.Options) { o.Snapshots = -1 })
	POROff       = Tweak("por=-1", func(o *core.Options) { o.POR = -1 })
)

// Workers is the column that explores with n in-process workers.
func Workers(n int) Column {
	return Tweak(fmt.Sprintf("workers=%d", n), func(o *core.Options) { o.Workers = n })
}

// Run runs every row under every column, under the row's own options and
// each of its bases, against the serial reference of the same options.
// Cells run as subtests row/[base/]column, in parallel. skips names the
// cells left out, keyed by that path or by a prefix of it ending at a "/",
// with the reason.
func Run(t *testing.T, rows []Row, cols []Column, skips map[string]string) {
	for _, rw := range rows {
		t.Run(rw.Name, func(t *testing.T) {
			t.Parallel()
			runBase(t, rw, Base{Apply: func(*core.Options) {}}, cols, skips)
			for _, b := range rw.Bases {
				b.Name += "/"
				runBase(t, rw, b, cols, skips)
			}
		})
	}
}

func runBase(t *testing.T, rw Row, b Base, cols []Column, skips map[string]string) {
	skipped := func(path string) string {
		for k, why := range skips {
			if path == k || strings.HasPrefix(path, k+"/") {
				return why
			}
		}
		return ""
	}
	opts := rw.Opts
	b.Apply(&opts)
	opts.Observe = true
	prunes, want := rw.Prunes && b.Name == "", View{}
	if skipped(rw.Name+"/"+b.Name) == "" { // a skipped base skips its reference too
		ref, v := Explore(rw.Build, opts)
		want = v
		m := ref.Metrics
		if opts.Snapshots >= 0 && ref.Scenarios > 1 && m.SnapshotRestores == 0 || prunes && m.ScenariosPruned+m.RFElisions == 0 {
			t.Errorf("%s %s: %d scenarios, %d snapshot restores, %d pruned, %d elided: a cell would compare a mechanism that never ran",
				rw.Name, b.Name, ref.Scenarios, m.SnapshotRestores, m.ScenariosPruned, m.RFElisions)
		}
		if rw.Check != nil && b.Name == "" {
			rw.Check(t, ref)
		}
	}
	for _, col := range cols {
		if col.POR && opts.POR < 0 {
			continue // the base's reference is this cell
		}
		t.Run(b.Name+col.Name, func(t *testing.T) {
			t.Parallel()
			label := rw.Name + "/" + b.Name + col.Name
			if why := skipped(label); why != "" {
				t.Skip(why)
			}
			ref, got := want, col.Run(t, rw, opts)
			if col.Partitioned {
				ref, got = Partitioned(ref), Partitioned(got)
			}
			switch {
			case !col.POR:
				Exact(t, label, ref, got)
			case prunes:
				Pruned(t, label, ref, got)
			default:
				Unpruned(t, label, ref, got)
			}
		})
	}
}
