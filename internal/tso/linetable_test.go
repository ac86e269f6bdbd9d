package tso

import (
	"cmp"
	"reflect"
	"slices"
	"testing"

	"jaaru/internal/pmem"
)

func TestLineTable(t *testing.T) {
	var lt lineTable
	if got := lt.get(0x1000); got != 0 {
		t.Fatalf("get on an unallocated table = %d, want 0", got)
	}
	// Strided lines (every 16th) past three growths: each keeps its own σ.
	const n = 8 * lineTableMinCells
	line := func(i int) pmem.Addr { return pmem.Addr(0x10000 + i*16*pmem.CacheLineSize) }
	for i := 0; i < n; i++ {
		lt.set(line(i), pmem.Seq(i+1))
		lt.set(line(i/2), pmem.Seq(n+i+1)) // overwrite an older line: no new cell
	}
	if len(lt.cells) <= lineTableMinCells || lt.used != n || 4*lt.used > 3*len(lt.cells) {
		t.Fatalf("table has %d cells for %d lines (used %d)", len(lt.cells), n, lt.used)
	}
	want := func(i int) pmem.Seq {
		if i < n/2 {
			return pmem.Seq(n + 2*i + 2) // last overwritten at step 2i+1
		}
		return pmem.Seq(i + 1)
	}
	for i := 0; i < n; i++ {
		if got := lt.get(line(i)); got != want(i) {
			t.Errorf("get(line %d) = %d, want %d", i, got, want(i))
		}
	}
	if got := lt.get(line(n)); got != 0 {
		t.Errorf("get of a line never stored to = %d, want 0", got)
	}
	cells := len(lt.cells)
	lt.reset()
	if lt.used != 0 || len(lt.cells) != cells {
		t.Errorf("reset left used=%d cells=%d, want 0 and %d", lt.used, len(lt.cells), cells)
	}
	for i := 0; i < n; i++ {
		if got := lt.get(line(i)); got != 0 {
			t.Fatalf("get(line %d) = %d after reset, want 0", i, got)
		}
	}
}

// A Snapshot carries the line table: restoring it brings back exactly the
// captured σ of every line — into the same thread state after later stores and
// a Reset, or into a fresh one — and a second capture holds the same cells.
func TestSnapshotRoundTripsLineTable(t *testing.T) {
	st := newFake()
	ts := NewThreadState(0)
	const n = 3 * lineTableMinCells
	for i := 0; i < n; i++ {
		ts.Push(st, store(pmem.Addr(0x1000+i*pmem.CacheLineSize), 8, uint64(i)))
		ts.EvictOldest(st)
	}
	var snap Snapshot
	ts.CaptureInto(&snap)
	if len(snap.tLine) != n {
		t.Fatalf("captured %d line cells, want %d", len(snap.tLine), n)
	}
	for i := 0; i < n; i++ {
		ts.Push(st, store(pmem.Addr(0x1000+i*pmem.CacheLineSize), 8, 0))
		ts.EvictOldest(st)
	}
	ts.Reset()
	if got := ts.tLine.get(0x1000); got != 0 {
		t.Fatalf("σ of line 0x1000 = %d after Reset, want 0", got)
	}
	for _, into := range []*ThreadState{ts, NewThreadState(0)} {
		into.RestoreFrom(&snap)
		for i := 0; i < n; i++ {
			if got, want := into.tLine.get(pmem.Addr(0x1000+i*pmem.CacheLineSize)), pmem.Seq(i+1); got != want {
				t.Fatalf("restored σ of line %d = %d, want %d", i, got, want)
			}
		}
	}
	// Cell order follows the table's size and fill order, so a re-capture is
	// compared as a set.
	var again Snapshot
	ts.CaptureInto(&again)
	byLine := func(a, b lineCell) int { return cmp.Compare(a.line, b.line) }
	slices.SortFunc(again.tLine, byLine)
	slices.SortFunc(snap.tLine, byLine)
	if !reflect.DeepEqual(again, snap) {
		t.Errorf("capture after restore differs:\n%+v\n%+v", again, snap)
	}
}
