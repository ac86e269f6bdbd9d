package tso

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"jaaru/internal/obs"
	"jaaru/internal/pmem"
)

// recStorage is a Storage that writes down every call it receives.
type recStorage struct {
	seq pmem.Seq
	log []string
}

func (r *recStorage) rec(format string, args ...any) {
	r.log = append(r.log, fmt.Sprintf(format, args...))
}

func (r *recStorage) NextSeq() pmem.Seq { r.seq++; r.rec("next %d", r.seq); return r.seq }
func (r *recStorage) CurSeq() pmem.Seq  { r.rec("cur %d", r.seq); return r.seq }
func (r *recStorage) ApplyStore(a pmem.Addr, size int, val uint64, s pmem.Seq) {
	r.rec("store %v %d %#x @%d", a, size, val, s)
}
func (r *recStorage) ApplyCLFlush(a pmem.Addr, s pmem.Seq)   { r.rec("clflush %v @%d", a, s) }
func (r *recStorage) ApplyWriteback(a pmem.Addr, s pmem.Seq) { r.rec("writeback %v @%d", a, s) }
func (r *recStorage) BeforeFlushEffect(k EntryKind, a pmem.Addr, loc string) {
	r.rec("before %v %v %q", k, a, loc)
}
func (r *recStorage) SFenceEffect(pending int, loc string) { r.rec("sfence %d %q", pending, loc) }

// directRig is one thread state with everything observable about it recorded.
type directRig struct {
	ts  *ThreadState
	st  *recStorage
	reg *obs.Registry
}

func newDirectRig() *directRig {
	r := &directRig{ts: NewThreadState(0), st: &recStorage{}, reg: obs.NewRegistry(nil)}
	r.ts.SetObserver(r.reg.NewShard())
	r.ts.SetProbe(&Probe{
		OnEvict:     func(e Entry, s pmem.Seq) { r.st.rec("probe evict %+v @%d", e, s) },
		OnWriteback: func(line pmem.Addr, s pmem.Seq, op int) { r.st.rec("probe writeback %v @%d op %d", line, s, op) },
	})
	return r
}

// PushEvict on an empty buffer is Push followed by EvictOldest: over random
// operation sequences the two drive the Storage and the Probe with the same
// calls in the same order, leave the same obs counters, and capture the same
// Snapshot — line table included, cell for cell.
func TestPushEvictMatchesPushThenEvict(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		direct, buffered := newDirectRig(), newDirectRig()
		for i, e := range randomEntries(rng, 1+rng.Intn(60)) {
			e.Op, e.Loc = i, fmt.Sprintf("loc%d", i%3)
			if e.Kind == Store {
				// Enough distinct lines to grow the line table.
				e.Addr += pmem.Addr(rng.Intn(40)) * 0x1000
			}
			d := e
			direct.ts.PushEvict(direct.st, &d)
			buffered.ts.Push(buffered.st, e)
			if got := buffered.ts.EvictOldest(buffered.st); got != d {
				t.Fatalf("seed %d op %d: EvictOldest reports %+v, PushEvict left %+v", seed, i, got, d)
			}
			if !reflect.DeepEqual(direct.st.log, buffered.st.log) {
				t.Fatalf("seed %d op %d (%v): storage/probe calls diverge:\ndirect   %q\nbuffered %q",
					seed, i, e.Kind, direct.st.log, buffered.st.log)
			}
			if dm, bm := direct.reg.Snapshot(), buffered.reg.Snapshot(); !reflect.DeepEqual(dm, bm) {
				t.Fatalf("seed %d op %d: metrics diverge:\ndirect   %+v\nbuffered %+v", seed, i, dm, bm)
			}
			var ds, bs Snapshot
			direct.ts.CaptureInto(&ds)
			buffered.ts.CaptureInto(&bs)
			if !reflect.DeepEqual(ds, bs) {
				t.Fatalf("seed %d op %d: snapshots diverge:\ndirect   %+v\nbuffered %+v", seed, i, ds, bs)
			}
		}
		if m := direct.reg.Snapshot(); m.MaxSBOccupancy != 1 {
			t.Fatalf("seed %d: MaxSBOccupancy = %d on the direct path, want 1", seed, m.MaxSBOccupancy)
		}
	}
}

func TestPushEvictRequiresEmptyBuffer(t *testing.T) {
	st := newFake()
	ts := NewThreadState(0)
	ts.Push(st, store(0x1000, 8, 1))
	defer func() {
		if recover() == nil {
			t.Error("PushEvict on a non-empty store buffer did not panic")
		}
	}()
	e := store(0x1008, 8, 2)
	ts.PushEvict(st, &e)
}

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
		e := store(pmem.Addr(0x1000+i*pmem.CacheLineSize), 8, uint64(i))
		ts.PushEvict(st, &e)
	}
	var snap Snapshot
	ts.CaptureInto(&snap)
	if len(snap.tLine) != n {
		t.Fatalf("captured %d line cells, want %d", len(snap.tLine), n)
	}
	for i := 0; i < n; i++ {
		e := store(pmem.Addr(0x1000+i*pmem.CacheLineSize), 8, 0)
		ts.PushEvict(st, &e)
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
