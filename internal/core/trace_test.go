package core

import (
	"testing"

	"jaaru/internal/pmem"
)

func traceOpN(n int) TraceOp {
	return TraceOp{Thread: 0, Kind: "store", Addr: pmem.Addr(n), Size: 8, Val: uint64(n)}
}

// Capacity 1 is the degenerate ring: it always holds exactly the last op.
func TestTraceRingCapacityOne(t *testing.T) {
	r := newTraceRing(1)
	if got := r.snapshot(); len(got) != 0 {
		t.Fatalf("empty ring snapshot = %v", got)
	}
	r.add(traceOpN(1))
	if got := r.snapshot(); len(got) != 1 || got[0] != traceOpN(1) {
		t.Fatalf("snapshot = %v, want [op1]", got)
	}
	r.add(traceOpN(2))
	if got := r.snapshot(); len(got) != 1 || got[0] != traceOpN(2) {
		t.Fatalf("snapshot after wrap = %v, want [op2]", got)
	}
}

// Exactly filling the ring is the wrap boundary: full must flip, and the
// snapshot must stay oldest-first through the next overwrite.
func TestTraceRingExactWrapBoundary(t *testing.T) {
	const cap = 4
	r := newTraceRing(cap)
	for i := 1; i <= cap; i++ {
		r.add(traceOpN(i))
	}
	got := r.snapshot()
	if len(got) != cap {
		t.Fatalf("snapshot length = %d, want %d", len(got), cap)
	}
	for i := range got {
		if got[i] != traceOpN(i+1) {
			t.Fatalf("snapshot[%d] = %v, want op%d (oldest-first)", i, got[i], i+1)
		}
	}
	// One more op overwrites the oldest.
	r.add(traceOpN(cap + 1))
	got = r.snapshot()
	if len(got) != cap {
		t.Fatalf("post-wrap snapshot length = %d, want %d", len(got), cap)
	}
	for i := range got {
		if got[i] != traceOpN(i+2) {
			t.Fatalf("post-wrap snapshot[%d] = %v, want op%d", i, got[i], i+2)
		}
	}
}

// Every fill level — over, under, exactly at capacity, empty — snapshots the
// last min(fill, capacity) operations oldest-first, and the ring's storage
// follows what it holds: a short scenario never pays for the capacity.
func TestTraceRingFillLevels(t *testing.T) {
	for cycle, fill := range []int{5, 2, 3, 1, 0} {
		r := newTraceRing(3)
		for i := 1; i <= fill; i++ {
			r.add(traceOpN(100*cycle + i))
		}
		got := r.snapshot()
		wantLen := min(fill, 3)
		if len(got) != wantLen {
			t.Fatalf("cycle %d (fill %d): snapshot length = %d, want %d",
				cycle, fill, len(got), wantLen)
		}
		for i, op := range got {
			want := traceOpN(100*cycle + fill - wantLen + i + 1)
			if op != want {
				t.Fatalf("cycle %d: snapshot[%d] = %v, want %v", cycle, i, op, want)
			}
		}
	}
	r := newTraceRing(1 << 16)
	for i := 0; i < 30; i++ {
		r.add(traceOpN(i))
	}
	if cap(r.buf) >= 1<<10 {
		t.Errorf("30 operations hold %d ring slots: the capacity was preallocated", cap(r.buf))
	}
}

// snapshot must be a copy: later ring activity cannot mutate an already
// captured bug trace.
func TestTraceRingSnapshotIsCopy(t *testing.T) {
	r := newTraceRing(2)
	r.add(traceOpN(1))
	got := r.snapshot()
	r.add(traceOpN(2))
	r.add(traceOpN(3))
	if len(got) != 1 || got[0] != traceOpN(1) {
		t.Fatalf("captured snapshot mutated by later adds: %v", got)
	}
}
