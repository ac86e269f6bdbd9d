package pmem

import (
	"testing"
	"unsafe"
)

// journalStack builds a journaling stack whose pre-failure execution wrote
// two values to address a (seq 1 and 3) and flushed the line at seq 2: the
// canonical refinable state — one store guaranteed persisted, one in flight.
func journalStack(a Addr) *Stack {
	s := NewStack()
	s.EnableJournal()
	e := s.Top()
	e.Append(a, 0x11, 1)
	e.EvictedStores++
	s.FlushLine(a, 2)
	e.Append(a, 0x22, 3)
	e.EvictedStores++
	return s
}

func candSeqs(cands []Candidate) []Seq {
	out := make([]Seq, len(cands))
	for i, c := range cands {
		out[i] = c.Seq
	}
	return out
}

func TestJournalRefineThenRewind(t *testing.T) {
	const a = Addr(0x100)
	s := journalStack(a)
	pre := s.Top().CacheLine(a)
	preIV := *pre
	m := s.Mark()

	// A failure, then post-failure refinement: the load reads the seq-1
	// store, so the line cannot have been written back at or after seq 3
	// (lowerEnd) and was written back at or after seq 1 (raiseBegin).
	s.Push()
	cands := s.ReadPreFailure(a)
	if len(cands) != 2 {
		t.Fatalf("candidates = %v, want both stores", candSeqs(cands))
	}
	s.DoRead(a, cands[1]) // the older store, seq 1
	if got := *pre; got == preIV {
		t.Fatal("refinement did not mutate the interval")
	}
	if pre.End != 3 {
		t.Errorf("refined End = %v, want 3", pre.End)
	}

	s.Rewind(m)
	if got := *pre; got != preIV {
		t.Errorf("interval after rewind = %+v, want %+v", got, preIV)
	}
	if s.Depth() != 1 {
		t.Errorf("depth after rewind = %d, want 1", s.Depth())
	}

	// The restored scenario must re-enumerate the original candidate set.
	s.Push()
	again := s.ReadPreFailure(a)
	if len(again) != len(cands) {
		t.Errorf("candidates after rewind = %v, want %v", candSeqs(again), candSeqs(cands))
	}
}

func TestJournalRewindRepeatable(t *testing.T) {
	// The same mark restores the same state arbitrarily many times, with a
	// different refinement each round — the DFS restore pattern.
	const a = Addr(0x40)
	s := journalStack(a)
	iv := s.Top().CacheLine(a)
	want := *iv
	m := s.Mark()
	for round := 0; round < 3; round++ {
		s.Push()
		cands := s.ReadPreFailure(a)
		s.DoRead(a, cands[round%len(cands)])
		s.Rewind(m)
		if got := *iv; got != want {
			t.Fatalf("round %d: interval = %+v, want %+v", round, got, want)
		}
	}
}

func TestJournalAppendTruncation(t *testing.T) {
	const a, b = Addr(0x80), Addr(0x81)
	s := journalStack(a)
	top := s.Top()
	m := s.Mark()

	// Appends after the mark, both to a marked queue and to a fresh one.
	top.Append(a, 0x33, 4)
	top.EvictedStores++
	top.Append(b, 0x44, 5)
	top.EvictedStores++
	if got, _ := top.Newest(a); got.Seq != 4 {
		t.Fatalf("Newest(a) = %+v before rewind", got)
	}

	s.Rewind(m)
	if got, ok := top.Newest(a); !ok || got.Seq != 3 || got.Val != 0x22 {
		t.Errorf("Newest(a) after rewind = %+v, %v; want seq 3", got, ok)
	}
	if _, ok := top.Newest(b); ok {
		t.Error("store to b survived the rewind")
	}
	if top.EvictedStores != 2 {
		t.Errorf("EvictedStores = %d after rewind, want 2", top.EvictedStores)
	}
}

func TestJournalRewindPopsExecutions(t *testing.T) {
	const a = Addr(0x200)
	s := journalStack(a)
	m := s.Mark()
	for i := 0; i < 3; i++ {
		e := s.Push()
		e.Append(a, byte(i), Seq(10+i))
		cands := s.ReadPreFailure(a)
		s.DoRead(a, cands[0])
	}
	if s.Depth() != 4 {
		t.Fatalf("depth = %d before rewind", s.Depth())
	}
	s.Rewind(m)
	if s.Depth() != 1 || s.Top().ID != 0 {
		t.Errorf("depth = %d, top ID = %d after rewind", s.Depth(), s.Top().ID)
	}
}

func TestJournalVacuousLineNeutral(t *testing.T) {
	// A line first materialized after the mark stays in the map after a
	// rewind, holding the unconstrained [0, ∞): candidate enumeration must
	// not distinguish it from a line never materialized.
	const a = Addr(0x300)
	s := journalStack(a)
	const other = Addr(0x340) // different cache line, one pre-failure store
	s.Top().Append(other, 0x55, 4)
	s.Top().EvictedStores++
	m := s.Mark()

	s.Push()
	cands := s.ReadPreFailure(other)
	want := candSeqs(cands)
	s.DoRead(other, cands[0]) // materializes + refines other's line
	s.Rewind(m)

	if !s.Top().LineKnown(other) {
		t.Skip("line was not retained — nothing to check")
	}
	if iv := s.Top().CacheLine(other); *iv != (Interval{Begin: 0, End: SeqInf}) {
		t.Fatalf("rewound line interval = %+v, want vacuous", *iv)
	}
	s.Push()
	if got := candSeqs(s.ReadPreFailure(other)); len(got) != len(want) {
		t.Errorf("candidates with vacuous line = %v, want %v", got, want)
	}
}

// TestRetainedBytesTracksJournal prices the journaled state at what it
// occupies: one arena node per store (a word is one node, not eight) and one
// undo entry per effective interval mutation, each at its real size.
func TestRetainedBytesTracksJournal(t *testing.T) {
	const a = Addr(0x400)
	nodeB, undoB := int64(unsafe.Sizeof(node{})), int64(unsafe.Sizeof(ivUndo{}))
	if nodeB > 40 {
		t.Errorf("arena node is %d bytes, want <= 40", nodeB)
	}
	s := NewStack()
	s.Top().AppendWord(a, 8, 1, 1)
	if s.RetainedBytes() != 0 {
		t.Error("unjournaled stack retains bytes")
	}
	s.EnableJournal()
	base := s.RetainedBytes()
	if base != nodeB {
		t.Errorf("RetainedBytes = %d with one word stored, want %d", base, nodeB)
	}
	m := s.Mark()
	s.Top().AppendWord(a, 8, 2, 2) // one node
	for i := 0; i < 8; i++ {       // eight
		s.Top().Append(a+Addr(i), byte(i), Seq(3+i))
	}
	s.FlushLine(a, 2) // one undo entry
	s.Push()
	s.DoRead(a, s.ReadPreFailure(a)[0]) // the newest store: raises Begin, End stays ∞ — one more
	if got, want := s.RetainedBytes(), 10*nodeB+2*undoB; got != want {
		t.Errorf("RetainedBytes = %d after writes, want %d", got, want)
	}
	s.Rewind(m)
	if got := s.RetainedBytes(); got != base {
		t.Errorf("RetainedBytes = %d after rewind, want %d", got, base)
	}
}
