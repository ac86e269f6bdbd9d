package pmem

import (
	"slices"
	"testing"
	"unsafe"
)

// Directed staleness tests for the pinned summary (Stack.DoRead, Stack.Load):
// a pin is retired by a change to its own line's stores or intervals in its own
// execution or one below, and by nothing else. TestPagedMatchesMapModel fuzzes
// the same property; these are the cases by name.

// pinLine is the pre-failure history the tests share, on the line of base:
//
//	a  (base+0):  1 @1                       one candidate: settled by the flush
//	b  (base+8):  1 @2, then 2 @5            two candidates
//	a2 (base+16): 1 @3, then 2 @6            two, or {1 @3} once End <= 5
//	flush @4
func pinLine(e *Execution, base Addr) (a, b, a2 Addr) {
	a, b, a2 = base, base+8, base+16
	e.Append(a, 1, 1)
	e.Append(b, 1, 2)
	e.Append(a2, 1, 3)
	e.RaiseLineBegin(base, 4)
	e.Append(b, 2, 5)
	e.Append(a2, 2, 6)
	return
}

// readByte is the byte path: enumerate, choose candidate pick, refine.
func readByte(t *testing.T, s *Stack, a Addr, wantCands, pick int) (val byte, skipped bool) {
	t.Helper()
	cs := s.ReadPreFailure(a)
	if len(cs) != wantCands {
		t.Fatalf("ReadPreFailure(%v) = %v, want %d candidates", a, cs, wantCands)
	}
	return cs[pick].Val, s.DoRead(a, cs[pick])
}

func wantLoad(t *testing.T, s *Stack, a Addr, want LoadSource, val uint64) {
	t.Helper()
	v, src := s.Load(a, 1)
	if src != want || (want == LoadPinned && v != val) {
		t.Fatalf("Load(%v, 1) = %#x source %d, want %#x source %d", a, v, src, val, want)
	}
}

// TestPinRetiredByRewoundChoice: a pin taken under a choice dies with the
// Rewind that undoes the choice's refinement; a byte that had one candidate
// before the choice reads the same after it, through the byte path once (the
// line's pins are retired together) and with nothing moved.
func TestPinRetiredByRewoundChoice(t *testing.T) {
	s := NewStack()
	s.EnableJournal()
	a, b, a2 := pinLine(s.Top(), 0x100)
	s.Push()

	if _, skipped := readByte(t, s, a, 1, 0); skipped {
		t.Fatal("first read of a skipped")
	}
	wantLoad(t, s, a, LoadPinned, 1)
	wantLoad(t, s, a2, LoadDeclined, 0)
	m := s.Mark()

	// Choose b's older store: End falls to 5 and a2's newer store drops out.
	readByte(t, s, b, 2, 1)
	if got := *s.At(0).CacheLine(b); got != (Interval{Begin: 4, End: 5}) {
		t.Fatalf("line interval after the choice = %+v, want [4,5)", got)
	}
	wantLoad(t, s, b, LoadPinned, 1)
	wantLoad(t, s, a, LoadDeclined, 0) // the line's interval moved
	readByte(t, s, a2, 1, 0)
	wantLoad(t, s, a2, LoadPinned, 1)
	journaled := len(s.ivlog)
	if _, skipped := readByte(t, s, a, 1, 0); skipped || len(s.ivlog) != journaled {
		t.Fatalf("re-read of a under the narrowed interval: skipped=%v, journal %d -> %d entries", skipped, journaled, len(s.ivlog))
	}
	wantLoad(t, s, a, LoadPinned, 1)

	s.Rewind(m)
	wantLoad(t, s, a2, LoadDeclined, 0)
	wantLoad(t, s, b, LoadDeclined, 0)
	readByte(t, s, a2, 2, 0) // both candidates are back
	wantLoad(t, s, a2, LoadPinned, 2)
	if val, skipped := readByte(t, s, a, 1, 0); val != 1 || skipped {
		t.Fatalf("a after the rewind = %d skipped=%v, want 1 through the byte path", val, skipped)
	}
	wantLoad(t, s, a, LoadPinned, 1)
}

// TestPinRetiredInExecutionsAbove: at depth 3 the pin sits on E1 but reads
// through E0's interval, so undoing a refinement of E0 must retire it there.
func TestPinRetiredInExecutionsAbove(t *testing.T) {
	s := NewStack()
	s.EnableJournal()
	_, b, a2 := pinLine(s.Top(), 0x100)
	other := Addr(0x400)
	s.Top().Append(other, 9, 7)
	s.FlushLine(other, 8)
	s.Push()
	m := s.Mark() // depth 2
	s.Push()

	readByte(t, s, other, 1, 0)
	readByte(t, s, b, 2, 1) // refines E0's line from E2
	readByte(t, s, a2, 1, 0)
	wantLoad(t, s, a2, LoadPinned, 1)
	if lr := s.At(1).peekLine(a2); lr == nil || lr.pinMask == 0 {
		t.Fatal("the pin is not on E1")
	}

	s.Rewind(m)
	s.Push()
	wantLoad(t, s, a2, LoadDeclined, 0)
	readByte(t, s, a2, 2, 0)
	wantLoad(t, s, other, LoadPinned, 9) // a line the rewind did not touch
}

// TestPinSurvivesRestore is the gain: a scenario's pins answer the next
// scenario's first loads, except on the lines the pre-failure execution wrote
// or flushed in between.
func TestPinSurvivesRestore(t *testing.T) {
	s := NewStack()
	s.EnableJournal()
	e0 := s.Top()
	lines := []Addr{0x100, 0x140, 0x180}
	for i, l := range lines {
		e0.AppendWord(l, 8, 0x0807060504030201, Seq(i+1))
	}
	for _, l := range lines {
		s.FlushLine(l, 10)
	}
	never := Addr(0x800) // never written: its page exists only to hold the pin
	m := s.Mark()
	pages := len(e0.touched)

	s.Push()
	for _, l := range append(lines, never) {
		for i := Addr(0); i < 8; i++ {
			readByte(t, s, l+i, 1, 0)
		}
		if _, src := s.Load(l, 8); src != LoadPinned {
			t.Fatalf("Load(%v, 8) source %d after one byte-path read, want LoadPinned", l, src)
		}
	}
	if len(e0.touched) != pages+1 {
		t.Fatalf("pre-failure execution touched %d pages, want %d and one for the pin", len(e0.touched), pages)
	}
	s.Rewind(m)

	e0.Append(lines[1]+32, 5, 11) // the next failure point's stores and flush
	s.FlushLine(lines[2], 12)
	s.Push()
	for _, c := range []struct {
		a    Addr
		want LoadSource
		val  uint64
	}{
		{lines[0], LoadPinned, 0x0807060504030201},
		{never, LoadPinned, 0},
		{lines[1], LoadDeclined, 0},
		{lines[2], LoadDeclined, 0},
	} {
		if v, src := s.Load(c.a, 8); src != c.want || v != c.val {
			t.Errorf("first Load(%v, 8) of the next scenario = %#x source %d, want %#x source %d", c.a, v, src, c.val, c.want)
		}
	}
	// Narrower and unaligned loads of the pinned word, and the byte loop at the
	// line's end.
	for i := Addr(56); i < 64; i++ {
		readByte(t, s, lines[0]+i, 1, 0)
	}
	for _, c := range []struct {
		off  Addr
		size int
		val  uint64
	}{{0, 4, 0x04030201}, {3, 2, 0x0504}, {7, 1, 0x08}, {56, 8, 0}, {60, 4, 0}, {63, 1, 0}} {
		if v, src := s.Load(lines[0]+c.off, c.size); src != LoadPinned || v != c.val {
			t.Errorf("Load(line+%d, %d) = %#x source %d, want %#x pinned", c.off, c.size, v, src, c.val)
		}
	}
}

// TestPinRetiredByTruncation: a rewind that pops stores of the execution that
// becomes the top again retires the pins the popped execution took through
// them — here with nothing in the journal to do it instead (RaiseLineBegin is
// unjournaled) — and RaiseLineBegin itself retires its line's.
func TestPinRetiredByTruncation(t *testing.T) {
	s := NewStack()
	s.EnableJournal()
	e0 := s.Top()
	a, x := Addr(0x100), Addr(0x200)
	e0.Append(a, 1, 1)
	e0.Append(x, 1, 2)
	e0.RaiseLineBegin(a, 3)
	e0.RaiseLineBegin(x, 3)
	m := s.Mark()
	e0.Append(a, 2, 4)
	e0.RaiseLineBegin(a, 5)
	s.Push()
	readByte(t, s, a, 1, 0)
	readByte(t, s, x, 1, 0)
	wantLoad(t, s, a, LoadPinned, 2)

	s.Rewind(m)
	s.Push()
	wantLoad(t, s, a, LoadDeclined, 0)
	wantLoad(t, s, x, LoadPinned, 1)
	if val, _ := readByte(t, s, a, 1, 0); val != 1 {
		t.Fatalf("a after the truncation = %d, want the older store's 1", val)
	}

	s.Rewind(m)
	e0.RaiseLineBegin(x, 6)
	s.Push()
	wantLoad(t, s, x, LoadDeclined, 0)
	wantLoad(t, s, a, LoadPinned, 1)
}

// TestPinUntouchedByTopFlush: flushes (and stores) of the top execution retire
// nothing below it, and a refinement of one line nothing on another.
func TestPinUntouchedByTopFlush(t *testing.T) {
	s := NewStack()
	s.EnableJournal()
	a, b, _ := pinLine(s.Top(), 0x100)
	x, _, _ := pinLine(s.Top(), 0x200)
	s.Push()
	readByte(t, s, a, 1, 0)
	readByte(t, s, x, 1, 0)

	s.Top().Append(a+1, 7, 20)
	s.FlushLine(a, 21)
	s.FlushLine(x, 22)
	s.FlushLine(0x900, 23)
	wantLoad(t, s, a, LoadPinned, 1)
	wantLoad(t, s, x, LoadPinned, 1)

	readByte(t, s, b, 2, 1) // refines a's line only
	wantLoad(t, s, a, LoadDeclined, 0)
	wantLoad(t, s, x, LoadPinned, 1)

	// Depth 3: the top's flushes leave the pins on both executions below.
	s.Push()
	readByte(t, s, x, 1, 0)
	s.FlushLine(x, 30)
	wantLoad(t, s, x, LoadPinned, 1)
	if lr := s.At(0).peekLine(x); lr.pinMask == 0 {
		t.Fatal("E0's pin retired by a flush two executions up")
	}
}

// TestDoReadPreFailureTouchesNothing: a load by the pre-failure execution of
// memory nothing wrote resolves to the pool's initial zero; refining it has no
// execution to refine and must not materialize a page.
func TestDoReadPreFailureTouchesNothing(t *testing.T) {
	s := NewStack()
	cs := s.ReadPreFailure(0x1000)
	if len(cs) != 1 || cs[0].Exec != InitialExec {
		t.Fatalf("candidates = %v, want the initial zero", cs)
	}
	if s.DoRead(0x1000, cs[0]) || len(s.Top().touched) != 0 {
		t.Fatalf("DoRead on the pre-failure execution touched %d pages", len(s.Top().touched))
	}
}

// TestPinPagesInvisible: a page materialized below the top only to hold pins
// outlives the scenario; nothing a POR key or an image count is computed from
// may see it, or both would drift with scenario order.
func TestPinPagesInvisible(t *testing.T) {
	s := NewStack()
	s.EnableJournal()
	e0 := s.Top()
	pinLine(e0, 0x100)
	e0.AppendWord(0x340, 8, 42, 7)
	s.FlushLine(0x340, 8)
	type image struct {
		fp                    uint64
		touched, dirty, addrs []Addr
		known                 []bool
		stores                int
	}
	observe := func() image {
		// What core's Snapshot (the benchmark's pmem.image_* source) reads.
		im := image{fp: s.Fingerprint(FingerprintSeed), touched: e0.TouchedLines(), dirty: e0.DirtyLines(), addrs: e0.TouchedAddrs()}
		for _, l := range im.touched {
			im.known = append(im.known, e0.LineKnown(l))
		}
		for _, a := range im.addrs {
			im.stores += len(e0.Queue(a))
		}
		return im
	}
	before := observe()
	m := s.Mark()
	s.Push()
	// Never-written lines: a fresh page, a fresh line of a written page, and
	// the written lines themselves.
	for _, a := range []Addr{0x1000, 0x1040, 0x380, 0x100, 0x340, 0x341} {
		readByte(t, s, a, 1, 0)
		wantLoad(t, s, a, LoadPinned, uint64(s.ReadPreFailure(a)[0].Val))
	}
	s.Rewind(m)
	after := observe()
	if after.fp != before.fp || after.stores != before.stores ||
		!slices.Equal(after.touched, before.touched) || !slices.Equal(after.dirty, before.dirty) ||
		!slices.Equal(after.addrs, before.addrs) || !slices.Equal(after.known, before.known) {
		t.Fatalf("pre-failure execution observably changed by a rewound recovery's pins:\nbefore %+v\nafter  %+v", before, after)
	}
	if e0.LineKnown(0x1000) || e0.LineKnown(0x380) {
		t.Fatal("a pin materialized a line interval")
	}
}

// TestHeaderSizes keeps the per-byte refinement memo from creeping back: a
// slot is two arena indices, and an undo entry holds no more than the snapshot
// accounting (RetainedBytes) has always charged for it.
func TestHeaderSizes(t *testing.T) {
	if got := unsafe.Sizeof(slot{}); got != 8 {
		t.Errorf("unsafe.Sizeof(slot{}) = %d, want 8", got)
	}
	if got := unsafe.Sizeof(ivUndo{}); got != 32 {
		t.Errorf("unsafe.Sizeof(ivUndo{}) = %d, want 32", got)
	}
	if got := unsafe.Sizeof(page{}); got > 2560 {
		t.Errorf("unsafe.Sizeof(page{}) = %d, want <= 2560", got)
	}
}
