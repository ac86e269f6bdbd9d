package pmem

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// ---- Reference model -------------------------------------------------------
//
// modelStack mirrors Stack/Execution semantics with the naive maps-of-slices
// layout the paged arena replaced. The fuzz driver below runs both against
// the same operation sequence and requires identical observable state after
// every step — the correctness pin for the paged addressing, the incremental
// dirty counters, and the arena-based journal rewind.

type modelExec struct {
	id     int
	queues map[Addr][]ByteStore
	iv     map[Addr]Interval
	known  map[Addr]bool
}

func newModelExec(id int) *modelExec {
	return &modelExec{
		id:     id,
		queues: make(map[Addr][]ByteStore),
		iv:     make(map[Addr]Interval),
		known:  make(map[Addr]bool),
	}
}

func (m *modelExec) clone() *modelExec {
	c := newModelExec(m.id)
	for a, q := range m.queues {
		c.queues[a] = append([]ByteStore(nil), q...)
	}
	for a, iv := range m.iv {
		c.iv[a] = iv
	}
	for a, k := range m.known {
		c.known[a] = k
	}
	return c
}

func (m *modelExec) bounds(line Addr) (Seq, Seq) {
	if !m.known[line] {
		return 0, SeqInf
	}
	iv := m.iv[line]
	return iv.Begin, iv.End
}

func (m *modelExec) raiseBegin(a Addr, v Seq) bool {
	line := a.Line()
	begin, end := m.bounds(line)
	if v <= begin {
		return false
	}
	m.known[line] = true
	m.iv[line] = Interval{Begin: v, End: end}
	return true
}

func (m *modelExec) lowerEnd(a Addr, v Seq) bool {
	line := a.Line()
	begin, end := m.bounds(line)
	if v >= end {
		return false
	}
	m.known[line] = true
	m.iv[line] = Interval{Begin: begin, End: v}
	return true
}

func (m *modelExec) dirtyStores(line Addr) int {
	begin, _ := m.bounds(line)
	n := 0
	for a, q := range m.queues {
		if a.Line() != line {
			continue
		}
		for _, bs := range q {
			if bs.Seq > begin {
				n++
			}
		}
	}
	return n
}

func (m *modelExec) candidates(a Addr, out []Candidate) ([]Candidate, bool) {
	begin, end := m.bounds(a.Line())
	q := m.queues[a]
	for i := len(q) - 1; i >= 0; i-- {
		bs := q[i]
		if bs.Seq >= end {
			continue
		}
		out = append(out, Candidate{Exec: m.id, ByteStore: bs})
		if bs.Seq <= begin {
			return out, true
		}
	}
	return out, false
}

type modelStack struct {
	execs []*modelExec
}

func (m *modelStack) top() *modelExec { return m.execs[len(m.execs)-1] }

func (m *modelStack) clone() *modelStack {
	c := &modelStack{}
	for _, e := range m.execs {
		c.execs = append(c.execs, e.clone())
	}
	return c
}

func (m *modelStack) readPreFailure(a Addr) []Candidate {
	var out []Candidate
	for id := m.top().id - 1; id >= 0; id-- {
		var settled bool
		out, settled = m.execs[id].candidates(a, out)
		if settled {
			return out
		}
	}
	return append(out, Candidate{Exec: InitialExec})
}

func (m *modelStack) doRead(a Addr, c Candidate) {
	if c.Exec == m.top().id {
		return
	}
	for id := m.top().id - 1; id >= 0; id-- {
		ec := m.execs[id]
		if c.Exec != id {
			if q := ec.queues[a]; len(q) > 0 {
				ec.lowerEnd(a, q[0].Seq)
			}
			continue
		}
		ec.raiseBegin(a, c.Seq)
		next := SeqInf
		for _, bs := range ec.queues[a] {
			if bs.Seq > c.Seq {
				next = bs.Seq
				break
			}
		}
		ec.lowerEnd(a, next)
		return
	}
}

// ---- Cross-check driver ----------------------------------------------------

// modelAddrs spans three pages (0, 1 and 3) with several byte offsets per
// line, so page-boundary arithmetic and the one-entry page cache are
// exercised alongside intra-line behaviour.
func modelAddrs() []Addr {
	lines := []Addr{0x0, 0x40, 0x100, 0x1c0, 0x300}
	offs := []Addr{0, 1, 63}
	var out []Addr
	for _, l := range lines {
		for _, o := range offs {
			out = append(out, l+o)
		}
	}
	return out
}

// checkSame compares every observable of the real stack against the model.
func checkSame(t *testing.T, step int, s *Stack, m *modelStack) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("step %d: %s", step, fmt.Sprintf(format, args...))
	}
	if s.Depth() != len(m.execs) {
		fail("depth = %d, want %d", s.Depth(), len(m.execs))
	}
	// Word stores reach bytes beyond the fixed set, so every address the model
	// holds a queue for is compared too.
	set := map[Addr]bool{}
	for _, a := range modelAddrs() {
		set[a] = true
	}
	for _, me := range m.execs {
		for a := range me.queues {
			set[a] = true
		}
	}
	addrs := make([]Addr, 0, len(set))
	for a := range set {
		addrs = append(addrs, a)
	}
	sortAddrs(addrs)
	for id := 0; id < s.Depth(); id++ {
		e, me := s.At(id), m.execs[id]
		lines := map[Addr]bool{}
		for _, a := range addrs {
			lines[a.Line()] = true
			if got, want := e.Queue(a), me.queues[a]; !reflect.DeepEqual(got, want) && (len(got) != 0 || len(want) != 0) {
				fail("exec %d queue %v = %v, want %v", id, a, got, want)
			}
			gotC, gotS := e.Candidates(a)
			wantC, wantS := me.candidates(a, nil)
			wantB := make([]ByteStore, 0, len(wantC))
			for _, c := range wantC {
				wantB = append(wantB, c.ByteStore)
			}
			if gotS != wantS || !reflect.DeepEqual(gotC, wantC2bs(wantB)) {
				fail("exec %d candidates %v = %v/%v, want %v/%v", id, a, gotC, gotS, wantB, wantS)
			}
		}
		for line := range lines {
			switch {
			case me.known[line]:
				if !e.LineKnown(line) {
					fail("exec %d line %v unknown, model knows %+v", id, line, me.iv[line])
				}
				if got, want := *e.CacheLine(line), me.iv[line]; got != want {
					fail("exec %d interval %v = %+v, want %+v", id, line, got, want)
				}
			case e.LineKnown(line):
				// A rewind restores intervals but does not un-materialize
				// lines first touched after the mark; they must read as the
				// vacuous [0, ∞), which the model treats as unknown.
				if got := *e.CacheLine(line); got != (Interval{Begin: 0, End: SeqInf}) {
					fail("exec %d residual line %v = %+v, want vacuous", id, line, got)
				}
			}
			if got, want := e.DirtyStores(line), me.dirtyStores(line); got != want {
				fail("exec %d DirtyStores %v = %d, want %d", id, line, got, want)
			}
		}
		if got, want := e.DirtyLines(), modelDirtyLines(me); !sameAddrs(got, want) {
			fail("exec %d DirtyLines = %v, want %v", id, got, want)
		}
		if got, want := e.TouchedAddrs(), modelTouchedAddrs(me); !sameAddrs(got, want) {
			fail("exec %d TouchedAddrs = %v, want %v", id, got, want)
		}
	}
	for _, a := range addrs {
		got := s.ReadPreFailure(a)
		want := m.readPreFailure(a)
		if !reflect.DeepEqual(got, want) {
			fail("ReadPreFailure %v = %v, want %v", a, got, want)
		}
	}
}

func wantC2bs(b []ByteStore) []ByteStore {
	if len(b) == 0 {
		return nil
	}
	return b
}

func modelDirtyLines(m *modelExec) []Addr {
	seen := map[Addr]bool{}
	var out []Addr
	for a := range m.queues {
		line := a.Line()
		if !seen[line] && m.dirtyStores(line) > 0 {
			seen[line] = true
			out = append(out, line)
		}
	}
	sortAddrs(out)
	return out
}

func modelTouchedAddrs(m *modelExec) []Addr {
	var out []Addr
	for a, q := range m.queues {
		if len(q) > 0 {
			out = append(out, a)
		}
	}
	sortAddrs(out)
	return out
}

func sameAddrs(a, b []Addr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// byteLoad is the per-byte load path the checker falls back to, applied to
// both the stack and the model: the top execution's newest store, else the
// first pre-failure candidate with its DoRead refinement.
func byteLoad(s *Stack, m *modelStack, a Addr) (val byte, cached bool, cands int, skipped bool) {
	if bs, ok := s.Top().Newest(a); ok {
		return bs.Val, true, 0, false
	}
	cs := s.ReadPreFailure(a)
	skipped = s.DoRead(a, cs[0])
	if m != nil {
		m.doRead(a, cs[0])
	}
	return cs[0].Val, false, len(cs), skipped
}

// TestPagedMatchesMapModel fuzzes the paged arena layout against the
// reference map model: random byte and word appends, flushes, failures,
// refining reads, whole-operation loads, journal mark/rewind cycles and
// mid-sequence recycles, with every observable compared after each operation.
// The real stack is recycled through one shared pool across seeds, so
// pooled-state reuse is cross-checked continuously.
//
// A twin stack receives the same mutations through the byte API alone — a
// word store is one Append per byte, so every arena node has size 1 — and
// resolves every load byte by byte. Whenever Stack.Load answers a whole load
// on the primary, the twin's byte path must yield exactly those bytes — all
// from the top execution for LoadCached; one candidate each and a skipped
// DoRead for LoadPinned — and when it declines, the primary takes
// the byte path too, so the two stay in lockstep, both must keep matching the
// model, and their Fingerprints must agree after every step: whether a store
// became one node or several is not observable.
//
// Besides uniformly random stores the generator plays the four sequences that
// decide between one node and the per-byte fallback (storeShapes), each with a
// mark before its last store and a rewind to it afterwards.
func TestPagedMatchesMapModel(t *testing.T) {
	pool, twinPool := NewPool(), NewPool()
	var s, tw *Stack
	fast, deep := map[LoadSource]int{}, map[LoadSource]int{}
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		addrs := modelAddrs()
		sizes := []int{1, 2, 4, 8}
		var m *modelStack
		var seq Seq
		type savedMark struct {
			mark, twin Mark
			model      *modelStack
			seq        Seq
		}
		var marks []savedMark
		recycle := func() {
			s, tw = pool.Recycle(s), twinPool.Recycle(tw)
			s.EnableJournal()
			tw.EnableJournal()
			m = &modelStack{execs: []*modelExec{newModelExec(0)}}
			seq, marks = 0, nil
		}
		recycle()
		nextSeq := func() Seq { seq++; return seq }
		// store applies one store to the primary (one AppendWord), the
		// twin (one Append per byte) and the model.
		store := func(a Addr, size int, val uint64) {
			sq := nextSeq()
			s.Top().AppendWord(a, size, val, sq)
			s.Top().EvictedStores += size
			for i := 0; i < size; i++ {
				b, v := a+Addr(i), byte(val>>(8*uint(i)))
				tw.Top().Append(b, v, sq)
				tw.Top().EvictedStores++
				m.top().queues[b] = append(m.top().queues[b], ByteStore{Val: v, Seq: sq})
			}
		}
		mark := func() savedMark {
			return savedMark{mark: s.Mark(), twin: tw.Mark(), model: m.clone(), seq: seq}
		}
		rewind := func(sm savedMark) {
			s.Rewind(sm.mark)
			tw.Rewind(sm.twin)
			m = sm.model.clone()
			seq = sm.seq
		}
		push := func() {
			s.Push()
			tw.Push()
			m.execs = append(m.execs, newModelExec(len(m.execs)))
		}
		check := func(step int) {
			t.Helper()
			checkSame(t, step, s, m)
			checkSame(t, step, tw, m)
			if got, want := s.Fingerprint(FingerprintSeed), tw.Fingerprint(FingerprintSeed); got != want {
				t.Fatalf("seed %d step %d: Fingerprint = %#x, byte-built twin %#x", seed, step, got, want)
			}
			// Whatever is pinned right now must be the model's only candidate,
			// whichever execution, scenario or rewind ago it was pinned.
			for _, a := range addrs {
				if v, src := s.Load(a, 1); src == LoadPinned {
					if want := m.readPreFailure(a); len(want) != 1 || want[0].Val != byte(v) {
						t.Fatalf("seed %d step %d: %v pinned to %#x, model candidates %v", seed, step, a, v, want)
					}
				}
			}
		}
		// load is one whole-operation load on the primary, checked byte by
		// byte against the twin's byte path (which also refines the model).
		load := func(step int, a Addr, size int) {
			v, src := s.Load(a, size)
			fast[src]++
			if s.Depth() >= 3 {
				deep[src]++
			}
			for i := 0; i < size; i++ {
				b := a + Addr(i)
				val, cached, cands, skipped := byteLoad(tw, m, b)
				switch src {
				case LoadDeclined:
					byteLoad(s, nil, b)
					continue
				case LoadCached:
					if !cached {
						t.Fatalf("seed %d step %d: Load(%v,%d) cached, twin byte %d is not", seed, step, a, size, i)
					}
				case LoadPinned:
					if cached || cands != 1 || !skipped {
						t.Fatalf("seed %d step %d: Load(%v,%d) pinned, twin byte %d: cached=%v candidates=%d skipped=%v",
							seed, step, a, size, i, cached, cands, skipped)
					}
				}
				if got := byte(v >> (8 * uint(i))); got != val {
					t.Fatalf("seed %d step %d: Load(%v,%d) byte %d = %#x, byte path %#x", seed, step, a, size, i, got, val)
				}
			}
		}

		for step := 0; step < 200; step++ {
			a := addrs[rng.Intn(len(addrs))]
			switch op := rng.Intn(100); {
			case op < 20: // byte store
				v, sq := byte(rng.Intn(256)), nextSeq()
				for _, st := range []*Stack{s, tw} {
					st.Top().Append(a, v, sq)
					st.Top().EvictedStores++
				}
				m.top().queues[a] = append(m.top().queues[a], ByteStore{Val: v, Seq: sq})
			case op < 30: // word store (offset 63 crosses into the next line)
				store(a, sizes[rng.Intn(len(sizes))], rng.Uint64())
			case op < 35: // a node-shape sequence on a's line
				shape := storeShapes[rng.Intn(len(storeShapes))]
				base := a.Line()
				var sm savedMark
				var fp uint64
				for i, st := range shape {
					if i == len(shape)-1 {
						sm, fp = mark(), s.Fingerprint(FingerprintSeed)
					}
					store(base+st.off, st.size, rng.Uint64())
					check(step)
				}
				rewind(sm)
				if got := s.Fingerprint(FingerprintSeed); got != fp {
					t.Fatalf("seed %d step %d: Fingerprint = %#x after rewind, %#x at the mark", seed, step, got, fp)
				}
				check(step)
				// The outstanding marks are still valid: the state is the
				// one the shape's last store was applied to.
				last := shape[len(shape)-1]
				store(base+last.off, last.size, rng.Uint64())
			case op < 47: // flush
				at := nextSeq()
				s.FlushLine(a, at)
				tw.FlushLine(a, at)
				m.top().raiseBegin(a, at)
			case op < 57: // post-failure byte load: pick the same candidate in all three
				if s.Depth() < 2 {
					continue
				}
				cands := s.ReadPreFailure(a)
				c := cands[rng.Intn(len(cands))]
				if got, want := s.DoRead(a, c), tw.DoRead(a, c); got != want {
					t.Fatalf("seed %d step %d: DoRead skipped = %v, twin %v", seed, step, got, want)
				}
				m.doRead(a, c)
			case op < 76: // whole-operation load, re-read up to three times
				size := sizes[rng.Intn(len(sizes))]
				for n := 1 + rng.Intn(3); n > 0; n-- {
					load(step, a, size)
				}
			case op < 80: // loads at depth 3, the top execution popped and pushed again between them
				for s.Depth() < 2 {
					push()
				}
				if s.Depth() > 2 {
					continue
				}
				sm := mark()
				reload := func() {
					push()
					for _, b := range addrs {
						load(step, b, sizes[rng.Intn(len(sizes))])
					}
				}
				reload()
				rewind(sm)
				// A store or a flush by the execution that is the top again must
				// retire what the popped one pinned on that line, and only that.
				switch rng.Intn(3) {
				case 0:
					store(a, sizes[rng.Intn(len(sizes))], rng.Uint64())
				case 1:
					at := nextSeq()
					s.FlushLine(a, at)
					tw.FlushLine(a, at)
					m.top().raiseBegin(a, at)
				}
				sm = mark()
				reload()
				check(step)
				rewind(sm)
			case op < 88: // failure
				if s.Depth() >= 4 {
					continue
				}
				s.Push()
				tw.Push()
				m.execs = append(m.execs, newModelExec(len(m.execs)))
			case op < 93: // snapshot mark
				marks = append(marks, mark())
			case op < 99: // rewind to a random outstanding mark
				if len(marks) == 0 {
					continue
				}
				i := rng.Intn(len(marks))
				rewind(marks[i])
				marks = marks[:i+1]
			default: // scenario reset through the pools
				recycle()
			}
			check(step)
		}
	}
	for _, src := range []LoadSource{LoadDeclined, LoadCached, LoadPinned} {
		if fast[src] < 50 {
			t.Errorf("Stack.Load answered with source %d only %d times: the fuzz no longer exercises it", src, fast[src])
		}
	}
	if deep[LoadPinned] < 50 || deep[LoadDeclined] < 50 {
		t.Errorf("at depth >= 3 Stack.Load was pinned %d times and declined %d: the fuzz no longer exercises pins across a pop and a push",
			deep[LoadPinned], deep[LoadDeclined])
	}
}

// storeShapes are the store sequences that decide whether AppendWord leaves
// one arena node or falls back to one per byte, as offsets into a cache line.
var storeShapes = [][]struct {
	off  Addr
	size int
}{
	{{8, 8}, {8, 8}},          // word over the identical word: one node each
	{{8, 8}, {10, 2}, {8, 8}}, // narrower inside wider, then the wider again: mixed tails
	{{8, 8}, {11, 1}, {8, 8}}, // byte into the middle of a word
	{{56, 8}, {60, 8}},        // a word crossing into the next line (and, from 0x1c0, page)
}

// TestAppendWordNodeCount pins the node shape from inside: a word store over
// fresh bytes, or over bytes last written together, is exactly one arena node;
// one over bytes of different history, or across a line, is one per byte.
func TestAppendWordNodeCount(t *testing.T) {
	e := NewExecution(0)
	grow := func(a Addr, size int) int {
		before := len(e.arena)
		e.AppendWord(a, size, 0x0807060504030201, Seq(before+1))
		return len(e.arena) - before
	}
	for _, c := range []struct {
		what    string
		a       Addr
		size    int
		want    int
		wantVal uint64
	}{
		{"fresh aligned word", 0x100, 8, 1, 0x0807060504030201},
		{"the same word again", 0x100, 8, 1, 0x0807060504030201},
		{"narrower store inside it", 0x102, 2, 1, 0x0201},
		{"the word over mixed tails", 0x100, 8, 8, 0x0807060504030201},
		{"the word over eight byte nodes", 0x100, 8, 8, 0x0807060504030201},
		{"fresh half word", 0x110, 4, 1, 0x04030201},
		{"word over a half word and fresh bytes", 0x110, 8, 8, 0x0807060504030201},
		{"line-crossing word", 0x13c, 8, 8, 0x0807060504030201},
	} {
		if got := grow(c.a, c.size); got != c.want {
			t.Errorf("%s: arena grew by %d nodes, want %d", c.what, got, c.want)
		}
		var v uint64
		for i := 0; i < c.size; i++ {
			bs, _ := e.Newest(c.a + Addr(i))
			v |= uint64(bs.Val) << (8 * uint(i))
		}
		if v != c.wantVal {
			t.Errorf("%s: bytes read back %#x, want %#x", c.what, v, c.wantVal)
		}
	}
	if got, want := e.DirtyStores(0x100), 2*8+2+2*8+4+8+4; got != want {
		t.Errorf("DirtyStores(0x100) = %d, want %d (it counts bytes, not nodes)", got, want)
	}
}

// TestPageIndexRebase touches page ids out of order: the dense index must
// re-base when a lower id arrives after a higher one, keep every page
// reachable, and leave the accessors sorted.
func TestPageIndexRebase(t *testing.T) {
	pool := NewPool()
	s := pool.NewStack()
	for round := 0; round < 2; round++ {
		e := s.Top()
		pages := []Addr{0x900, 0xa00, 0x300, 0x1200, 0x100, 0x300}
		for i, a := range pages {
			e.Append(a+Addr(i), byte(i+1), Seq(i+1))
		}
		if e.pageBase != 1 || len(e.pages) != 0x12 {
			t.Fatalf("round %d: index spans base %d len %d, want base 1 len 18", round, e.pageBase, len(e.pages))
		}
		if got, want := e.touched, []Addr{9, 0xa, 3, 0x12, 1}; !slices.Equal(got, want) {
			t.Errorf("round %d: touched = %v, want %v (first-touch order)", round, got, want)
		}
		for i, a := range pages {
			if bs, ok := e.Newest(a + Addr(i)); !ok || bs.Val != byte(i+1) {
				t.Errorf("round %d: Newest(%v) = %v/%v, want %d", round, a+Addr(i), bs, ok, i+1)
			}
		}
		for _, a := range []Addr{0x0, 0x200, 0x1100, 0x1300, 1 << 40} {
			if _, ok := e.Newest(a); ok || e.pageFor(a) != nil {
				t.Errorf("round %d: untouched %v has a page", round, a)
			}
		}
		if got, want := e.TouchedAddrs(), []Addr{0x104, 0x302, 0x305, 0x900, 0xa01, 0x1203}; !slices.Equal(got, want) {
			t.Errorf("round %d: TouchedAddrs = %v, want %v", round, got, want)
		}
		if got, want := e.TouchedLines(), []Addr{0x100, 0x300, 0x900, 0xa00, 0x1200}; !slices.Equal(got, want) {
			t.Errorf("round %d: TouchedLines = %v, want %v", round, got, want)
		}
		if got := e.DirtyLines(); !slices.Equal(got, e.TouchedLines()) {
			t.Errorf("round %d: DirtyLines = %v, want every touched line", round, got)
		}
		// The recycled execution starts from an empty index over the same array.
		s = pool.Recycle(s)
		if e := s.Top(); len(e.pages) != 0 || len(e.touched) != 0 {
			t.Fatalf("round %d: recycled execution keeps %d index entries, %d touched", round, len(e.pages), len(e.touched))
		}
	}
}

// ---- Pool reuse ------------------------------------------------------------

// buildScenario drives a fixed mixed workload on s: pre-failure stores and
// flushes across two pages, a failure, and a refining read.
func buildScenario(s *Stack) {
	e := s.Top()
	for i := 0; i < 10; i++ {
		a := Addr(0x40*i) % 0x280
		e.Append(a, byte(i), Seq(i+1))
		e.EvictedStores++
	}
	s.FlushLine(0x80, 20)
	s.FlushLine(0x240, 21)
	s.Push()
	cands := s.ReadPreFailure(0x80)
	s.DoRead(0x80, cands[len(cands)-1])
}

// scenarioFingerprint captures every observable of the scenario state.
func scenarioFingerprint(s *Stack) string {
	out := ""
	for id := 0; id < s.Depth(); id++ {
		e := s.At(id)
		out += fmt.Sprintf("exec %d evicted %d touched %v lines %v dirty %v\n",
			id, e.EvictedStores, e.TouchedAddrs(), e.TouchedLines(), e.DirtyLines())
		for _, a := range e.TouchedAddrs() {
			out += fmt.Sprintf("  q %v = %v\n", a, e.Queue(a))
		}
		for _, line := range e.TouchedLines() {
			if e.LineKnown(line) {
				out += fmt.Sprintf("  iv %v = %+v dirty %d\n", line, *e.CacheLine(line), e.DirtyStores(line))
			}
		}
	}
	for _, a := range []Addr{0x80, 0x81, 0x240, 0x500} {
		out += fmt.Sprintf("rpf %v = %v\n", a, s.ReadPreFailure(a))
	}
	return out
}

// TestPoolRecycleIndistinguishable pins the scenario-reuse contract: a
// recycled stack replaying a scenario is observably identical to a fresh
// stack running it — queues, intervals, dirty counts, journal marks, and
// retained-bytes accounting included.
func TestPoolRecycleIndistinguishable(t *testing.T) {
	fresh := NewStack()
	fresh.EnableJournal()
	freshMark := fresh.Mark()
	buildScenario(fresh)
	want := scenarioFingerprint(fresh)

	pool := NewPool()
	var s *Stack
	for round := 0; round < 3; round++ {
		s = pool.Recycle(s)
		if s.Journaling() {
			t.Fatal("recycled stack still journaling")
		}
		if got := s.RetainedBytes(); got != 0 {
			t.Fatalf("round %d: recycled stack retains %d bytes", round, got)
		}
		s.EnableJournal()
		if got := s.Mark(); got != freshMark {
			t.Fatalf("round %d: initial mark = %+v, want %+v", round, got, freshMark)
		}
		buildScenario(s)
		if got := scenarioFingerprint(s); got != want {
			t.Fatalf("round %d: recycled scenario diverges from fresh:\ngot:\n%s\nwant:\n%s", round, got, want)
		}
	}
}

// ---- Allocation gates ------------------------------------------------------

// TestStackOpsAllocFree is the pmem-level allocation-regression gate: on a
// warmed, pooled stack, the full hot-path cycle — mark, byte and word append,
// flush, refine, pin, whole-operation load, rewind — performs zero heap
// allocations.
func TestStackOpsAllocFree(t *testing.T) {
	pool := NewPool()
	s := pool.NewStack()
	s.EnableJournal()
	seq := Seq(0)
	var scratch []Candidate
	cycle := func() {
		m := s.Mark()
		for i := 0; i < 16; i++ {
			seq++
			s.Top().Append(Addr(0x40*i)%0x280, byte(i), seq)
			seq++
			s.Top().AppendWord(Addr(0x40*i)%0x280+8, 8, uint64(i), seq)
		}
		seq++
		s.FlushLine(0x80, seq)
		s.Push()
		scratch = s.ReadPreFailureInto(0x80, scratch[:0])
		s.DoRead(0x80, scratch[len(scratch)-1])
		// One byte-path read pins the word; the next load is a summary copy.
		for a := Addr(0x88); a < 0x90; a++ {
			scratch = s.ReadPreFailureInto(a, scratch[:0])
			s.DoRead(a, scratch[0])
		}
		if _, src := s.Load(0x88, 8); src != LoadPinned {
			t.Fatalf("warmed Load(0x88, 8) source = %d, want LoadPinned", src)
		}
		s.Rewind(m)
	}
	// Warm: grow the arena, page table, journal and candidate scratch to
	// steady-state capacity.
	for i := 0; i < 64; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("warmed mark/append/flush/refine/rewind cycle allocates %.1f times per run, want 0", allocs)
	}
}

func sortAddrs(s []Addr) { slices.Sort(s) }
