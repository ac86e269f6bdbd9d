package pmem

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
)

// fp is shorthand for a stack's canonical fingerprint from the seed.
func fp(s *Stack) uint64 { return s.Fingerprint(FingerprintSeed) }

func TestFingerprintSeqShiftInvariance(t *testing.T) {
	// Absolute sequence numbers must not matter: two states whose relevant
	// sequences are order-isomorphic fingerprint identically. Same store
	// values, same flush position relative to the stores, wildly different
	// absolute seqs.
	build := func(seqs [3]Seq) *Stack {
		const a = Addr(0x100)
		s := NewStack()
		e := s.Top()
		e.Append(a, 0x11, seqs[0])
		s.FlushLine(a, seqs[1])
		e.Append(a, 0x22, seqs[2])
		return s
	}
	lo := build([3]Seq{1, 2, 3})
	hi := build([3]Seq{100, 2000, 30000})
	if fp(lo) != fp(hi) {
		t.Errorf("shifted seqs changed the fingerprint: %#x vs %#x", fp(lo), fp(hi))
	}

	// Interval bounds are ranked too: End lowered anywhere strictly between
	// the same two stores is the same reachable state.
	mid := func(end Seq) *Stack {
		const a = Addr(0x40)
		s := NewStack()
		e := s.Top()
		e.Append(a, 0x11, 2)
		e.Append(a, 0x22, 6)
		s.lowerEnd(RefineLower, e, a, end)
		return s
	}
	if fp(mid(4)) != fp(mid(5)) {
		t.Errorf("equivalent End bounds (both between the stores) fingerprint differently")
	}
}

func TestFingerprintBoundaryDistinct(t *testing.T) {
	// Moving a bound across a store changes the reachable candidate set and
	// must change the fingerprint, even though the touched lines (and almost
	// all ranks) are identical.
	withEnd := func(end Seq) *Stack {
		const a = Addr(0x40)
		s := NewStack()
		e := s.Top()
		e.Append(a, 0x11, 2)
		e.Append(a, 0x22, 6)
		if end != SeqInf {
			s.lowerEnd(RefineLower, e, a, end)
		}
		return s
	}
	if fp(withEnd(6)) == fp(withEnd(7)) {
		t.Errorf("End=6 excludes the seq-6 store, End=7 includes it; fingerprints collide")
	}
	if fp(withEnd(2)) == fp(withEnd(3)) {
		t.Errorf("End=2 excludes both stores, End=3 keeps the first; fingerprints collide")
	}

	// Settled vs merely-reachable oldest store: Begin at the store's seq
	// guarantees it persisted; Begin just below leaves the pre-store value
	// reachable too.
	withBegin := func(begin Seq) *Stack {
		const a = Addr(0x80)
		s := NewStack()
		e := s.Top()
		e.Append(a, 0x33, 5)
		s.FlushLine(a, begin)
		return s
	}
	if fp(withBegin(5)) == fp(withBegin(4)) {
		t.Errorf("settled and unsettled states fingerprint identically")
	}
}

func TestFingerprintValueAndLineSensitivity(t *testing.T) {
	one := func(a Addr, val byte) *Stack {
		s := NewStack()
		s.Top().Append(a, val, 1)
		return s
	}
	if fp(one(0x100, 0xAA)) == fp(one(0x100, 0xAB)) {
		t.Errorf("store value not reflected in the fingerprint")
	}

	// Per-line hashes are combined by XOR; the absolute line address inside
	// each hash is what keeps swapped line contents distinct.
	pair := func(v0, v1 byte) *Stack {
		s := NewStack()
		e := s.Top()
		e.Append(0x000, v0, 1)
		e.Append(0x040, v1, 2)
		return s
	}
	if fp(pair(0xAA, 0xBB)) == fp(pair(0xBB, 0xAA)) {
		t.Errorf("swapping two lines' contents did not change the fingerprint")
	}
	// ...while touching the same lines in a different order must not matter
	// (XOR combination is what makes map iteration order irrelevant).
	rev := NewStack()
	e := rev.Top()
	e.Append(0x040, 0xBB, 2)
	e.Append(0x000, 0xAA, 1)
	if fp(pair(0xAA, 0xBB)) != fp(rev) {
		t.Errorf("line touch order changed the fingerprint")
	}
}

// buildRefined constructs the canonical multi-execution state: a pre-failure
// execution with two stores and a flush, a failure, and one post-failure
// refinement read of the older store.
func buildRefined(a Addr) *Stack {
	s := NewStack()
	e := s.Top()
	e.Append(a, 0x11, 1)
	s.FlushLine(a, 2)
	e.Append(a, 0x22, 3)
	s.Push()
	cands := s.ReadPreFailure(a)
	s.DoRead(a, cands[len(cands)-1])
	return s
}

func TestFingerprintCacheCoherence(t *testing.T) {
	// The cached per-line hashes must be invalidated by every mutation path:
	// a stack mutated after being fingerprinted must equal a freshly built
	// stack with the same history.
	const a = Addr(0x100)
	mutated := NewStack()
	e := mutated.Top()
	e.Append(a, 0x11, 1)
	_ = fp(mutated) // populate caches
	mutated.FlushLine(a, 2)
	_ = fp(mutated)
	e.Append(a, 0x22, 3)
	_ = fp(mutated)
	mutated.Push()
	cands := mutated.ReadPreFailure(a)
	mutated.DoRead(a, cands[len(cands)-1]) // raiseBegin + lowerEnd in place
	got := fp(mutated)

	fresh := buildRefined(a)
	if want := fp(fresh); got != want {
		t.Errorf("mutated stack fingerprint %#x, fresh equivalent %#x", got, want)
	}
}

func TestFingerprintRewindRestores(t *testing.T) {
	// A journal rewind must restore the exact pre-mark fingerprint even when
	// the mutations in between were fingerprinted (cached).
	const a = Addr(0x40)
	s := NewStack()
	s.EnableJournal()
	e := s.Top()
	e.Append(a, 0x11, 1)
	s.FlushLine(a, 2)
	e.Append(a, 0x22, 3)
	before := fp(s)
	m := s.Mark()

	e.Append(a, 0x33, 4)
	s.Push()
	cands := s.ReadPreFailure(a)
	s.DoRead(a, cands[len(cands)-1])
	if fp(s) == before {
		t.Fatalf("mutations did not change the fingerprint")
	}

	s.Rewind(m)
	if got := fp(s); got != before {
		t.Errorf("fingerprint after rewind = %#x, want %#x", got, before)
	}
}

// fpSpec is a line state up to order-preserving sequence shifts and store
// splits: stores in sequence order, and the interval bounds as ordinals.
// Store i has ordinal 2i+2, so a bound sits on a store (even) or between two
// (odd); end < 0 is SeqInf.
type fpSpec struct {
	line       Addr
	stores     []fpSpecStore
	known      bool
	begin, end int
}

type fpSpecStore struct {
	off, size int
	val       uint64
}

// fpState is one realization of a spec: the seed of its sequence gaps and of
// which multi-byte stores are split into per-byte nodes.
type fpState struct {
	spec *fpSpec
	seed uint64
}

// fpCoverage counts the line-state features the reference comparison must
// reach.
type fpCoverage struct {
	aboveEnd, shadowed, noCand, bigSet, wideRank, twin, classes int
}

// fpReader decodes specs from bytes (0 once exhausted), so the randomized
// test and the fuzz target share one generator.
type fpReader struct{ b []byte }

func (r *fpReader) next() int {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return int(c)
}

// newSpec decodes a spec: few stores in a narrow window (so states collide),
// or more than smallSeqSet of them across the line; values of 0 or 1 per byte.
func (r *fpReader) newSpec() *fpSpec {
	sp := &fpSpec{line: 0x40}
	if r.next()&1 == 1 {
		sp.line = 0x1_0000_0040
	}
	n, window := 1+r.next()%5, 4
	if c := r.next(); c >= 0xE0 {
		n, window = smallSeqSet+1+c%32, 64
	}
	for range n {
		c := r.next()
		size := []int{1, 2, 4, 8}[c&3]
		off := (c >> 2) % min(window, CacheLineSize-size+1)
		sp.stores = append(sp.stores, fpSpecStore{off: off, size: size, val: spreadBits(r.next())})
	}
	sp.known = r.next()%4 != 0
	ords := 2*n + 3
	sp.begin = r.next() % ords
	if c := r.next(); c%4 == 0 {
		sp.end = -1
	} else {
		sp.end = sp.begin + c%(ords-sp.begin)
	}
	return sp
}

// spreadBits makes bit i of c the value of byte i.
func spreadBits(c int) uint64 {
	var v uint64
	for i := range 8 {
		v |= uint64(c>>i&1) << (8 * i)
	}
	return v
}

// mutate returns a copy of sp one step away: a store's value, or a bound
// moved by one ordinal.
func (r *fpReader) mutate(sp *fpSpec) *fpSpec {
	m := *sp
	m.stores = slices.Clone(sp.stores)
	switch c := r.next(); c % 3 {
	case 0:
		m.stores[c/3%len(m.stores)].val ^= spreadBits(r.next() | 1)
	case 1:
		if m.begin > 0 && c&0x80 != 0 {
			m.begin--
		} else if m.begin < 2*len(m.stores)+2 && (m.end < 0 || m.begin < m.end) {
			m.begin++
		}
	default:
		if m.end < 0 {
			m.end = 2*len(m.stores) + 2
		} else if m.end > m.begin && c&0x80 != 0 {
			m.end--
		} else {
			m.end = -1
		}
	}
	return &m
}

// states decodes up to max states: a new spec, another realization of the
// previous one, or a one-step mutation of it.
func (r *fpReader) states(max int) []fpState {
	var out []fpState
	for len(out) < max && len(r.b) > 0 {
		var sp *fpSpec
		switch op := r.next() % 8; {
		case len(out) == 0 || op < 3:
			sp = r.newSpec()
		case op < 6:
			sp = out[len(out)-1].spec
		default:
			sp = r.mutate(out[len(out)-1].spec)
		}
		out = append(out, fpState{spec: sp, seed: uint64(r.next()<<8 | r.next())})
	}
	return out
}

// build realizes st in a fresh execution from pool: random gaps between the
// ordinals' sequences, and each multi-byte store one AppendWord or one Append
// per byte. It reports whether a multi-byte store was split.
func (st fpState) build(pool *Pool) (e *Execution, lr *lineRec, split bool) {
	sp := st.spec
	rng := rand.New(rand.NewPCG(st.seed, 7))
	seqOf := make([]Seq, 2*len(sp.stores)+3)
	s := Seq(rng.IntN(3))
	for k := range seqOf {
		seqOf[k] = s
		s += 1 + Seq(rng.IntN(1000))
	}
	e = pool.getExec(0)
	for i, ss := range sp.stores {
		a, seq := sp.line+Addr(ss.off), seqOf[2*i+2]
		if ss.size > 1 && rng.IntN(2) == 0 {
			split = true
			for b := range ss.size {
				e.Append(a+Addr(b), byte(ss.val>>(8*b)), seq)
			}
			continue
		}
		e.AppendWord(a, ss.size, ss.val, seq)
	}
	lr = e.ensureLine(sp.line)
	lr.known = sp.known
	if sp.known {
		lr.iv = Interval{Begin: seqOf[sp.begin], End: SeqInf}
		if sp.end >= 0 {
			lr.iv.End = seqOf[sp.end]
		}
	}
	return e, lr, split
}

// note records which features the built line state has, walking every byte
// as the reference does.
func (cov *fpCoverage) note(e *Execution, line Addr, lr *lineRec) {
	begin, end := lr.iv.Begin, lr.iv.End
	if !lr.known {
		begin, end = 0, SeqInf
	}
	pg := e.pageFor(line)
	seqs := map[Seq]bool{begin: true, end: true}
	for off := Addr(0); off < CacheLineSize; off++ {
		tail := pg.slots[(line+off)&pageMask].tail
		cands := 0
		for i := tail; i != 0; {
			nd := &e.arena[i-1]
			i = nd.prev
			if nd.seq >= end {
				cov.aboveEnd++
				continue
			}
			cands++
			seqs[nd.seq] = true
			if nd.seq <= begin {
				if i != 0 {
					cov.shadowed++
				}
				break
			}
		}
		if tail != 0 && cands == 0 {
			cov.noCand++
		}
	}
	if len(seqs) > smallSeqSet {
		cov.bigSet++
	}
	if len(seqs) > rankEsc+1 {
		cov.wideRank++
	}
}

// checkFingerprintClasses builds every state and checks that its words decode
// to the reference's stream and, pair by pair, that lineFingerprint equates
// two states exactly when the reference does.
func checkFingerprintClasses(t *testing.T, states []fpState) fpCoverage {
	t.Helper()
	var cov fpCoverage
	pool := NewPool()
	type pair struct{ got, ref uint64 }
	hashes := make([]pair, len(states))
	splits := map[*fpSpec][2]bool{}
	for i, st := range states {
		e, lr, split := st.build(pool)
		pg := e.pageFor(st.spec.line)
		hashes[i] = pair{e.lineFingerprint(pg, st.spec.line, lr), e.refLineFingerprint(pg, st.spec.line, lr)}
		got, err := decodeLineWords(e.lineWords(pg, st.spec.line, lr))
		if want := e.refLineStream(pg, st.spec.line, lr); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("state %d: line words decode to %+v (%v), want the stream %+v\nspec %+v", i, got, err, want, *st.spec)
		}
		cov.note(e, st.spec.line, lr)
		seen := splits[st.spec]
		if split {
			seen[1] = true
		} else {
			seen[0] = true
		}
		splits[st.spec] = seen
		pool.putExec(e)
	}
	for _, seen := range splits {
		if seen[0] && seen[1] {
			cov.twin++
		}
	}
	byGot, byRef := map[uint64]int{}, map[uint64]int{}
	for i, h := range hashes {
		if j, ok := byGot[h.got]; ok && hashes[j].ref != h.ref {
			t.Fatalf("states %d and %d fingerprint equal (%#x) but differ under the reference:\n%+v\n%+v",
				j, i, h.got, *states[j].spec, *states[i].spec)
		}
		if j, ok := byRef[h.ref]; ok && hashes[j].got != h.got {
			t.Fatalf("states %d and %d are equal under the reference but fingerprint %#x vs %#x:\n%+v\n%+v",
				j, i, hashes[j].got, h.got, *states[j].spec, *states[i].spec)
		}
		byGot[h.got], byRef[h.ref] = i, i
	}
	cov.classes = len(byRef)
	return cov
}

// wideSpec is a line whose one byte holds n stores, all reachable, so its
// ranks run past the packed field; flip > 0 inverts the value of the store
// at rank flip.
func wideSpec(n, flip int) *fpSpec {
	sp := &fpSpec{line: 0x40, known: true, end: -1}
	for i := range n {
		sp.stores = append(sp.stores, fpSpecStore{size: 1, val: uint64(i & 1)})
	}
	if flip > 0 {
		sp.stores[flip-1].val ^= 1
	}
	return sp
}

func TestLineFingerprintMatchesReference(t *testing.T) {
	// Equivalence classes, not hash values, are the contract: every pair of
	// line states must be equal under the word encoding exactly when it is
	// equal under the byte-wise FNV encoding it replaced.
	data := make([]byte, 64<<10)
	rng := rand.New(rand.NewPCG(46, 1))
	for i := range data {
		data[i] = byte(rng.Uint32())
	}
	r := &fpReader{b: data}
	states := r.states(4000)
	// Ranks wider than the packed field: equal under a shift, distinct
	// under a value flip below or past the field's width.
	const wide = rankEsc + 100
	plain, high, low := wideSpec(wide, 0), wideSpec(wide, rankEsc+7), wideSpec(wide, 7)
	states = append(states, fpState{plain, 1}, fpState{plain, 2}, fpState{high, 3}, fpState{high, 4}, fpState{low, 5})
	cov := checkFingerprintClasses(t, states)
	t.Logf("%d states in %d classes; coverage %+v", len(states), cov.classes, cov)
	if cov.aboveEnd == 0 || cov.shadowed == 0 || cov.noCand == 0 || cov.bigSet == 0 || cov.wideRank < 5 || cov.twin == 0 || cov.classes > len(states)/2 {
		t.Errorf("generated states miss a feature the comparison must reach: %+v", cov)
	}
}

func FuzzLineFingerprint(f *testing.F) {
	f.Add([]byte{0, 1, 2, 9, 200, 7, 3, 1, 2, 4, 4, 5, 6, 60, 7, 5, 5, 1, 2, 6})
	f.Add([]byte{0, 0, 0xE5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 3, 3, 4, 5, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fpReader{b: data}
		checkFingerprintClasses(t, r.states(32))
	})
}

func TestFingerprintAllocFree(t *testing.T) {
	// A fingerprint of a recycled image rehashes every line from scratch —
	// pooled pages come back with no cached hash — through the scratch
	// slices pooled executions keep, so once warmed it allocates nothing:
	// small and large relevant sets, word stores and byte stores alike.
	pool := NewPool()
	var s *Stack
	var want uint64
	cycle := func() {
		s = pool.Recycle(s)
		e := s.Top()
		seq := Seq(1)
		for l := Addr(0); l < 32; l++ {
			line := 0x1000 + l*CacheLineSize
			for w := Addr(0); w < 6; w++ {
				e.AppendWord(line+8*w, 8, uint64(l*w), seq)
				seq++
			}
			e.Append(line+50, byte(l), seq)
			seq++
			s.FlushLine(line, seq-3)
		}
		for i := range 3 * smallSeqSet {
			e.Append(0x2000+Addr(i%CacheLineSize), byte(i), seq)
			seq++
		}
		s.Push()
		if got := s.Fingerprint(FingerprintSeed); want == 0 {
			want = got
		} else if got != want {
			t.Fatalf("recycled image fingerprints %#x, first build %#x", got, want)
		}
	}
	for range 4 {
		cycle()
	}
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Errorf("warmed recycle/build/fingerprint cycle allocates %.1f times per run, want 0", allocs)
	}
}
