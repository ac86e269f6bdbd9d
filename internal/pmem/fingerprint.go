package pmem

import (
	"cmp"
	"slices"
)

// Canonical fingerprinting of post-failure persisted state.
//
// Two failure points are equivalent — their recovery subtrees explore the
// identical set of behaviours — when recovery faces the same reachable state:
// for every byte, the same sequence of reachable candidate values, under
// interval constraints that refine the same way. Absolute sequence numbers do
// not matter for that: the candidate enumeration (Figure 9) and the
// constraint refinement (Figure 10) only ever compare sequence numbers that
// are either reachable store sequences or the line's own interval bounds, and
// never compare sequences across cache lines. Fingerprint therefore hashes,
// per execution and per touched line, the *rank* of each relevant sequence
// within the line's own relevant set {Begin, End} ∪ {reachable store seqs} —
// an order-isomorphism-invariant encoding — together with the store values
// and the absolute byte addresses. Unreachable stores (at or beyond the
// line's End, or older than a settled store) are excluded: they can never be
// enumerated as candidates, and every refinement bound derived from them is
// provably a no-op (an execution whose stores all lie at or beyond End
// contributes no candidates, so its First-store lowerEnd never fires with an
// effective bound; stores older than a settled store are shadowed by it).
//
// Each touched line is hashed independently over a canonical stream of
// 32-bit words (lineWords: the absolute line address, the bound ranks, then
// per byte in address order its reachable candidates newest-first as packed
// (rank, value, offset) words and a settled/open terminator), absorbed two
// words at a time through the splitmix64 finalizer. The per-line hashes are
// combined by XOR — commutative, so the result does not depend on the order
// pages were first touched in or on the choice prefix that produced the
// state. The line hashes are cached in the line records and invalidated on
// every store append, interval mutation, and journal rewind. A fingerprint is
// therefore a fold over every touched line (O(touched lines) at each failure
// point) plus a rehash of the lines changed since the last one, each costing
// its stores' chains: consecutive failure points differ in a handful of
// lines, and a snapshot restore rewinds only its delta, so almost all line
// hashes survive from scenario to scenario.
//
// Hash values are comparable only within one build: the encoding is not a
// wire format, so a fleet's coordinator and workers must run the same build.

// FingerprintSeed is the canonical initial hash state.
const FingerprintSeed = uint64(0xcbf29ce484222325)

// mix64 is the splitmix64 finalizer, a bijection on 64-bit words with full
// avalanche; absorbing x into h is mix64(h ^ x).
func mix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// Stream words of a byte: one per reachable candidate, newest first, then a
// terminator. Bits 0-5 hold the byte's offset in the line, bits 6-13 the
// candidate's value (0 in a terminator), bits 14-15 the kind, and bits 16-31 a
// candidate's rank. A rank of rankEsc or more is written as rankEsc, and the
// whole rank follows as the next word (ranks are below 2^31: the arena is
// indexed by int32).
const (
	wordCand    = 1 << 14
	wordOpen    = 2 << 14
	wordSettled = 3 << 14
	rankShift   = 16
	rankEsc     = 1<<16 - 1
)

// smallSeqSet is the largest relevant-sequence set lineWords keeps sorted by
// insertion and ranks by a linear scan; a larger one is sorted once and
// ranked by binary search.
const smallSeqSet = 32

// fpRun is a run of adjacent bytes [lo, hi) of one line that share their
// newest store, and with it their whole store chain: a node has one prev for
// every byte it covers (page.go). cands[c0:c1] are its reachable candidates,
// newest first.
type fpRun struct {
	lo, hi  uint8
	settled bool
	c0, c1  int32
	m       int32 // words per byte
}

// fpCand is a reachable candidate of a run: its sequence, the value bytes it
// wrote from the run's first byte on, and (once ranked) its packed word.
type fpCand struct {
	seq  Seq
	val  uint64
	word uint32
	rank uint32
}

// Fingerprint folds a canonical hash of the scenario's persisted state into
// h: every execution currently on the stack, bottom-up. At a failure point
// the top execution's cache is part of the state recovery will read from, so
// all executions participate.
func (s *Stack) Fingerprint(h uint64) uint64 {
	for _, e := range s.execs {
		h = e.fingerprint(h)
	}
	return h
}

// fingerprint folds this execution's reachable persisted state into h:
// the XOR of every touched line's (cached) canonical hash, plus the line
// count.
func (e *Execution) fingerprint(h uint64) uint64 {
	h = mix64(h ^ (uint64(e.ID) + 1))
	var acc, lines uint64
	for _, id := range e.touched {
		pg := e.pages[id-e.pageBase]
		base := id << pageShift
		for li := range pg.lines {
			lr := &pg.lines[li]
			if lr.tail == 0 {
				continue
			}
			if !lr.fpOK {
				lr.fp = e.lineFingerprint(pg, base+Addr(li*CacheLineSize), lr)
				lr.fpOK = true
			}
			acc ^= lr.fp
			lines++
		}
	}
	h = mix64(h ^ lines)
	return mix64(h ^ acc)
}

// lineFingerprint computes one line's self-contained canonical hash. It
// depends only on the line's own stores and interval (ranks never compare
// sequences across lines), so the result is cacheable until either mutates.
func (e *Execution) lineFingerprint(pg *page, line Addr, lr *lineRec) uint64 {
	w := e.lineWords(pg, line, lr)
	h := FingerprintSeed
	for len(w) >= 2 {
		h = mix64(h ^ (uint64(w[0]) | uint64(w[1])<<32))
		w = w[2:]
	}
	if len(w) == 1 {
		// Every word a stream can end with (a terminator) is non-zero, so
		// the zero pad is unambiguous.
		h = mix64(h ^ uint64(w[0]))
	}
	return h
}

// lineWords writes the line's canonical word stream into the execution's
// scratch and returns it. Pass 1 walks each run of bytes sharing a newest
// store once, collecting its reachable candidates and the line's relevant
// sequences; pass 2 ranks each candidate once per run, and pass 3 writes its
// word for every byte of the run.
func (e *Execution) lineWords(pg *page, line Addr, lr *lineRec) []uint32 {
	begin, end := Seq(0), SeqInf
	if lr.known {
		begin, end = lr.iv.Begin, lr.iv.End
	}
	seqs, runs, cands := e.fpSeqs[:0], e.fpRuns[:0], e.fpCands[:0]
	slots := pg.slots[line&pageMask:][:CacheLineSize]
	for lo := 0; lo < CacheLineSize; {
		tail := slots[lo].tail
		hi := lo + 1
		for hi < CacheLineSize && slots[hi].tail == tail {
			hi++
		}
		if tail == 0 {
			lo = hi
			continue
		}
		r := fpRun{lo: uint8(lo), hi: uint8(hi), c0: int32(len(cands))}
		a := line + Addr(lo)
		for i := tail; i != 0; {
			nd := &e.arena[i-1]
			i = nd.prev
			if nd.seq >= end {
				continue
			}
			cands = append(cands, fpCand{seq: nd.seq, val: nd.val >> (8 * uint(a-nd.addr))})
			seqs = addSeq(seqs, nd.seq)
			if nd.seq <= begin {
				r.settled = true
				break // settled: older stores are unreachable
			}
		}
		r.c1 = int32(len(cands))
		runs = append(runs, r)
		lo = hi
	}
	seqs = addSeq(addSeq(seqs, begin), end)
	if len(seqs) > smallSeqSet {
		slices.SortFunc(seqs, func(x, y Seq) int { return cmp.Compare(y, x) })
		seqs = slices.Compact(seqs)
	}

	n := 4 // the header
	for ri := range runs {
		r := &runs[ri]
		r.m = 1 // words per byte: candidates, escaped ranks, terminator
		for i := r.c0; i < r.c1; i++ {
			c := &cands[i]
			c.rank = rankOf(seqs, c.seq)
			c.word = wordCand | min(c.rank, rankEsc)<<rankShift
			r.m++
			if c.rank >= rankEsc {
				r.m++
			}
		}
		n += int(r.m) * int(r.hi-r.lo)
	}
	e.fpSeqs, e.fpRuns, e.fpCands = seqs, runs, cands

	w := slices.Grow(e.fpWords[:0], n)[:n]
	w[0], w[1], w[2], w[3] = uint32(line), uint32(uint64(line)>>32), rankOf(seqs, begin), rankOf(seqs, end)
	base := 4
	for _, r := range runs {
		// Byte off's words start at base + (off-lo)*m; candidate i sits at
		// the same position within each byte's group.
		m, pos := int(r.m), base
		for _, c := range cands[r.c0:r.c1] {
			v := c.val
			for j, off := pos, uint32(r.lo); off < uint32(r.hi); j, off = j+m, off+1 {
				w[j] = c.word | uint32(byte(v))<<6 | off
				v >>= 8
			}
			pos++
			if c.rank >= rankEsc {
				for j := pos; j < pos+m*int(r.hi-r.lo); j += m {
					w[j] = c.rank
				}
				pos++
			}
		}
		term := uint32(wordOpen)
		if r.settled {
			term = wordSettled
		}
		for j, off := pos, uint32(r.lo); off < uint32(r.hi); j, off = j+m, off+1 {
			w[j] = term | off
		}
		base += m * int(r.hi-r.lo)
	}
	e.fpWords = w
	return w
}

// addSeq adds v to the relevant-sequence set, kept in descending order
// without duplicates while it is small: store chains run newest-first, so
// most insertions append. From smallSeqSet on it only appends, and
// lineWords sorts once.
func addSeq(seqs []Seq, v Seq) []Seq {
	if len(seqs) >= smallSeqSet {
		return append(seqs, v)
	}
	i := len(seqs)
	for i > 0 && seqs[i-1] < v {
		i--
	}
	if i > 0 && seqs[i-1] == v {
		return seqs
	}
	seqs = append(seqs, v)
	copy(seqs[i+1:], seqs[i:])
	seqs[i] = v
	return seqs
}

// rankOf returns the number of members of the descending set seqs that are
// smaller than v, a member.
func rankOf(seqs []Seq, v Seq) uint32 {
	if len(seqs) <= smallSeqSet {
		for i, s := range seqs {
			if s <= v {
				return uint32(len(seqs) - 1 - i)
			}
		}
		return 0
	}
	i, _ := slices.BinarySearchFunc(seqs, v, func(s, v Seq) int { return cmp.Compare(v, s) })
	return uint32(len(seqs) - 1 - i)
}
