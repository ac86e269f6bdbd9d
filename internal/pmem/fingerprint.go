package pmem

import "slices"

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
// Each touched line is hashed independently (FNV-1a over a canonical byte
// stream: absolute line address, bound ranks, bytes in address order,
// candidates newest-first) and the per-line hashes are combined by XOR —
// commutative, so the result does not depend on the order pages were first
// touched in or on the choice prefix that produced the state. The
// line hashes are cached in the line records and invalidated on every
// store append, interval mutation, and journal rewind, making a fingerprint
// O(lines changed since the last fingerprint) instead of O(lines touched):
// consecutive failure points differ in a handful of lines, and a snapshot
// restore rewinds only its delta, so almost all line hashes survive from
// scenario to scenario.

const (
	fnvOffset64 = 0xcbf29ce484222325
	fnvPrime64  = 0x100000001b3
)

// FingerprintSeed is the canonical initial hash state.
const FingerprintSeed = uint64(fnvOffset64)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

func fnvU64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(v>>(8*uint(i))))
	}
	return h
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
	h = fnvU64(h, uint64(e.ID)+1)
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
	h = fnvU64(h, lines)
	return fnvU64(h, acc)
}

// lineFingerprint computes one line's self-contained canonical hash. It
// depends only on the line's own stores and interval (ranks never compare
// sequences across lines), so the result is cacheable until either mutates.
func (e *Execution) lineFingerprint(pg *page, line Addr, lr *lineRec) uint64 {
	begin, end := Seq(0), SeqInf
	if lr.known {
		begin, end = lr.iv.Begin, lr.iv.End
	}
	// Pass 1: collect the line's relevant sequences — the interval
	// bounds plus every reachable store — and rank them.
	seqs := append(e.fpSeqs[:0], begin, end)
	for off := Addr(0); off < CacheLineSize; off++ {
		a := line + off
		for i := pg.slots[a&pageMask].tail; i != 0; {
			nd := &e.arena[i-1]
			i = nd.prev
			if nd.seq >= end {
				continue
			}
			seqs = append(seqs, nd.seq)
			if nd.seq <= begin {
				break // settled: older stores are unreachable
			}
		}
	}
	slices.Sort(seqs)
	seqs = slices.Compact(seqs)
	e.fpSeqs = seqs
	rank := func(v Seq) uint64 {
		i, _ := slices.BinarySearch(seqs, v)
		return uint64(i)
	}
	// Pass 2: hash the line — absolute address, bound ranks, then each
	// byte's reachable candidates newest-first as (value, rank) pairs
	// with a settled/open terminator.
	h := uint64(fnvOffset64)
	h = fnvU64(h, uint64(line))
	h = fnvU64(h, rank(begin))
	h = fnvU64(h, rank(end))
	for off := Addr(0); off < CacheLineSize; off++ {
		a := line + off
		tail := pg.slots[a&pageMask].tail
		if tail == 0 {
			continue
		}
		h = fnvU64(h, uint64(off)+1)
		settled := false
		for i := tail; i != 0; {
			nd := &e.arena[i-1]
			i = nd.prev
			if nd.seq >= end {
				continue
			}
			h = fnvByte(h, nd.byteAt(a))
			h = fnvU64(h, rank(nd.seq))
			if nd.seq <= begin {
				settled = true
				break
			}
		}
		if settled {
			h = fnvByte(h, 1)
		} else {
			h = fnvByte(h, 0)
		}
	}
	return h
}
