package pmem

import (
	"fmt"
	"slices"
)

// The byte-wise FNV-1a line encoding lineFingerprint replaced, kept verbatim
// (renamed) as the reference of TestLineFingerprintMatchesReference and
// FuzzLineFingerprint: both hash the same canonical stream, so two line
// states must fingerprint equal under one exactly when they do under the
// other.

const (
	fnvOffset64 = 0xcbf29ce484222325
	fnvPrime64  = 0x100000001b3
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

func fnvU64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(v>>(8*uint(i))))
	}
	return h
}

// refLineFingerprint computes one line's self-contained canonical hash. It
// depends only on the line's own stores and interval (ranks never compare
// sequences across lines), so the result is cacheable until either mutates.
func (e *Execution) refLineFingerprint(pg *page, line Addr, lr *lineRec) uint64 {
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

// fpStream is the canonical stream both encodings hash, as values: the line,
// the bound ranks, and per byte with stores its reachable candidates
// newest-first and whether the last of them is settled.
type fpStream struct {
	line       Addr
	begin, end uint64
	bytes      []fpByte
}

type fpByte struct {
	off     uint64
	cands   [][2]uint64 // (value, rank)
	settled bool
}

// refLineStream walks the line as refLineFingerprint does and records the
// stream instead of hashing it.
func (e *Execution) refLineStream(pg *page, line Addr, lr *lineRec) fpStream {
	begin, end := Seq(0), SeqInf
	if lr.known {
		begin, end = lr.iv.Begin, lr.iv.End
	}
	e.refLineFingerprint(pg, line, lr) // leaves the ranked set in fpSeqs
	seqs := slices.Clone(e.fpSeqs)
	rank := func(v Seq) uint64 {
		i, _ := slices.BinarySearch(seqs, v)
		return uint64(i)
	}
	st := fpStream{line: line, begin: rank(begin), end: rank(end)}
	for off := Addr(0); off < CacheLineSize; off++ {
		a := line + off
		tail := pg.slots[a&pageMask].tail
		if tail == 0 {
			continue
		}
		b := fpByte{off: uint64(off)}
		for i := tail; i != 0; {
			nd := &e.arena[i-1]
			i = nd.prev
			if nd.seq >= end {
				continue
			}
			b.cands = append(b.cands, [2]uint64{uint64(nd.byteAt(a)), rank(nd.seq)})
			if nd.seq <= begin {
				b.settled = true
				break
			}
		}
		st.bytes = append(st.bytes, b)
	}
	return st
}

// decodeLineWords parses lineWords' output back into the stream it encodes.
func decodeLineWords(w []uint32) (fpStream, error) {
	if len(w) < 4 {
		return fpStream{}, fmt.Errorf("%d words, want a 4-word header", len(w))
	}
	st := fpStream{line: Addr(uint64(w[0]) | uint64(w[1])<<32), begin: uint64(w[2]), end: uint64(w[3])}
	var cur *fpByte
	for i := 4; i < len(w); i++ {
		off := uint64(w[i] & (CacheLineSize - 1))
		if cur == nil {
			st.bytes = append(st.bytes, fpByte{off: off})
			cur = &st.bytes[len(st.bytes)-1]
		} else if cur.off != off {
			return st, fmt.Errorf("word %d: offset %d inside byte %d", i, off, cur.off)
		}
		switch w[i] & (3 << 14) {
		case wordCand:
			val, rank := w[i]>>6&0xFF, w[i]>>rankShift
			if rank == rankEsc {
				if i++; i == len(w) {
					return st, fmt.Errorf("escaped rank missing at the end")
				}
				rank = w[i]
			}
			cur.cands = append(cur.cands, [2]uint64{uint64(val), uint64(rank)})
		case wordOpen, wordSettled:
			cur.settled = w[i]&(3<<14) == wordSettled
			cur = nil
		default:
			return st, fmt.Errorf("word %d: %#x has no kind", i, w[i])
		}
	}
	if cur != nil {
		return st, fmt.Errorf("byte %d has no terminator", cur.off)
	}
	return st, nil
}
