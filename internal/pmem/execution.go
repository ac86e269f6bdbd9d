package pmem

import "slices"

// ByteStore is one entry of a per-byte store queue: the value written to the
// cache at sequence number Seq. A multi-byte store appears in the queue of
// every byte it covers under one sequence number ("mixed size accesses", §4).
type ByteStore struct {
	Val byte
	Seq Seq
}

// Execution records everything one execution of a failure scenario wrote to
// the cache: per-byte store queues in cache order, and per-cache-line
// intervals bounding the most recent writeback to persistent memory — both
// held in the paged, arena-backed layout of page.go.
//
// Execution 0 is the pre-failure execution; each injected failure pushes a
// fresh execution onto the scenario's Stack.
type Execution struct {
	// ID is the index of this execution in its Stack.
	ID int

	// pages is the dense page index: pages[id-pageBase] holds the headers of
	// page id (addr >> pageShift), nil while untouched, from the lowest to
	// the highest id touched (entries past len are nil); touched lists the
	// ids present in first-touch order, so iteration and release cost what
	// was touched, not the span. lastID / lastPage cache the last page hit,
	// and missID (page id + 1, 0 = none) the last id the index did not hold:
	// post-failure loads probe the top execution first and mostly miss there.
	pages    []*page
	pageBase Addr
	touched  []Addr
	lastID   Addr
	lastPage *page
	missID   Addr

	// arena holds every store appended during this execution, in append
	// (= sequence) order. Page headers chain into it with 1-based indices.
	arena []node

	// EvictedStores counts store entries that took effect in the cache
	// during this execution (used for failure-point eligibility and for
	// the Yat state-count accounting).
	EvictedStores int

	// fpSeqs is the per-line relevant-sequence scratch buffer of
	// lineFingerprint, reused across calls.
	fpSeqs []Seq

	pool *Pool
}

// NewExecution returns an empty execution record with the given stack index,
// backed by a private pool (tests and standalone use; checker executions are
// drawn from a shared pool via Stack).
func NewExecution(id int) *Execution {
	return NewPool().getExec(id)
}

// pageFor returns the page covering a, or nil if no byte of it was touched.
func (e *Execution) pageFor(a Addr) *page {
	id := a >> pageShift
	if e.lastPage != nil && e.lastID == id {
		return e.lastPage
	}
	if e.missID == id+1 {
		return nil
	}
	// id below pageBase wraps to a huge index and misses like one above the span.
	if i := id - e.pageBase; i < Addr(len(e.pages)) && e.pages[i] != nil {
		e.lastID, e.lastPage = id, e.pages[i]
		return e.lastPage
	}
	e.missID = id + 1
	return nil
}

// ensurePage returns the page covering a, creating it from the pool on first
// touch.
func (e *Execution) ensurePage(a Addr) *page {
	id := a >> pageShift
	if e.lastPage != nil && e.lastID == id {
		return e.lastPage
	}
	i := id - e.pageBase
	if i >= Addr(len(e.pages)) {
		i = e.growIndex(id)
	}
	pg := e.pages[i]
	if pg == nil {
		pg = e.pool.getPage()
		e.pages[i] = pg
		e.touched = append(e.touched, id)
		e.missID = 0
	}
	e.lastID, e.lastPage = id, pg
	return pg
}

// growIndex extends the page index to span id and returns id's position in
// it: the first page sets the base, a higher id lengthens the index, and a
// lower one re-bases it by sliding the present entries up.
func (e *Execution) growIndex(id Addr) Addr {
	n := len(e.pages)
	if n == 0 {
		e.pageBase = id
	}
	if id < e.pageBase {
		shift := int(e.pageBase - id)
		e.pages = slices.Grow(e.pages, shift)[:n+shift]
		copy(e.pages[shift:], e.pages[:n])
		clear(e.pages[:min(shift, n)])
		e.pageBase = id
	} else {
		e.pages = slices.Grow(e.pages, int(id-e.pageBase)+1-n)[:id-e.pageBase+1]
	}
	return id - e.pageBase
}

// peekLine returns the line record for the line containing a without
// materializing anything, or nil if the page is untouched. A record with
// known == false must be read as the vacuous interval [0, ∞).
func (e *Execution) peekLine(a Addr) *lineRec {
	pg := e.pageFor(a)
	if pg == nil {
		return nil
	}
	return &pg.lines[lineIndex(a)]
}

// ensureLine returns the line record for the line containing a, materializing
// the unconstrained interval [0, ∞) on first use.
func (e *Execution) ensureLine(a Addr) *lineRec {
	pg := e.ensurePage(a)
	lr := &pg.lines[lineIndex(a)]
	if !lr.known {
		lr.known = true
		lr.iv = Interval{Begin: 0, End: SeqInf}
	}
	return lr
}

// Append records that value v was written to byte address a at sequence s.
// Sequence numbers must be appended in increasing order.
func (e *Execution) Append(a Addr, v byte, s Seq) {
	pg := e.ensurePage(a)
	e.link(pg, pg.slots[a&pageMask:][:1], a, uint64(v), s)
}

// link appends one arena node for a store covering the slots sls (all with
// the same tail) and chains it into their headers and the line's.
func (e *Execution) link(pg *page, sls []slot, a Addr, val uint64, s Seq) {
	lr := &pg.lines[lineIndex(a)]
	prev := sls[0].tail
	// Filled in place: a literal is built on the stack with narrow stores and
	// copied in with wide loads, which stalls on store forwarding.
	e.arena = append(e.arena, node{})
	idx := int32(len(e.arena))
	nd := &e.arena[idx-1]
	nd.seq, nd.addr, nd.val, nd.size = s, a, val, uint8(len(sls))
	nd.prev, nd.linePrev = prev, lr.tail
	for i := range sls {
		sls[i].tail = idx
		if prev == 0 {
			sls[i].head = idx
		}
	}
	lr.tail = idx
	lr.changed()
	// Sequence numbers only grow, so a fresh store is always past the line's
	// lower writeback bound.
	lr.dirty += int32(len(sls))
}

// wordMask covers the low size (<= 8) bytes of a word; a shift by 64 yields 0,
// so it keeps all of an 8-byte value.
func wordMask(size int) uint64 { return 1<<(8*uint(size)) - 1 }

// sameTail reports whether all of sls have the same newest store (or none).
func sameTail(sls []slot) bool {
	for i := 1; i < len(sls); i++ {
		if sls[i].tail != sls[0].tail {
			return false
		}
	}
	return true
}

// AppendWord records a size-byte little-endian store of val at a, all bytes
// sharing sequence s ("mixed size accesses", §4): one arena node when the
// store stays inside a cache line and every byte it covers has the same
// previous store (fresh bytes, or bytes last written together), so that the
// node's single prev is exact for each; else one Append per byte, in order.
func (e *Execution) AppendWord(a Addr, size int, val uint64, s Seq) {
	if a.LineOffset()+uint64(size) <= CacheLineSize {
		pg := e.ensurePage(a)
		sls := pg.slots[a&pageMask:][:size]
		if sameTail(sls) {
			e.link(pg, sls, a, val&wordMask(size), s)
			return
		}
	}
	for i := 0; i < size; i++ {
		e.Append(a+Addr(i), byte(val>>(8*uint(i))), s)
	}
}

// truncateArena pops appends beyond the first n, newest-first, unlinking each
// from the headers of every byte it covers and restoring the per-line dirty
// and EvictedStores accounting (both count bytes): a journal Rewind's undo path.
func (e *Execution) truncateArena(n int) {
	for i := len(e.arena); i > n; i-- {
		nd := &e.arena[i-1]
		pg := e.pageFor(nd.addr)
		sls := pg.slots[nd.addr&pageMask:][:nd.size]
		for j := range sls {
			sls[j].tail = nd.prev
			if nd.prev == 0 {
				sls[j].head = 0
			}
		}
		lr := &pg.lines[lineIndex(nd.addr)]
		lr.tail = nd.linePrev
		lr.changed()
		if nd.seq > lr.iv.Begin {
			lr.dirty -= int32(nd.size)
		}
		e.EvictedStores -= int(nd.size)
	}
	e.arena = e.arena[:n]
}

// recountDirty recomputes a line's dirty-store count (in bytes) after its
// lower writeback bound moved: the line chain is in append order, so the walk
// stops at the first store at or before the bound. Cost is proportional to
// the stores still past the bound.
func (e *Execution) recountDirty(lr *lineRec) {
	n := int32(0)
	for i := lr.tail; i != 0; {
		nd := &e.arena[i-1]
		if nd.seq <= lr.iv.Begin {
			break
		}
		n += int32(nd.size)
		i = nd.linePrev
	}
	lr.dirty = n
}

// Queue returns the store queue for byte address a, oldest first. It
// materializes a fresh slice — cold-path use only (snapshots, tests); the
// hot path walks the arena chains directly.
func (e *Execution) Queue(a Addr) []ByteStore {
	pg := e.pageFor(a)
	if pg == nil {
		return nil
	}
	n := 0
	for i := pg.slots[a&pageMask].tail; i != 0; i = e.arena[i-1].prev {
		n++
	}
	if n == 0 {
		return nil
	}
	out := make([]ByteStore, n)
	for i := pg.slots[a&pageMask].tail; i != 0; {
		nd := &e.arena[i-1]
		n--
		out[n] = ByteStore{Val: nd.byteAt(a), Seq: nd.seq}
		i = nd.prev
	}
	return out
}

// Newest returns the most recent store to byte address a in this execution.
func (e *Execution) Newest(a Addr) (ByteStore, bool) {
	pg := e.pageFor(a)
	if pg == nil {
		return ByteStore{}, false
	}
	i := pg.slots[a&pageMask].tail
	if i == 0 {
		return ByteStore{}, false
	}
	nd := &e.arena[i-1]
	return ByteStore{Val: nd.byteAt(a), Seq: nd.seq}, true
}

// First returns the oldest store to byte address a in this execution.
func (e *Execution) First(a Addr) (ByteStore, bool) {
	pg := e.pageFor(a)
	if pg == nil {
		return ByteStore{}, false
	}
	i := pg.slots[a&pageMask].head
	if i == 0 {
		return ByteStore{}, false
	}
	nd := &e.arena[i-1]
	return ByteStore{Val: nd.byteAt(a), Seq: nd.seq}, true
}

// nextSeqAfter returns the sequence of the oldest store to a strictly after
// `after`, or SeqInf if none — the upper refinement bound of DoRead. The
// byte chain is newest-first with strictly decreasing sequences, so the walk
// stops at the first store at or before `after`.
func (e *Execution) nextSeqAfter(a Addr, after Seq) Seq {
	pg := e.pageFor(a)
	if pg == nil {
		return SeqInf
	}
	next := SeqInf
	for i := pg.slots[a&pageMask].tail; i != 0; {
		nd := &e.arena[i-1]
		if nd.seq <= after {
			break
		}
		next = nd.seq
		i = nd.prev
	}
	return next
}

// CacheLine returns the writeback interval for the line containing a,
// creating the unconstrained interval [0, ∞) on first use. This is the
// paper's e.getcacheline(addr). The returned pointer is stable for the
// execution's lifetime; mutate it only through Stack (FlushLine / DoRead)
// or RaiseLineBegin — direct mutation bypasses the dirty-store accounting.
func (e *Execution) CacheLine(a Addr) *Interval {
	return &e.ensureLine(a).iv
}

// RaiseLineBegin raises the line's most-recent-writeback lower bound to at
// least v, keeping the dirty-store accounting consistent. It is the
// unjournaled, untraced form of Stack.FlushLine for direct storage setup
// (eager recovery images, tests).
func (e *Execution) RaiseLineBegin(a Addr, v Seq) {
	lr := e.ensureLine(a)
	if v <= lr.iv.Begin {
		return
	}
	lr.iv.Begin = v
	lr.changed()
	e.recountDirty(lr)
}

// LineKnown reports whether a writeback interval has been materialized for
// the line containing a (i.e. the line was flushed or refined).
func (e *Execution) LineKnown(a Addr) bool {
	lr := e.peekLine(a)
	return lr != nil && lr.known
}

// Candidates computes, for a post-failure load of byte address a, the set of
// stores from this execution the load may read from, following lines 8–13 of
// the ReadPreFailure algorithm (Figure 9):
//
//	set = { ⟨val, σ⟩ | σ < cl.End ∧ (σ ≤ cl.Begin ⇒ no later store σ' ≤ cl.Begin) }
//
// i.e. every store inside the writeback window (cl.Begin, cl.End) plus the
// newest store at or before cl.Begin (which is the value guaranteed persisted
// by the last flush). settled reports whether a store with σ ≤ cl.Begin
// exists; if not, the line's pre-execution contents may have survived and the
// caller must recurse into the previous execution.
//
// Candidates are returned newest-first so that exploration visits the most
// recently written value first (matching the commit-store discussion in §3.2,
// where the first execution explored reads the commit store's value).
//
// It is a thin allocating wrapper over appendCandidates, the one
// candidate-enumeration implementation.
func (e *Execution) Candidates(a Addr) (set []ByteStore, settled bool) {
	tagged, settled := e.appendCandidates(a, nil)
	if len(tagged) == 0 {
		return nil, settled
	}
	set = make([]ByteStore, len(tagged))
	for i, c := range tagged {
		set[i] = c.ByteStore
	}
	return set, settled
}

// appendCandidates is the candidate enumeration of Figure 9 lines 8–13,
// appending tagged entries into a reused buffer (the allocation-free path
// used by the checker's load handling). An unmaterialized line reads as the
// vacuous [0, ∞); enumeration never materializes state.
func (e *Execution) appendCandidates(a Addr, out []Candidate) ([]Candidate, bool) {
	pg := e.pageFor(a)
	if pg == nil {
		return out, false
	}
	begin, end := Seq(0), SeqInf
	if lr := &pg.lines[lineIndex(a)]; lr.known {
		begin, end = lr.iv.Begin, lr.iv.End
	}
	for i := pg.slots[a&pageMask].tail; i != 0; {
		nd := &e.arena[i-1]
		i = nd.prev
		if nd.seq >= end {
			continue
		}
		out = append(out, Candidate{Exec: e.ID, ByteStore: ByteStore{Val: nd.byteAt(a), Seq: nd.seq}})
		if nd.seq <= begin {
			// Newest store at or before Begin: guaranteed persisted;
			// earlier stores (and earlier executions) are unreachable.
			return out, true
		}
	}
	return out, false
}

// ForEachStoreNewest calls fn for every store to byte address a, newest
// first, until fn returns false — iteration without materializing a queue
// slice (the forensics recorder's enumeration form).
func (e *Execution) ForEachStoreNewest(a Addr, fn func(ByteStore) bool) {
	pg := e.pageFor(a)
	if pg == nil {
		return
	}
	for i := pg.slots[a&pageMask].tail; i != 0; {
		nd := &e.arena[i-1]
		i = nd.prev
		if !fn(ByteStore{Val: nd.byteAt(a), Seq: nd.seq}) {
			return
		}
	}
}

// DirtyStores reports how many stores to the line containing a happened after
// the line's current lower writeback bound — the number of distinct
// post-failure states an eager checker such as Yat must consider for this
// line is DirtyStores+1. The count is maintained incrementally on
// append/flush, so this is O(1).
func (e *Execution) DirtyStores(line Addr) int {
	lr := e.peekLine(line)
	if lr == nil {
		return 0
	}
	return int(lr.dirty)
}

// DirtyLines returns, in sorted order, the base addresses of all lines that
// have at least one store after their lower writeback bound.
func (e *Execution) DirtyLines() []Addr {
	return e.linesWhere(func(lr *lineRec) bool { return lr.dirty > 0 })
}

// TouchedLines returns, in sorted order, the base addresses of all lines
// written during this execution.
func (e *Execution) TouchedLines() []Addr {
	return e.linesWhere(func(lr *lineRec) bool { return lr.tail != 0 })
}

// linesWhere walks the page index in page-id order, so its result is sorted.
func (e *Execution) linesWhere(keep func(*lineRec) bool) []Addr {
	var out []Addr
	for i, pg := range e.pages {
		if pg == nil {
			continue
		}
		base := (e.pageBase + Addr(i)) << pageShift
		for li := range pg.lines {
			if keep(&pg.lines[li]) {
				out = append(out, base+Addr(li*CacheLineSize))
			}
		}
	}
	return out
}

// TouchedAddrs returns every byte address written during this execution, in
// sorted order (the page index is in page-id order).
func (e *Execution) TouchedAddrs() []Addr {
	var out []Addr
	for i, pg := range e.pages {
		if pg == nil {
			continue
		}
		base := (e.pageBase + Addr(i)) << pageShift
		for si := range pg.slots {
			if pg.slots[si].tail != 0 {
				out = append(out, base+Addr(si))
			}
		}
	}
	return out
}
