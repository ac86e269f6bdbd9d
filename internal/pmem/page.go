package pmem

// Paged memory layout — the hot-path storage behind Execution.
//
// The paper's evaluation (§5.3) credits Jaaru's speed to doing almost no work
// per simulated operation, so an execution's bookkeeping is three dense pieces
// and no Go map:
//
//   - Pages: the address space is divided into fixed-size pages
//     (addr>>pageShift selects the page, addr&pageMask the slot). A page
//     holds a dense per-byte queue header (slot) for each of its bytes and
//     a per-cache-line interval record (lineRec) for each of its lines. An
//     execution finds them through a dense index spanning the lowest to the
//     highest page id it touched — pool addresses come from a bump allocator,
//     so the span is the image — usually short-circuited by a one-entry cache.
//   - Arena: every store applied during an execution is one node — seq,
//     address, size, up to eight value bytes — of a single per-execution
//     arena slice. Queue headers hold 1-based chain indices into it (0 =
//     empty, so a zeroed page is a valid empty page): slot.tail links
//     newest-first through node.prev, lineRec.tail links the line's stores
//     newest-first through node.linePrev. One prev per node is exact because
//     a store becomes one node only when every byte it covers has the same
//     previous store; any other store (bytes of different history, a word
//     crossing a line) is one size-1 node per byte (AppendWord). The arena
//     doubles as the undo journal's append log — node.addr and node.size
//     locate the headers to unlink on truncation.
//   - Pool: pages, Executions, and Stacks are recycled across the millions
//     of scenario replays a run performs instead of reallocated. Releasing
//     an execution returns only its touched pages (zeroed, so reuse starts
//     from a valid empty state), keeping reset cost proportional to what
//     the execution actually touched.

const (
	pageShift = 8
	// pageSize is the number of byte slots per page (256 bytes = 4 cache
	// lines): small enough that sparse workloads don't pay for empty slots,
	// large enough that a data structure node and its neighbours share one
	// page-cache hit.
	pageSize     = 1 << pageShift
	pageMask     = pageSize - 1
	linesPerPage = pageSize / CacheLineSize
)

// node is one arena entry: one store of size bytes at addr, all sharing seq
// ("mixed size accesses", §4), plus the chain links and the extent that let a
// rewind unlink it from its page headers.
type node struct {
	seq      Seq
	addr     Addr
	val      uint64 // little-endian; bytes at and beyond size are zero
	prev     int32  // previous store to every covered byte (1-based arena index, 0 = none)
	linePrev int32  // previous store to the same cache line
	size     uint8
}

// byteAt returns the byte the store wrote to address a, which it must cover.
func (nd *node) byteAt(a Addr) byte { return byte(nd.val >> (8 * uint(a-nd.addr))) }

// slot is the per-byte queue header: 1-based arena indices of the oldest and
// newest store to the byte (0 = no stores).
type slot struct {
	head, tail int32
}

// lineRec is the per-cache-line record: the most-recent-writeback interval
// (valid once known — the line was flushed or refined), the newest store to
// the line, and the incrementally maintained count of stores past the
// interval's lower bound (see recountDirty).
//
// pinMask/pinVal are the pinned summary Stack.Load answers whole loads from.
// The record of execution j describes what execution j+1 reads from the
// executions 0..j: every byte whose pinMask bit is set has exactly one
// read-from candidate there, of value pinVal[offset], and a DoRead of it moves
// nothing. That is a function of this line's stores and intervals in 0..j
// alone, so the pin is cleared exactly where they change — a store to the line
// or its truncation (this execution, while it is the top: changed), an
// interval of the line moving or being restored in this execution or one
// below (Stack.lineMoved) — and by nothing else: it outlives the execution
// above and the scenario. It is not part of the line's semantic state: it
// never sets known, touches fpOK or dirty, and pooled pages come back zeroed.
type lineRec struct {
	iv    Interval
	known bool
	// fpOK marks fp as the line's valid cached canonical fingerprint (see
	// fingerprint.go); every mutation of the line's stores or interval
	// clears it, and pooled pages come back zeroed.
	fpOK  bool
	dirty int32 // stores to the line with seq > iv.Begin
	tail  int32 // newest store to the line (1-based arena index, 0 = none)
	fp    uint64

	pinMask uint64
	pinVal  [CacheLineSize]byte
}

// changed retires what is cached about the line when its stores or interval
// change: the fingerprint and the pinned summary.
func (lr *lineRec) changed() { lr.fpOK, lr.pinMask = false, 0 }

// page holds the dense headers for pageSize consecutive bytes.
type page struct {
	slots [pageSize]slot
	lines [linesPerPage]lineRec
}

// lineIndex returns the index of a's cache line within its page.
func lineIndex(a Addr) int { return int(a&pageMask) / CacheLineSize }

// Pool recycles the scenario-state a checker would otherwise reallocate per
// execution: pages, Executions, and (via Recycle) whole Stacks. A Pool is
// single-owner — one per checker worker — so it needs no locking.
type Pool struct {
	pages []*page
	execs []*Execution
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// NewStack returns a stack containing only the pre-failure execution, drawing
// its state from the pool.
func (p *Pool) NewStack() *Stack {
	s := &Stack{pool: p}
	s.execs = append(s.execs, p.getExec(0))
	return s
}

// Recycle releases every execution of s back to the pool and returns a stack
// equivalent to a fresh NewStack (journal off, tracer removed), reusing s's
// slices. A nil s yields a new stack, so `s = pool.Recycle(s)` is the
// per-scenario reset idiom.
func (p *Pool) Recycle(s *Stack) *Stack {
	if s == nil {
		return p.NewStack()
	}
	for i := len(s.execs) - 1; i >= 0; i-- {
		p.putExec(s.execs[i])
		s.execs[i] = nil
	}
	s.execs = append(s.execs[:0], p.getExec(0))
	s.ivlog = s.ivlog[:0]
	s.journaling = false
	s.tracer = nil
	return s
}

// getExec returns a reset execution with the given stack index.
func (p *Pool) getExec(id int) *Execution {
	if n := len(p.execs); n > 0 {
		e := p.execs[n-1]
		p.execs[n-1] = nil
		p.execs = p.execs[:n-1]
		e.ID = id
		return e
	}
	return &Execution{ID: id, pool: p}
}

// putExec returns an execution to the pool: its touched pages are zeroed and
// recycled, its arena emptied (capacity retained).
func (p *Pool) putExec(e *Execution) {
	for _, id := range e.touched {
		pg := e.pages[id-e.pageBase]
		e.pages[id-e.pageBase] = nil
		*pg = page{}
		p.pages = append(p.pages, pg)
	}
	e.pages = e.pages[:0]
	e.touched = e.touched[:0]
	e.arena = e.arena[:0]
	e.EvictedStores = 0
	e.lastPage = nil
	e.missID = 0
	p.execs = append(p.execs, e)
}

// getPage returns an empty page.
func (p *Pool) getPage() *page {
	if n := len(p.pages); n > 0 {
		pg := p.pages[n-1]
		p.pages[n-1] = nil
		p.pages = p.pages[:n-1]
		return pg
	}
	return new(page)
}
