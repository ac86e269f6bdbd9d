package pmem

// Stack is the sequence of executions comprising one failure scenario
// (the paper's exec). Execution 0 is the pre-failure execution; each
// injected failure pushes a fresh execution.
type Stack struct {
	execs []*Execution

	// pool supplies executions (and their pages) for Push and receives them
	// back on Recycle; see page.go.
	pool *Pool

	// journaling, when set, records undo information for every interval
	// mutation so the stack can be rewound to a captured Mark — the
	// substrate of the snapshot engine (see journal.go). Store appends need
	// no extra log: the per-execution arena is the append log.
	journaling bool
	ivlog      []ivUndo

	// rewindScratch is the reused buffer Rewind collects surviving refined
	// lines into before recounting their dirty stores.
	rewindScratch []ivUndo

	// refEpoch versions the inputs of the DoRead refinement walk: it is
	// bumped by every effective interval mutation, every Push (the walk's
	// execution range changes), and every Rewind. A lineRec memo stamped
	// with the current epoch proves a repeated refinement of the same
	// ⟨addr, seq⟩ would be a no-op. Starts at 1 so zeroed pooled pages
	// (refEpoch 0) never match.
	refEpoch uint64

	// tracer, when non-nil, receives every effective interval mutation with
	// its provenance — the forensics hook behind per-cache-line persistence
	// timelines. Nil (the default) keeps the zero-overhead path.
	tracer func(IntervalEvent)
}

// IntervalEventKind distinguishes the provenance of an interval mutation.
type IntervalEventKind int

const (
	// FlushRaise is a flush effect on the top execution (clflush or a
	// buffered clflushopt writeback) raising the line's lower bound.
	FlushRaise IntervalEventKind = iota
	// RefineRaise / RefineLower are post-failure constraint refinements
	// (Figure 10, UpdateRanges) narrowing a pre-failure line's interval
	// after an observed load.
	RefineRaise
	RefineLower
)

// IntervalEvent describes one effective mutation of a cache line's
// most-recent-writeback interval: which execution's line moved, the sequence
// bound applied, and the interval before and after.
type IntervalEvent struct {
	Kind   IntervalEventKind
	Exec   int
	Line   Addr
	At     Seq
	Before Interval
	After  Interval
}

// SetIntervalTracer installs (or, with nil, removes) the interval-provenance
// hook. Only effective mutations are reported — a flush or refinement that
// does not move a bound is silent, matching the undo journal's notion of an
// effective mutation.
func (s *Stack) SetIntervalTracer(fn func(IntervalEvent)) { s.tracer = fn }

// NewStack returns a stack containing only the pre-failure execution, backed
// by a private pool (tests and standalone use; the checker recycles stacks
// through a shared per-worker pool via Pool.Recycle).
func NewStack() *Stack {
	return NewPool().NewStack()
}

// Top returns the current (most recent) execution.
func (s *Stack) Top() *Execution { return s.execs[len(s.execs)-1] }

// Prev returns the execution immediately preceding e, or nil if e is the
// oldest execution.
func (s *Stack) Prev(e *Execution) *Execution {
	if e.ID == 0 {
		return nil
	}
	return s.execs[e.ID-1]
}

// Push starts a new execution (a failure occurred) and returns it.
func (s *Stack) Push() *Execution {
	e := s.pool.getExec(len(s.execs))
	s.execs = append(s.execs, e)
	// The refinement walk ranges over execs below the top; a new top
	// extends that range, so prior walk memos no longer cover it.
	s.refEpoch++
	return e
}

// Depth reports how many executions the scenario contains so far.
func (s *Stack) Depth() int { return len(s.execs) }

// At returns the execution with stack index id.
func (s *Stack) At(id int) *Execution { return s.execs[id] }

// Candidate is one store a post-failure load may read from: the execution
// that performed it, and the ⟨val, σ⟩ tuple. Exec == -1 denotes the initial
// contents of the pool (zero) from before the first execution.
type Candidate struct {
	Exec int
	ByteStore
}

// InitialExec is the pseudo execution ID of the pool's initial (zeroed)
// contents.
const InitialExec = -1

// ReadPreFailure computes the set of stores from executions preceding the
// current one that a load of byte address a may read from (Figure 9,
// ReadPreFailure). It walks the stack from the execution below the top
// downward, collecting each execution's candidates, and stops at the first
// execution with a store guaranteed persisted (σ ≤ cl.Begin). If no
// execution settles the search, the pool's initial zero byte is appended as
// a final candidate.
//
// Candidates are ordered newest execution first, and newest store first
// within an execution.
func (s *Stack) ReadPreFailure(a Addr) []Candidate {
	return s.ReadPreFailureInto(a, nil)
}

// ReadPreFailureInto is ReadPreFailure appending into a caller-provided
// buffer (typically a reused scratch slice) to avoid per-load allocation.
func (s *Stack) ReadPreFailureInto(a Addr, out []Candidate) []Candidate {
	for id := s.Top().ID - 1; id >= 0; id-- {
		e := s.execs[id]
		var settled bool
		out, settled = e.appendCandidates(a, out)
		if settled {
			return out
		}
	}
	return append(out, Candidate{Exec: InitialExec, ByteStore: ByteStore{Val: 0, Seq: 0}})
}

// DoRead refines the most-recent-writeback intervals of previous executions
// after the model checker selects candidate c for a load of byte address a
// (Figure 10, DoRead / UpdateRanges). If the chosen store is from the current
// execution there is nothing to refine.
//
// skipped reports that the whole refinement walk was proven redundant by the
// epoch memo and elided: a previous DoRead chose the same ⟨addr, seq⟩ of the
// same execution, and since then no interval moved, no execution was pushed,
// and no rewind happened (refEpoch unchanged) — so every execution the walk
// would visit is frozen below the top and the idempotent refinement would
// move nothing. Update-heavy recovery code re-reading the same recovered
// word makes this the common case.
func (s *Stack) DoRead(a Addr, c Candidate) (skipped bool) {
	top := s.Top()
	if c.Exec == top.ID {
		return false
	}
	// The memo lives on the chosen execution's slot for byte a (InitialExec
	// candidates memoize on execution 0; their Seq 0 cannot collide with a
	// real exec-0 store, whose Seq is >= 1).
	memoExec := c.Exec
	if memoExec < 0 {
		memoExec = 0
	}
	pg := s.execs[memoExec].ensurePage(a)
	sl := &pg.slots[a&pageMask]
	if sl.refEpoch == s.refEpoch && sl.refSeq == c.Seq {
		// Second read of the byte in this epoch: publish it to the pinned
		// summary so whole loads stop coming here (see Load). Not done on the
		// first read — recoveries that flush bump the epoch per FlushLine and
		// would pay for summaries they never get to use.
		if top.ID > 0 {
			if memoExec != top.ID-1 {
				pg = s.execs[top.ID-1].ensurePage(a)
			}
			lr := &pg.lines[lineIndex(a)]
			if lr.pinEpoch != s.refEpoch {
				lr.pinEpoch, lr.pinMask = s.refEpoch, 0
			}
			lr.pinMask |= 1 << a.LineOffset()
			lr.pinVal[a.LineOffset()] = c.Val
		}
		return true
	}
	s.updateRanges(top.ID-1, a, c)
	// Stamp with the post-walk epoch: the walk's own effective mutations
	// bumped it, and repeating the walk now would be ineffective.
	sl.refSeq, sl.refEpoch = c.Seq, s.refEpoch
	return false
}

// LoadSource says how Load answered a whole load.
type LoadSource uint8

const (
	// LoadDeclined: not decidable per operation; resolve it byte by byte.
	LoadDeclined LoadSource = iota
	// LoadCached: every byte has a store in the top execution.
	LoadCached
	// LoadPinned: no byte has a store in the top execution and every byte is
	// in the pinned summary — one candidate each, refinement a memoized no-op.
	LoadPinned
)

// Load resolves a load of the size (<= 8) bytes at a per operation where the
// per-byte path (Top().Newest, else ReadPreFailureInto + DoRead) could only
// ever reproduce a known answer, and declines everything else: accesses that
// cross a line, mix top-execution and pre-failure bytes, or read a byte that
// is unpinned. The pinned summary is sound because after DoRead chose
// ⟨a, σ⟩ the refined intervals admit exactly that one candidate for byte a
// (the chosen execution's line has σ <= Begin and End <= the next store to a;
// every execution above it has End <= its first store to a) until an interval
// moves, an execution is pushed, or a rewind happens — and each of those
// bumps refEpoch. Stores appended to the top execution do not, which is why
// the top execution's slots are consulted first on every call.
func (s *Stack) Load(a Addr, size int) (v uint64, src LoadSource) {
	off := a.LineOffset()
	if off+uint64(size) > CacheLineSize {
		return 0, LoadDeclined
	}
	top := s.Top()
	if pg := top.pageFor(a); pg != nil && pg.lines[lineIndex(a)].tail != 0 {
		sls := pg.slots[a&pageMask:][:size]
		if t := sls[0].tail; !sameTail(sls) {
			// Different stores: all from this execution, or the load is mixed.
			for i := range sls {
				if sls[i].tail == 0 {
					return 0, LoadDeclined
				}
				v |= uint64(top.arena[sls[i].tail-1].byteAt(a+Addr(i))) << (8 * uint(i))
			}
			return v, LoadCached
		} else if t != 0 {
			// One store covers the whole access: its word, shifted and masked.
			nd := &top.arena[t-1]
			return nd.val >> (8 * uint(a-nd.addr)) & (1<<(8*uint(size)) - 1), LoadCached
		}
	}
	if top.ID == 0 {
		return 0, LoadDeclined
	}
	pg := s.execs[top.ID-1].pageFor(a)
	if pg == nil {
		return 0, LoadDeclined
	}
	lr := &pg.lines[lineIndex(a)]
	mask := (uint64(1)<<uint(size) - 1) << off
	if lr.pinEpoch != s.refEpoch || lr.pinMask&mask != mask {
		return 0, LoadDeclined
	}
	for i := 0; i < size; i++ {
		v |= uint64(lr.pinVal[off+uint64(i)]) << (8 * uint(i))
	}
	return v, LoadPinned
}

// updateRanges walks the executions from execID down to the chosen one
// (Figure 10, UpdateRanges — the paper's recursion expressed as a loop).
func (s *Stack) updateRanges(execID int, a Addr, c Candidate) {
	for ; execID >= 0; execID-- {
		ec := s.execs[execID]
		if c.Exec != execID {
			// The load read from an earlier execution, so execution ec cannot
			// have written this line back after its first store to a (otherwise
			// the load would have observed ec's value or a later one).
			if first, ok := ec.First(a); ok {
				s.lowerEnd(RefineLower, ec, a, first.Seq)
			}
			continue
		}
		// The load read store ⟨val, σ⟩ of execution ec: the line was written
		// back at or after σ and before the next store to a.
		s.raiseBegin(RefineRaise, ec, a, c.Seq)
		s.lowerEnd(RefineLower, ec, a, ec.nextSeqAfter(a, c.Seq))
		return
	}
}
