package pmem

import "encoding/binary"

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
// (Figure 10, DoRead / UpdateRanges), and pins the byte: c is now its only
// candidate. If the chosen store is from the current execution, or the current
// execution is the pre-failure one (nothing below it: c is the pool's initial
// zero), there is nothing to refine and no page is touched.
//
// The pinned summary (lineRec.pinMask/pinVal of the execution below the top)
// rests on three facts:
//
//  1. After DoRead chose ⟨a, σ⟩ the refined intervals admit exactly that one
//     candidate for byte a (docs/ALGORITHM.md § Figure 10 derives it from the
//     walk's postconditions). Conversely a byte that already has one candidate
//     refines to a no-op — the postconditions hold before the walk — so
//     pinning it journals nothing, skipping the walk for a pinned byte
//     (skipped) loses nothing, and the pin stays true under any later
//     narrowing.
//  2. A choice among two or more candidates moves at least one interval of the
//     line (the candidate set is a function of the stores and intervals, and
//     it shrank), and every move is journaled: the Rewind that ends the
//     scenario or restores a choice point undoes it and so retires every pin
//     taken under it (lineMoved). Without a journal nothing is ever rewound;
//     the scenario ends in Recycle, which zeroes the pages.
//  3. Stores land only in the top execution, so the stores below it cannot
//     change while a pin describes them; once an execution is the top again
//     its own stores retire its pins line by line (lineRec.changed), and Load
//     consults the top execution's own slots before any pin.
func (s *Stack) DoRead(a Addr, c Candidate) (skipped bool) {
	top := s.Top()
	if c.Exec == top.ID || top.ID == 0 {
		return false
	}
	lr := &s.execs[top.ID-1].ensurePage(a).lines[lineIndex(a)]
	off := a.LineOffset()
	bit := uint64(1) << off
	if lr.pinMask&bit != 0 {
		return true
	}
	s.updateRanges(top.ID-1, a, c)
	// After the walk: its own effective mutations retired the line's pins.
	lr.pinMask |= bit
	lr.pinVal[off] = c.Val
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
	// in the pinned summary — one candidate each, refinement a no-op.
	LoadPinned
)

// Load resolves a load of the size (<= 8) bytes at a per operation where the
// per-byte path (Top().Newest, else ReadPreFailureInto + DoRead) could only
// ever reproduce a known answer, and declines everything else: accesses that
// cross a line, mix top-execution and pre-failure bytes, or read a byte that
// is unpinned (see DoRead for why a pinned byte's answer is known).
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
			return nd.val >> (8 * uint(a-nd.addr)) & wordMask(size), LoadCached
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
	if lr.pinMask&mask != mask {
		return 0, LoadDeclined
	}
	if off+8 <= CacheLineSize {
		return binary.LittleEndian.Uint64(lr.pinVal[off:]) & wordMask(size), LoadPinned
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
