// Package tso simulates the x86-TSO storage system of Figure 1 of the Jaaru
// paper: each thread has a store buffer holding store, clflush, clflushopt
// and sfence operations that have not yet taken effect in the cache, and a
// flush buffer implementing the reordering freedom of clflushopt (Table 1).
//
// The two-phase execution model of §4 is split between this package and the
// model checker: Exec_* (Figure 7) corresponds to Push/Mfence here, and
// Evict_SB / Evict_FB (Figure 8) to EvictOldest/DrainFlushBuffer, which apply
// their effects through the Storage interface implemented by the checker
// (PushEvict is an Exec_* followed at once by its Evict_SB).
package tso

import (
	"fmt"

	"jaaru/internal/obs"
	"jaaru/internal/pmem"
)

// EntryKind identifies the kind of an operation buffered in a store buffer.
type EntryKind int

const (
	// Store is a data store of 1–8 bytes.
	Store EntryKind = iota
	// CLFlush is the strongly ordered cache line flush instruction.
	CLFlush
	// CLFlushOpt is the optimized flush (clflushopt / clwb — the paper
	// treats clwb identically, §2).
	CLFlushOpt
	// SFence is the store fence instruction.
	SFence
)

func (k EntryKind) String() string {
	switch k {
	case Store:
		return "store"
	case CLFlush:
		return "clflush"
	case CLFlushOpt:
		return "clflushopt"
	case SFence:
		return "sfence"
	default:
		return fmt.Sprintf("EntryKind(%d)", int(k))
	}
}

// Entry is one buffered operation.
type Entry struct {
	Kind EntryKind
	Addr pmem.Addr // store: first byte; flushes: any byte of the line
	Size int       // store: 1, 2, 4 or 8; flushes: 0
	Val  uint64    // store: little-endian value
	Seq  pmem.Seq  // clflushopt: σcurr at the moment the instruction executed
	Loc  string    // guest source location (set only when perf detection is on)
	Op   int       // issuing operation index (set only by the forensics recorder)
}

// Probe observes TSO state transitions — entries leaving the store buffer
// and buffered writebacks taking effect — for the bug-forensics witness
// recorder (internal/forensics). It follows the obs.Collector nil-receiver
// discipline: a nil *Probe (the default) makes every hook a single nil
// check, so disabled forensics stays on the same path as disabled
// observability.
type Probe struct {
	// OnEvict fires when an entry leaves the store buffer. s is the sequence
	// at which the entry took effect: for stores and clflushes the σ of the
	// cache effect, for a clflushopt the ordering bound its flush-buffer
	// entry carries, for an sfence the fence's σ (fired before the flush
	// buffer drains, so the writebacks it orders follow it).
	OnEvict func(e Entry, s pmem.Seq)
	// OnWriteback fires after a buffered clflushopt writeback is applied to
	// the cache line, with the issuing operation index op.
	OnWriteback func(line pmem.Addr, s pmem.Seq, op int)
}

func (p *Probe) evict(e Entry, s pmem.Seq) {
	if p == nil || p.OnEvict == nil {
		return
	}
	p.OnEvict(e, s)
}

func (p *Probe) writeback(line pmem.Addr, s pmem.Seq, op int) {
	if p == nil || p.OnWriteback == nil {
		return
	}
	p.OnWriteback(line, s, op)
}

// Covers reports whether a store entry writes byte address a.
func (e Entry) Covers(a pmem.Addr) bool {
	return e.Kind == Store && a >= e.Addr && a < e.Addr+pmem.Addr(e.Size)
}

// ByteAt returns the byte the store entry writes to address a.
func (e Entry) ByteAt(a pmem.Addr) byte {
	return byte(e.Val >> (8 * uint64(a-e.Addr)))
}

// Storage abstracts the cache and persistent-memory state the buffers evict
// into; it is implemented by the model checker. Sequence numbers are drawn
// from a single global counter so that all stores form a total order.
type Storage interface {
	// NextSeq increments and returns the global sequence counter σcurr.
	NextSeq() pmem.Seq
	// CurSeq returns σcurr without incrementing (used to stamp clflushopt
	// entries at execution time, Figure 7 line 6).
	CurSeq() pmem.Seq
	// ApplyStore writes the store's bytes to the cache at sequence s.
	ApplyStore(addr pmem.Addr, size int, val uint64, s pmem.Seq)
	// ApplyCLFlush records that the line containing addr was flushed at
	// sequence s (raises the line's writeback interval lower bound).
	ApplyCLFlush(addr pmem.Addr, s pmem.Seq)
	// ApplyWriteback records a clflushopt writeback with ordering bound s
	// (raises the line's lower bound to at least s).
	ApplyWriteback(addr pmem.Addr, s pmem.Seq)
	// BeforeFlushEffect is invoked immediately before a flush takes effect
	// in persistent storage — the model checker's failure-injection points
	// and performance-issue detection. It may panic to simulate a power
	// failure. loc is the issuing instruction's guest location, when known.
	BeforeFlushEffect(kind EntryKind, addr pmem.Addr, loc string)
	// SFenceEffect is invoked when an sfence takes effect, with the number
	// of clflushopt writebacks it is about to order (performance-issue
	// detection: zero means the fence ordered nothing).
	SFenceEffect(pendingWritebacks int, loc string)
}

// ThreadState is the per-thread buffering state: the store buffer Sτ, the
// flush buffer Fτ, the timestamp tτ of the most recent sfence, and the
// timestamps tτ,cl of the most recent store or clflush per cache line.
type ThreadState struct {
	// sb is the store buffer: live entries are sb[sbHead:]. Eviction
	// advances sbHead instead of reslicing the front away, so the backing
	// array (and its capacity) survives for the next pushes; Push compacts
	// or rewinds the dead prefix before growing.
	sb       []Entry
	sbHead   int
	fb       []fbEntry
	tSfence  pmem.Seq
	tLine    lineTable
	capacity int // drain threshold; 0 means unbounded

	// col is the checker's observability shard (nil when disabled: every
	// hook below is then a nil check).
	col *obs.Collector
	// probe is the forensics transition probe (nil outside witness replays).
	probe *Probe
}

type fbEntry struct {
	line pmem.Addr
	seq  pmem.Seq
	loc  string
	op   int // issuing operation index (forensics recorder only)
}

// NewThreadState returns an empty thread state. capacity bounds the store
// buffer: pushing beyond it evicts the oldest entry first (real store
// buffers are finite); 0 means unbounded.
func NewThreadState(capacity int) *ThreadState {
	return &ThreadState{capacity: capacity}
}

// SetObserver attaches the checker's metrics shard; the default (nil)
// keeps the zero-overhead path. Buffer occupancy high-water marks and
// eviction/writeback counts are recorded against it.
func (t *ThreadState) SetObserver(col *obs.Collector) { t.col = col }

// SetProbe attaches the forensics transition probe; the default (nil) keeps
// the zero-overhead path.
func (t *ThreadState) SetProbe(p *Probe) { t.probe = p }

// Reset clears all volatile state (used when a failure wipes the machine).
func (t *ThreadState) Reset() {
	t.sb = t.sb[:0]
	t.sbHead = 0
	t.fb = t.fb[:0]
	t.tSfence = 0
	t.tLine.reset()
}

// SBLen reports the number of buffered store-buffer entries.
func (t *ThreadState) SBLen() int { return len(t.sb) - t.sbHead }

// FBLen reports the number of buffered flush-buffer entries.
func (t *ThreadState) FBLen() int { return len(t.fb) }

// Snapshot is a deep copy of one thread's buffering state, captured by
// CaptureInto and reapplied by RestoreFrom. The checker's choice-point
// snapshot stack stores one per guest thread; the backing slices are reused
// across captures so a warmed capture/restore cycle allocates nothing.
type Snapshot struct {
	sb      []Entry
	fb      []fbEntry
	tSfence pmem.Seq
	// tLine holds the line table's occupied cells, in table order.
	tLine []lineCell
}

// CaptureInto records t's complete buffering state into s, reusing s's
// backing storage.
func (t *ThreadState) CaptureInto(s *Snapshot) {
	s.sb = append(s.sb[:0], t.sb[t.sbHead:]...)
	s.fb = append(s.fb[:0], t.fb...)
	s.tSfence = t.tSfence
	s.tLine = s.tLine[:0]
	for _, c := range t.tLine.cells {
		if c.seq != 0 {
			s.tLine = append(s.tLine, c)
		}
	}
}

// RestoreFrom rewinds t to exactly the state s captured.
func (t *ThreadState) RestoreFrom(s *Snapshot) {
	t.sb = append(t.sb[:0], s.sb...)
	t.sbHead = 0
	t.fb = append(t.fb[:0], s.fb...)
	t.tSfence = s.tSfence
	t.tLine.reset()
	for _, c := range s.tLine {
		t.tLine.set(c.line, c.seq)
	}
}

// Push inserts an operation into the store buffer (Figure 7: Exec_Store,
// Exec_CLFLUSH, Exec_CLFLUSHOPT, Exec_SFENCE). For clflushopt the entry is
// stamped with σcurr at execution time. If the buffer is at capacity the
// oldest entry is evicted into st first.
func (t *ThreadState) Push(st Storage, e Entry) {
	if e.Kind == CLFlushOpt {
		e.Seq = st.CurSeq()
	}
	if t.capacity > 0 {
		for t.SBLen() >= t.capacity {
			t.EvictOldest(st)
		}
	}
	if t.sbHead > 0 {
		if t.sbHead == len(t.sb) {
			t.sb = t.sb[:0]
			t.sbHead = 0
		} else if len(t.sb) == cap(t.sb) {
			// Shift the live window to the front instead of growing the
			// backing array past the steady-state occupancy.
			n := copy(t.sb, t.sb[t.sbHead:])
			t.sb = t.sb[:n]
			t.sbHead = 0
		}
	}
	t.sb = append(t.sb, e)
	t.col.NotePeak(obs.PeakSB, int64(t.SBLen()))
}

// Lookup implements store-buffer bypassing: it scans the buffer from newest
// to oldest for a store covering byte address a and returns its byte.
func (t *ThreadState) Lookup(a pmem.Addr) (byte, bool) {
	for i := len(t.sb) - 1; i >= t.sbHead; i-- {
		if t.sb[i].Covers(a) {
			return t.sb[i].ByteAt(a), true
		}
	}
	return 0, false
}

// Overlaps reports whether any buffered store writes a byte of [a, a+size):
// the per-operation form of Lookup, one scan for the whole access.
func (t *ThreadState) Overlaps(a pmem.Addr, size int) bool {
	for i := len(t.sb) - 1; i >= t.sbHead; i-- {
		if e := &t.sb[i]; e.Kind == Store && a < e.Addr+pmem.Addr(e.Size) && e.Addr < a+pmem.Addr(size) {
			return true
		}
	}
	return false
}

// EvictOldest removes the oldest store-buffer entry and applies its effect.
// It reports the evicted entry.
func (t *ThreadState) EvictOldest(st Storage) Entry {
	e := t.sb[t.sbHead]
	t.sb[t.sbHead] = Entry{} // release the Loc string
	t.sbHead++
	t.evict(st, &e)
	return e
}

// PushEvict executes *e on an empty store buffer and evicts it at once: the
// effects, counters and probe calls of Push then EvictOldest without the
// entry's round trip through the buffer — how a policy that drains after every
// operation issues one. The entry comes by pointer (this is the per-operation
// path and an Entry does not fit the argument registers); a clflushopt's Seq
// is stamped in place.
func (t *ThreadState) PushEvict(st Storage, e *Entry) {
	if t.SBLen() != 0 {
		panic("tso: PushEvict on a non-empty store buffer")
	}
	if e.Kind == CLFlushOpt {
		e.Seq = st.CurSeq()
	}
	t.col.NotePeak(obs.PeakSB, 1)
	t.evict(st, e)
}

// evict applies the effect of an entry leaving the store buffer (Figure 8,
// the four Evict_SB cases).
func (t *ThreadState) evict(st Storage, e *Entry) {
	t.col.Inc(obs.SBEvictions)
	switch e.Kind {
	case Store:
		s := st.NextSeq()
		st.ApplyStore(e.Addr, e.Size, e.Val, s)
		t.tLine.set(e.Addr.Line(), s)
		t.probe.evict(*e, s)
	case CLFlush:
		st.BeforeFlushEffect(CLFlush, e.Addr, e.Loc)
		s := st.NextSeq()
		st.ApplyCLFlush(e.Addr, s)
		t.tLine.set(e.Addr.Line(), s)
		t.probe.evict(*e, s)
	case CLFlushOpt:
		// Reordering with earlier operations: the writeback is ordered
		// after the max of (σ at execution, last store/clflush to the same
		// line by this thread, last sfence by this thread).
		s := e.Seq
		if ls := t.tLine.get(e.Addr.Line()); ls > s {
			s = ls
		}
		if t.tSfence > s {
			s = t.tSfence
		}
		t.fb = append(t.fb, fbEntry{line: e.Addr.Line(), seq: s, loc: e.Loc, op: e.Op})
		t.col.NotePeak(obs.PeakFB, int64(len(t.fb)))
		t.probe.evict(*e, s)
	case SFence:
		st.SFenceEffect(len(t.fb), e.Loc)
		s := st.NextSeq()
		t.probe.evict(*e, s)
		t.DrainFlushBuffer(st)
		t.tSfence = s
	}
}

// DrainSB evicts every store-buffer entry in order.
func (t *ThreadState) DrainSB(st Storage) {
	for t.SBLen() > 0 {
		t.EvictOldest(st)
	}
}

// DrainFlushBuffer applies every pending clflushopt writeback (Figure 8,
// Evict_FB), as happens when an sfence, mfence or locked RMW instruction
// takes effect.
func (t *ThreadState) DrainFlushBuffer(st Storage) {
	for _, fe := range t.fb {
		st.BeforeFlushEffect(CLFlushOpt, fe.line, fe.loc)
		st.ApplyWriteback(fe.line, fe.seq)
		// Counted after the effect: BeforeFlushEffect may panic to inject
		// a failure, and a writeback cut off by the crash never applied.
		t.col.Inc(obs.FBWritebacks)
		t.probe.writeback(fe.line, fe.seq, fe.op)
	}
	t.fb = t.fb[:0]
}

// Mfence implements Exec_MFENCE (Figure 7): evict all store-buffer entries,
// then flush the flush buffer. Locked RMW instructions use the same
// semantics.
func (t *ThreadState) Mfence(st Storage) {
	t.DrainSB(st)
	t.DrainFlushBuffer(st)
}
