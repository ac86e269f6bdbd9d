package core

import (
	"fmt"

	"jaaru/internal/pmem"
)

// TraceOp is one recorded guest operation for bug reports.
type TraceOp struct {
	Thread int
	Kind   string
	Addr   pmem.Addr
	Size   int
	Val    uint64
}

func (o TraceOp) String() string {
	switch o.Kind {
	case "sfence", "mfence":
		return fmt.Sprintf("T%d %s", o.Thread, o.Kind)
	case "clflush", "clflushopt":
		return fmt.Sprintf("T%d %s %v", o.Thread, o.Kind, o.Addr)
	default:
		return fmt.Sprintf("T%d %s %v/%d = %#x", o.Thread, o.Kind, o.Addr, o.Size, o.Val)
	}
}

// traceRing keeps the last n operations of the one scenario a replay checker
// runs. It grows by append until it holds n and wraps only then, so a replay's
// memory follows the trace it returns, not the capacity it was allowed.
type traceRing struct {
	buf  []TraceOp
	n    int
	next int // oldest entry once the ring is full; 0 before
}

func newTraceRing(n int) *traceRing { return &traceRing{n: n} }

func (r *traceRing) add(op TraceOp) {
	if len(r.buf) < r.n {
		r.buf = append(r.buf, op)
		return
	}
	r.buf[r.next] = op
	r.next++
	if r.next == r.n {
		r.next = 0
	}
}

// snapshot returns a copy of the recorded operations, oldest-first.
func (r *traceRing) snapshot() []TraceOp {
	out := make([]TraceOp, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// traceOp records one guest operation for whoever is listening: the forensics
// recorder's full operation list and a replay checker's ring. Exploration
// checkers have neither, so the hot path pays two nil checks.
func (c *Checker) traceOp(threadID int, kind string, a pmem.Addr, size int, val uint64) {
	if c.wrec != nil {
		c.wrec.noteOp(threadID, kind, a, size, val)
	}
	if c.trace == nil {
		return
	}
	c.trace.add(TraceOp{Thread: threadID, Kind: kind, Addr: a, Size: size, Val: val})
}
