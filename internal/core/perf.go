package core

import (
	"fmt"

	"jaaru/internal/pmem"
	"jaaru/internal/tso"
)

// Performance-bug detection — the extension the paper names in §5.1
// ("Jaaru could be extended to find performance bugs such as redundant
// cache flushes and fences", the class Pmemcheck and Agamotto report).
// Enabled with Options.FlagPerfIssues; detection is per flush/fence
// *effect*, deduplicated by guest source location.

// PerfIssueKind classifies detected performance issues.
type PerfIssueKind int

const (
	// PerfRedundantFlush is a clflush/clflushopt whose cache line has no
	// stores since its last writeback: the flush does no persistency work.
	PerfRedundantFlush PerfIssueKind = iota
	// PerfRedundantFence is an sfence that drains an empty flush buffer:
	// on x86-TSO it orders nothing that was not already ordered.
	PerfRedundantFence
)

func (k PerfIssueKind) String() string {
	switch k {
	case PerfRedundantFlush:
		return "redundant flush"
	case PerfRedundantFence:
		return "redundant fence"
	default:
		return fmt.Sprintf("PerfIssueKind(%d)", int(k))
	}
}

// PerfIssue is one deduplicated performance finding.
type PerfIssue struct {
	Kind PerfIssueKind
	// Loc is the guest source location of the flush/fence instruction.
	Loc string
	// Line is an example cache line affected (flushes only): the smallest
	// line observed at this location — a canonical representative, so the
	// report does not depend on discovery order (serial or partitioned
	// across workers).
	Line pmem.Addr
	// Count is the number of dynamic occurrences across all scenarios.
	Count int
}

func (p *PerfIssue) String() string {
	if p.Kind == PerfRedundantFlush {
		return fmt.Sprintf("%v at %s (line %v, %d×)", p.Kind, p.Loc, p.Line, p.Count)
	}
	return fmt.Sprintf("%v at %s (%d×)", p.Kind, p.Loc, p.Count)
}

// notePerfFlush is called from the storage hooks right before a flush
// effect applies: the flush is redundant when every store to the line is
// already at or before the line's current writeback lower bound.
func (c *Checker) notePerfFlush(addr pmem.Addr, loc string) {
	if !c.opts.FlagPerfIssues {
		return
	}
	e := c.stack.Top()
	line := addr.Line()
	last := c.lastStore[line]
	if last == 0 {
		// No store to this line in this execution at all.
		c.recordPerfIssue(PerfRedundantFlush, loc, line)
		return
	}
	if e.LineKnown(line) && last <= e.CacheLine(line).Begin {
		c.recordPerfIssue(PerfRedundantFlush, loc, line)
	}
}

// notePerfFence is called when an sfence takes effect with an empty flush
// buffer.
func (c *Checker) notePerfFence(loc string) {
	if !c.opts.FlagPerfIssues {
		return
	}
	c.recordPerfIssue(PerfRedundantFence, loc, 0)
}

// perfKey is the dedup key of a perf finding: kind + guest location.
func perfKey(kind PerfIssueKind, loc string) string {
	return fmt.Sprintf("%d|%s", kind, loc)
}

func (c *Checker) recordPerfIssue(kind PerfIssueKind, loc string, line pmem.Addr) {
	key := perfKey(kind, loc)
	if p, ok := c.perfIssues[key]; ok {
		p.Count++
		// Keep the canonical (smallest) example line, the same rule the
		// parallel merge uses — first-seen would depend on exploration
		// order and diverge between serial and partitioned runs.
		if line < p.Line {
			p.Line = line
		}
	} else {
		c.perfIssues[key] = &PerfIssue{Kind: kind, Loc: loc, Line: line, Count: 1}
	}
}

// perfStorage wraps the Checker's tso.Storage implementation; it exists
// only to document that perf detection hooks into the same effect points
// as failure injection.
var _ tso.Storage = (*Checker)(nil)
