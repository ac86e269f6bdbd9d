package tso

import "jaaru/internal/pmem"

// lineTable is tτ,cl of Figure 8 — the σ of this thread's most recent store or
// clflush per cache line. Every evicted store writes it, so it is an
// open-addressed table (linear probing, no deletion) rather than a Go map: a
// cell with seq 0 is empty (real sequence numbers start at 1), and the cell
// hit last is tried first, which a run of stores to one line always hits.
type lineTable struct {
	cells      []lineCell // length 0 or a power of two, never full
	used, last int
}

type lineCell struct {
	line pmem.Addr
	seq  pmem.Seq
}

const lineTableMinCells = 16

// find returns the index of line's cell, or of the empty cell it belongs in.
func (lt *lineTable) find(line pmem.Addr) int {
	if c := &lt.cells[lt.last]; c.line == line && c.seq != 0 {
		return lt.last
	}
	// Fibonacci hashing: strided lines do not pile onto shared low bits.
	mask := len(lt.cells) - 1
	i := int(uint64(line)/pmem.CacheLineSize*0x9E3779B97F4A7C15>>32) & mask
	for lt.cells[i].seq != 0 && lt.cells[i].line != line {
		i = (i + 1) & mask
	}
	return i
}

// get returns the σ recorded for line, 0 if it was never set.
func (lt *lineTable) get(line pmem.Addr) pmem.Seq {
	if len(lt.cells) == 0 {
		return 0
	}
	return lt.cells[lt.find(line)].seq
}

// set records s (nonzero) as line's σ, first doubling a table 3/4 full.
func (lt *lineTable) set(line pmem.Addr, s pmem.Seq) {
	if 4*(lt.used+1) > 3*len(lt.cells) {
		old := lt.cells
		lt.cells = make([]lineCell, max(2*len(old), lineTableMinCells))
		lt.last = 0
		for _, c := range old {
			if c.seq != 0 {
				lt.cells[lt.find(c.line)] = c
			}
		}
	}
	lt.last = lt.find(line)
	if lt.cells[lt.last].seq == 0 {
		lt.used++
	}
	lt.cells[lt.last] = lineCell{line, s}
}

// reset empties the table, keeping its cells for reuse.
func (lt *lineTable) reset() {
	clear(lt.cells)
	lt.used = 0
}
