package core

import (
	"jaaru/internal/pmem"
)

// Snapshot captures the persistent-memory-relevant state at one failure
// injection point, for state-count accounting (the Yat reproduction).
type Snapshot struct {
	// FP is the failure point index within the pre-failure execution;
	// the end-of-run point has index -1.
	FP int
	// Queues maps each written byte address to its store queue so far
	// (oldest first).
	Queues map[pmem.Addr][]pmem.ByteStore
	// Begins maps each flushed cache line to its writeback lower bound.
	Begins map[pmem.Addr]pmem.Seq
	// HighWater is the allocator's high-water mark at the failure point.
	HighWater pmem.Addr
}

// DirtyLines returns the lines with at least one store after their lower
// writeback bound, sorted.
func (s *Snapshot) DirtyLines() []pmem.Addr {
	seen := make(map[pmem.Addr]bool)
	var out []pmem.Addr
	for a, q := range s.Queues {
		line := a.Line()
		if seen[line] {
			continue
		}
		begin := s.Begins[line]
		for _, bs := range q {
			if bs.Seq > begin {
				seen[line] = true
				out = append(out, line)
				break
			}
		}
	}
	sortAddrSlice(out)
	return out
}

// Cuts returns, for a line, the distinct writeback cut points an eager
// explorer must consider: the lower bound itself plus every store to the
// line after it, in increasing order.
func (s *Snapshot) Cuts(line pmem.Addr) []pmem.Seq {
	begin := s.Begins[line]
	set := map[pmem.Seq]bool{begin: true}
	for off := pmem.Addr(0); off < pmem.CacheLineSize; off++ {
		for _, bs := range s.Queues[line+off] {
			if bs.Seq > begin {
				set[bs.Seq] = true
			}
		}
	}
	out := make([]pmem.Seq, 0, len(set))
	for sq := range set {
		out = append(out, sq)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func sortAddrSlice(s []pmem.Addr) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// Instrument registers fn to be invoked at every eligible failure injection
// point of the pre-failure execution (including the end-of-run point, with
// FP == -1), with a deep copy of the storage state. Intended to be combined
// with MaxScenarios == 1 so the hook fires exactly once per point.
func (c *Checker) Instrument(fn func(*Snapshot)) {
	c.snapshot = func(fp int) {
		if c.stack.Top().ID != 0 {
			return
		}
		fn(c.takeSnapshot(fp))
	}
}

func (c *Checker) takeSnapshot(fp int) *Snapshot {
	e := c.stack.Top()
	s := &Snapshot{
		FP:        fp,
		Queues:    make(map[pmem.Addr][]pmem.ByteStore),
		Begins:    make(map[pmem.Addr]pmem.Seq),
		HighWater: c.alloc.HighWater(),
	}
	for _, a := range e.TouchedAddrs() {
		// Queue materializes a fresh slice from the arena, so the snapshot
		// owns it outright.
		s.Queues[a] = e.Queue(a)
	}
	for _, line := range e.TouchedLines() {
		if e.LineKnown(line) {
			s.Begins[line] = e.CacheLine(line).Begin
		}
	}
	return s
}

// RunRecoveryOn executes prog.Recover exactly once against a concrete
// post-failure persistent-memory image that an independent model supplies
// (internal/px86ref's Images). The image maps byte addresses to their persisted values; highWater
// marks the extent of allocated pool memory at the failure. The returned
// result carries any bug the recovery hit.
func RunRecoveryOn(prog Program, opts Options, image map[pmem.Addr]byte, highWater pmem.Addr) *Result {
	o := opts.withDefaults()
	o.MaxFailures = -1 // the disabled sentinel: recovery runs directly
	c := New(Program{Name: prog.Name + "-eager", Run: prog.Recover}, o)
	c.resetScenario()
	c.alloc.Grow(highWater)

	// Materialize the image as execution 0, every line pinned as flushed
	// after its (single) store so recovery loads resolve deterministically.
	e0 := c.stack.Top()
	addrs := make([]pmem.Addr, 0, len(image))
	for a := range image {
		addrs = append(addrs, a)
	}
	sortAddrSlice(addrs)
	for _, a := range addrs {
		e0.Append(a, image[a], c.NextSeq())
	}
	pin := c.NextSeq()
	for _, a := range addrs {
		e0.RaiseLineBegin(a, pin)
	}
	c.stack.Push()

	c.scenarios = 1
	if c.runSegment(c.prog.Run) {
		panic(engineError{"failure injected during eager recovery run"})
	}
	return &Result{
		Program:    c.prog.Name,
		Scenarios:  1,
		Executions: 1,
		Steps:      c.totalSteps,
		Bugs:       c.bugs,
		Complete:   true,
	}
}
