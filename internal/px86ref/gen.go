package px86ref

import (
	"fmt"
	"math/rand"
)

// Shape is the kind of program Generate draws.
type Shape struct {
	Lines, Words int  // cache lines touched from the root, 8-byte words used in each
	Ops          int  // pre-failure operations
	Recover      int  // recovery operations after it loads every word
	Mixed        bool // 1-, 2- and 4-byte stores besides 8-byte ones
	RMW          bool // locked CAS and fetch-add
}

// Generate draws the program of seed: a pre-failure run of s.Ops random
// stores, clflushes, clflushopts, clwbs, sfences, mfences and (s.RMW) locked
// RMWs over the shape's words, and a recovery that loads every word, as
// w0, w1, …, then runs s.Recover more random operations (loads among them,
// as r<i>). A recovery that stores ends with a clflush of its last stored
// line after its last store: the checker has no failure point after a
// recovery's last flush (DESIGN.md § The independent oracle).
func Generate(seed int64, s Shape) Program {
	rng := rand.New(rand.NewSource(seed))
	var words []uint64
	for l := range s.Lines {
		for w := range s.Words {
			words = append(words, uint64(l*LineSize+w*8))
		}
	}
	pick := func() uint64 { return words[rng.Intn(len(words))] }
	val := uint64(0)
	next := func() uint64 { val += 0x0101010101010101; return val }
	draw := func() Op {
		switch k := rng.Intn(12); {
		case k < 4:
			return St64(pick(), next())
		case k < 5 && s.Mixed:
			size := []int{1, 2, 4}[rng.Intn(3)]
			return St((pick()+uint64(rng.Intn(7)))&^uint64(size-1), size, next())
		case k < 6:
			return Flush(pick())
		case k < 8:
			return FlushOpt(pick())
		case k < 9:
			return WB(pick())
		case k < 10:
			return SFence()
		case k < 11 && s.RMW:
			if rng.Intn(2) == 0 {
				return Cas(pick(), 0, next())
			}
			return Add(pick(), 1)
		}
		return MFence()
	}
	var p Program
	for range s.Ops {
		p.Run = append(p.Run, draw())
	}
	for i, w := range words {
		p.Recover = append(p.Recover, Ld64(fmt.Sprintf("w%d", i), w))
	}
	var unflushed *Op
	for i := range s.Recover {
		op := draw()
		if rng.Intn(4) == 0 {
			op = Ld64(fmt.Sprintf("r%d", i), pick())
		}
		switch op.Kind {
		case Store, CAS, FetchAdd:
			unflushed = &op
		case Clflush:
			unflushed = nil
		}
		p.Recover = append(p.Recover, op)
	}
	if unflushed != nil {
		p.Recover = append(p.Recover, Flush(unflushed.Addr))
	}
	return p
}
