package tso

import (
	"math/rand"
	"testing"
	"testing/quick"

	"jaaru/internal/pmem"
)

// Property tests over random operation sequences: whatever order entries
// are pushed and drained, the operational simulator must uphold the
// invariants Table 1 and §2 promise.

func randomEntries(rng *rand.Rand, n int) []Entry {
	lines := []pmem.Addr{0x1000, 0x1040, 0x1080}
	out := make([]Entry, n)
	for i := range out {
		line := lines[rng.Intn(len(lines))]
		switch rng.Intn(5) {
		case 0, 1:
			out[i] = Entry{Kind: Store, Addr: line.Add(uint64(rng.Intn(7)) * 8),
				Size: 8, Val: uint64(i + 1)}
		case 2:
			out[i] = Entry{Kind: CLFlush, Addr: line}
		case 3:
			out[i] = Entry{Kind: CLFlushOpt, Addr: line}
		default:
			out[i] = Entry{Kind: SFence}
		}
	}
	return out
}

// Stores to the cache receive strictly increasing sequence numbers, in
// push (program) order — the TSO total store order.
func TestPropertyStoreOrderPreserved(t *testing.T) {
	f := func(seed int64, nOps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		st := newFake()
		ts := NewThreadState(0)
		entries := randomEntries(rng, int(nOps%40)+1)
		var pushed []pmem.Addr
		for _, e := range entries {
			ts.Push(st, e)
			if e.Kind == Store {
				pushed = append(pushed, e.Addr)
			}
			if rng.Intn(3) == 0 && ts.SBLen() > 0 {
				ts.EvictOldest(st)
			}
		}
		ts.Mfence(st)
		// Every pushed store reached the cache, and per-address queues are
		// in increasing sequence order.
		for _, a := range pushed {
			if _, ok := st.exec.Newest(a); !ok {
				return false
			}
		}
		for _, a := range st.exec.TouchedAddrs() {
			q := st.exec.Queue(a)
			for i := 1; i < len(q); i++ {
				if q[i].Seq <= q[i-1].Seq {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// After Mfence, both buffers are empty and every line flushed by a
// clflush/clflushopt that was pushed after that line's last store has a
// writeback bound covering the store.
func TestPropertyMfenceQuiesces(t *testing.T) {
	f := func(seed int64, nOps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		st := newFake()
		ts := NewThreadState(0)
		type lastState struct {
			storeIdx int // index of last store to the line, -1 none
			flushIdx int // index of last flush covering the line, -1 none
		}
		lines := make(map[pmem.Addr]*lastState)
		look := func(line pmem.Addr) *lastState {
			if lines[line] == nil {
				lines[line] = &lastState{storeIdx: -1, flushIdx: -1}
			}
			return lines[line]
		}
		entries := randomEntries(rng, int(nOps%40)+1)
		for i, e := range entries {
			ts.Push(st, e)
			switch e.Kind {
			case Store:
				look(e.Addr.Line()).storeIdx = i
			case CLFlush, CLFlushOpt:
				look(e.Addr.Line()).flushIdx = i
			}
		}
		ts.Mfence(st)
		if ts.SBLen() != 0 || ts.FBLen() != 0 {
			return false
		}
		for line, stt := range lines {
			if stt.flushIdx > stt.storeIdx && stt.storeIdx >= 0 {
				// The line's last store precedes a flush of that line:
				// the writeback bound must cover the store.
				newest, _ := newestOnLine(st.exec, line)
				if st.exec.CacheLine(line).Begin < newest {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func newestOnLine(e *pmem.Execution, line pmem.Addr) (pmem.Seq, bool) {
	var newest pmem.Seq
	found := false
	for off := pmem.Addr(0); off < pmem.CacheLineSize; off++ {
		if bs, ok := e.Newest(line + off); ok && bs.Seq > newest {
			newest, found = bs.Seq, true
		}
	}
	return newest, found
}

// Store-buffer bypassing always returns the newest pushed value for an
// address, regardless of partial eviction.
func TestPropertyBypassNewest(t *testing.T) {
	f := func(seed int64, nOps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		st := newFake()
		ts := NewThreadState(0)
		newest := make(map[pmem.Addr]uint64)
		for i := 0; i < int(nOps%50)+1; i++ {
			a := pmem.Addr(0x1000 + uint64(rng.Intn(4))*8)
			v := uint64(i + 1)
			ts.Push(st, Entry{Kind: Store, Addr: a, Size: 8, Val: v})
			newest[a] = v
			if rng.Intn(4) == 0 && ts.SBLen() > 0 {
				ts.EvictOldest(st)
			}
			// Bypass (or cache, if fully evicted) must see the newest value.
			for b, want := range newest {
				var got uint64
				for i := 0; i < 8; i++ {
					if byt, ok := ts.Lookup(b.Add(uint64(i))); ok {
						got |= uint64(byt) << (8 * uint(i))
					} else if bs, ok2 := st.exec.Newest(b.Add(uint64(i))); ok2 {
						got |= uint64(bs.Val) << (8 * uint(i))
					}
				}
				if got != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Overlaps is exactly "some byte of the access would bypass": it agrees with
// a Lookup per byte for every width and alignment, over mixed-size stores,
// interleaved flushes and fences, and partial eviction.
func TestPropertyOverlapsMatchesLookup(t *testing.T) {
	f := func(seed int64, nOps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		st := newFake()
		ts := NewThreadState(0)
		sizes := []int{1, 2, 4, 8}
		for i := 0; i < int(nOps%30)+1; i++ {
			switch rng.Intn(4) {
			case 0:
				ts.Push(st, Entry{Kind: CLFlushOpt, Addr: 0x1000})
			case 1:
				if ts.SBLen() > 0 {
					ts.EvictOldest(st)
				}
			default:
				ts.Push(st, Entry{Kind: Store, Addr: pmem.Addr(0x1000 + rng.Intn(32)),
					Size: sizes[rng.Intn(len(sizes))], Val: rng.Uint64()})
			}
			for a := pmem.Addr(0x0ff8); a < 0x1030; a++ {
				for _, size := range sizes {
					want := false
					for j := 0; j < size; j++ {
						if _, ok := ts.Lookup(a.Add(uint64(j))); ok {
							want = true
						}
					}
					if ts.Overlaps(a, size) != want {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// An entry evicted as soon as it is pushed — the checker's eager policy —
// finds every earlier operation of its thread already in effect at a σ no
// greater than σcurr. So a clflushopt's flush-buffer bound, the max of its
// execution stamp, tτ,cl and tτ, is always its execution stamp: the line table
// and the sfence stamp never raise it. Interleaved Mfences (the locked-RMW and
// join drains) and Resets (a failure) do not change that.
func TestPropertyEagerFlushBoundIsExecutionStamp(t *testing.T) {
	f := func(seed int64, nOps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		st := newFake()
		ts := NewThreadState(0)
		ok := true
		ts.SetProbe(&Probe{OnEvict: func(e Entry, s pmem.Seq) {
			if e.Kind == CLFlushOpt && (s != e.Seq || e.Seq != st.seq) {
				ok = false
			}
		}})
		for _, e := range randomEntries(rng, int(nOps%60)+1) {
			ts.Push(st, e)
			ts.EvictOldest(st)
			switch rng.Intn(8) {
			case 0:
				ts.Mfence(st)
			case 1:
				ts.Reset()
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
