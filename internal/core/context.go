package core

import (
	"fmt"
	"runtime"
	"strings"
	"sync"

	"jaaru/internal/pmem"
	"jaaru/internal/tso"
)

// Addr is a guest address in the simulated persistent-memory pool.
type Addr = pmem.Addr

// Context is the interface guest programs use to interact with simulated
// persistent memory. All operations follow x86 semantics under the Px86sim
// persistency model: stores and flushes are buffered per thread, loads
// bypass through the store buffer, and flush instructions constrain when
// cache lines reach persistent storage.
//
// A Context is bound to one guest thread and must only be used from that
// thread's function: data structure handles that capture a Context must be
// rebound before use on a Spawned thread (sharing one Context across
// threads confuses the deterministic scheduler and deadlocks the turn
// handoff).
type Context struct {
	ck *Checker
	th *thread
}

// op is the per-operation prologue: step accounting and infinite-loop
// detection. A crashed machine executes nothing: deferred guest functions
// (an unlock, say) run while the crash panic unwinds the guest stack, and
// without this gate their operations would take effect and be counted after
// the power failure. Reading crashed without the scheduler lock is safe:
// every goroutine reaching here last acquired the lock at its turn handoff,
// after any crash initiation it could observe.
func (c *Context) op() {
	ck := c.ck
	if ck.sched.crashed {
		panic(crashSignal{})
	}
	ck.steps++
	ck.totalSteps++
	if ck.chooser.cursor < len(ck.chooser.points) {
		ck.replaySteps++
	}
	if ck.wrec != nil {
		// Operation numbering for the forensics recorder: counted here, not
		// derived from the traced-op list, so untraced operations (Spawn,
		// Join, a CAS that did not write) keep indices stable.
		ck.wrec.opSeq++
	}
	if ck.steps > ck.opts.MaxSteps {
		panic(guestFault{typ: BugInfiniteLoop,
			msg: fmt.Sprintf("step budget of %d exceeded at %s", ck.opts.MaxSteps, guestLocation())})
	}
}

// yield is the per-operation epilogue: it hands the turn to the next guest
// thread. Yielding after the operation's effect (not before) keeps each
// operation atomic with respect to the deterministic round-robin schedule —
// a suspended thread never has a half-issued operation.
func (c *Context) yield() { c.ck.sched.yield(c.th) }

// checkRange faults with an illegal-memory-access bug unless [a, a+size) is
// inside allocated pool memory.
func (c *Context) checkRange(a Addr, size uint64, what string) {
	if c.ck.alloc.InBounds(a, size) {
		return
	}
	var why string
	switch {
	case a == 0:
		why = "null pointer dereference"
	case a < PoolBase:
		why = "address below pool"
	default:
		why = "address outside allocated pool memory"
	}
	panic(guestFault{typ: BugIllegalAccess,
		msg: fmt.Sprintf("illegal %s of %d bytes at %v (%s) at %s", what, size, a, why, guestLocation())})
}

// issue executes one buffered operation (Figure 7, Exec_*) and then lets the
// eviction policy run. EvictEager operations come here only via eagerViaBuffer.
func (c *Context) issue(e tso.Entry) {
	ts := c.th.ts
	ts.Push(c.ck, e)
	switch c.ck.opts.Eviction {
	case EvictEager:
		ts.EvictOldest(c.ck)
	case EvictAtFences:
		// Capacity-based eviction happens inside Push.
	case EvictExplore:
		// Figure 11, lines 4–8: eviction is itself a nondeterministic
		// choice the checker enumerates.
		for ts.SBLen() > 0 {
			evict := c.ck.chooser.choose(chooseEvict, 2) == 1
			c.ck.wrecDecision()
			if !evict {
				break
			}
			ts.EvictOldest(c.ck)
		}
	}
}

// eagerProbe reports an eager operation as evict reports its entry, if probed.
// The entry is built out of line so that this nil check inlines.
func (c *Context) eagerProbe(kind tso.EntryKind, a Addr, size int, v uint64, loc string, s pmem.Seq) {
	if c.ck.sched.probe != nil {
		c.probeEvict(kind, a, size, v, loc, s)
	}
}

func (c *Context) probeEvict(kind tso.EntryKind, a Addr, size int, v uint64, loc string, s pmem.Seq) {
	e := tso.Entry{Kind: kind, Addr: a, Size: size, Val: v, Loc: loc, Op: c.ck.wrecOp()}
	if kind == tso.CLFlushOpt {
		e.Seq = s
	}
	c.ck.sched.probe.Evict(e, s)
}

// ---- Memory allocation -----------------------------------------------------

// Alloc reserves size bytes of zero-initialized pool memory with the given
// alignment (power of two; 0 for byte alignment). Addresses are stable
// across the failures of a scenario and never reused, so recovery code can
// follow pointers persisted before a failure.
func (c *Context) Alloc(size, align uint64) Addr {
	if c.ck.ffwd.active {
		// Fast-forward replay: the allocator was truncated to the capture
		// high-water mark, which already covers this allocation — feed the
		// recorded address instead of re-advancing (snapshot.go).
		a := c.ck.ffwdNext(evAlloc).addr
		c.yield()
		return a
	}
	c.op()
	a, ok := c.ck.alloc.Alloc(size, align)
	if !ok {
		panic(guestFault{typ: BugExplicit,
			msg: fmt.Sprintf("pool exhausted allocating %d bytes at %s", size, guestLocation())})
	}
	c.ck.noteSegEvent(evAlloc, a)
	c.ck.traceOp(c.th.id, "alloc", a, int(size), 0)
	c.yield()
	return a
}

// AllocLine is Alloc with cache-line alignment — the common idiom for PM
// data structure nodes.
func (c *Context) AllocLine(size uint64) Addr { return c.Alloc(size, pmem.CacheLineSize) }

// Root returns the base of the root area: RootSize bytes at the start of
// the pool, always allocated, through which recovery code reaches all
// persistent state.
func (c *Context) Root() Addr { return PoolBase }

// PoolLimit returns the exclusive upper bound of currently allocated pool
// memory.
func (c *Context) PoolLimit() Addr {
	if c.ck.ffwd.active {
		// Fast-forward replay: the live allocator already reflects the whole
		// prefix, so the momentary value the guest observed is fed back.
		return c.ck.ffwdNext(evLimit).addr
	}
	a := c.ck.alloc.HighWater()
	c.ck.noteSegEvent(evLimit, a)
	return a
}

// ---- Stores ----------------------------------------------------------------

func (c *Context) store(a Addr, size int, v uint64) {
	if c.ck.ffwd.active {
		// Fast-forward replay: the store's effect is part of the captured
		// state installed at arrival; only the scheduler turn is taken so
		// the interleaving replays exactly (snapshot.go).
		c.yield()
		return
	}
	c.op()
	c.checkRange(a, uint64(size), "store")
	c.ck.traceOp(c.th.id, "store", a, size, v)
	if ck := c.ck; ck.eager {
		c.th.ts.Evicted()
		ck.ApplyStore(a, size, v, ck.NextSeq())
		c.eagerProbe(tso.Store, a, size, v, "", ck.seq)
	} else {
		c.issue(tso.Entry{Kind: tso.Store, Addr: a, Size: size, Val: v, Op: c.ck.wrecOp()})
	}
	c.yield()
}

// Store8 writes one byte.
func (c *Context) Store8(a Addr, v uint8) { c.store(a, 1, uint64(v)) }

// Store16 writes a 16-bit value (little-endian).
func (c *Context) Store16(a Addr, v uint16) { c.store(a, 2, uint64(v)) }

// Store32 writes a 32-bit value (little-endian).
func (c *Context) Store32(a Addr, v uint32) { c.store(a, 4, uint64(v)) }

// Store64 writes a 64-bit value (little-endian).
func (c *Context) Store64(a Addr, v uint64) { c.store(a, 8, v) }

// StorePtr writes a pool address as a 64-bit value.
func (c *Context) StorePtr(a Addr, p Addr) { c.store(a, 8, uint64(p)) }

// StoreBytes writes a byte slice with byte stores.
func (c *Context) StoreBytes(a Addr, b []byte) {
	for i, v := range b {
		c.Store8(a.Add(uint64(i)), v)
	}
}

// Memset writes n copies of v starting at a.
func (c *Context) Memset(a Addr, v byte, n uint64) {
	for i := uint64(0); i < n; i++ {
		c.Store8(a.Add(i), v)
	}
}

// ---- Loads -----------------------------------------------------------------

func (c *Context) load(a Addr, size int) uint64 {
	ck := c.ck
	if ck.ffwd.active {
		// Fast-forward replay: whole operations are fed from the segment's
		// value log. The capture point is the leading byte of a load; when
		// the cursor reaches it, ffwdLoad installs the arrival state and
		// resolves that operation live, and the trace entry plus the whole
		// suffix of the segment execute normally. A load fed pre-arrival
		// skips its step accounting — covered by the restored deltas — and
		// its trace entry, which nobody reads: only replay checkers trace, and
		// they never restore. It still takes its scheduler turn.
		v, live := ck.ffwdLoad(c.th, a, size)
		if live {
			ck.traceOp(c.th.id, "load", a, size, v)
		}
		c.yield()
		return v
	}
	c.op()
	c.checkRange(a, uint64(size), "load")
	v := ck.resolveLoad(c.th, a, size)
	ck.traceOp(c.th.id, "load", a, size, v)
	c.yield()
	return v
}

// Load8 reads one byte.
func (c *Context) Load8(a Addr) uint8 { return uint8(c.load(a, 1)) }

// Load16 reads a 16-bit value.
func (c *Context) Load16(a Addr) uint16 { return uint16(c.load(a, 2)) }

// Load32 reads a 32-bit value.
func (c *Context) Load32(a Addr) uint32 { return uint32(c.load(a, 4)) }

// Load64 reads a 64-bit value.
func (c *Context) Load64(a Addr) uint64 { return c.load(a, 8) }

// LoadPtr reads a pool address stored with StorePtr.
func (c *Context) LoadPtr(a Addr) Addr { return Addr(c.load(a, 8)) }

// LoadBytes reads n bytes starting at a.
func (c *Context) LoadBytes(a Addr, n uint64) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = c.Load8(a.Add(uint64(i)))
	}
	return out
}

// ---- Flushes and fences ------------------------------------------------------

// Clflush issues a clflush for every cache line of [a, a+size): strongly
// ordered with stores (it enters the store buffer like a store).
func (c *Context) Clflush(a Addr, size uint64) {
	if c.ck.ffwd.active {
		pmem.Lines(a, size, func(line Addr) { c.yield() })
		return
	}
	loc := c.perfLoc()
	pmem.Lines(a, size, func(line Addr) {
		c.op()
		c.ck.traceOp(c.th.id, "clflush", line, pmem.CacheLineSize, 0)
		if ck := c.ck; ck.eager {
			c.th.ts.Evicted()
			ck.BeforeFlushEffect(tso.CLFlush, line, loc)
			ck.stack.FlushLine(line, ck.NextSeq())
			c.eagerProbe(tso.CLFlush, line, 0, 0, loc, ck.seq)
		} else {
			c.issue(tso.Entry{Kind: tso.CLFlush, Addr: line, Loc: loc, Op: c.ck.wrecOp()})
		}
		c.yield()
	})
}

// Clflushopt issues a clflushopt for every cache line of [a, a+size):
// weakly ordered, taking effect at the next sfence/mfence/locked RMW.
func (c *Context) Clflushopt(a Addr, size uint64) {
	if c.ck.ffwd.active {
		pmem.Lines(a, size, func(line Addr) { c.yield() })
		return
	}
	loc := c.perfLoc()
	pmem.Lines(a, size, func(line Addr) {
		c.op()
		c.ck.traceOp(c.th.id, "clflushopt", line, pmem.CacheLineSize, 0)
		if ck := c.ck; ck.eager {
			// max(σcurr, tτ,cl, tτ) = σcurr: earlier operations are in effect.
			c.th.ts.Evicted()
			c.th.ts.AppendWriteback(line, ck.seq, loc, ck.wrecOp())
			c.eagerProbe(tso.CLFlushOpt, line, 0, 0, loc, ck.seq)
		} else {
			c.issue(tso.Entry{Kind: tso.CLFlushOpt, Addr: line, Loc: loc, Op: c.ck.wrecOp()})
		}
		c.yield()
	})
}

// Clwb is semantically identical to Clflushopt in the Px86sim model (§2).
func (c *Context) Clwb(a Addr, size uint64) { c.Clflushopt(a, size) }

// Sfence issues a store fence, ordering prior clflushopt writebacks.
func (c *Context) Sfence() {
	if c.ck.ffwd.active {
		c.yield()
		return
	}
	c.op()
	c.ck.traceOp(c.th.id, "sfence", 0, 0, 0)
	if ck := c.ck; ck.eager {
		loc := c.perfLoc()
		c.th.ts.Evicted()
		ck.SFenceEffect(c.th.ts.FBLen(), loc)
		ck.seq++
		c.eagerProbe(tso.SFence, 0, 0, 0, loc, ck.seq)
		c.th.ts.DrainFlushBuffer(ck)
	} else {
		c.issue(tso.Entry{Kind: tso.SFence, Loc: c.perfLoc(), Op: c.ck.wrecOp()})
	}
	c.yield()
}

// perfLoc captures the guest location of a flush/fence for the
// performance-issue detector; it is skipped (empty) unless enabled.
func (c *Context) perfLoc() string {
	if !c.ck.opts.FlagPerfIssues {
		return ""
	}
	return guestLocation()
}

// Mfence issues a full memory fence: drains the store buffer and applies
// pending clflushopt writebacks.
func (c *Context) Mfence() {
	if c.ck.ffwd.active {
		c.yield()
		return
	}
	c.op()
	c.ck.traceOp(c.th.id, "mfence", 0, 0, 0)
	c.th.ts.Mfence(c.ck)
	c.yield()
}

// Persist is the common persistence idiom: clwb each line of the range,
// then sfence.
func (c *Context) Persist(a Addr, size uint64) {
	c.Clflushopt(a, size)
	c.Sfence()
}

// ---- Locked RMW operations ---------------------------------------------------

// rmw executes fn atomically with full fence semantics: locked RMW
// instructions behave as mfence; load; store; mfence (§4).
func (c *Context) rmw(a Addr, size int, fn func(old uint64) (uint64, bool)) uint64 {
	ck := c.ck
	if ck.ffwd.active {
		// Fast-forward replay. The leading Mfence's effect is already part
		// of the captured state (the capture point, if inside this rmw, came
		// after it), so it is skipped. An arrival at the rmw's read resumes
		// live: the write and trailing fence execute for real. A pure
		// fast-forwarded rmw still calls fn — guest closures may carry
		// host-side state — but discards the write.
		old, live := ck.ffwdLoad(c.th, a, size)
		if live {
			if nv, write := fn(old); write {
				ck.traceOp(c.th.id, "rmw", a, size, nv)
				c.th.ts.Push(ck, tso.Entry{Kind: tso.Store, Addr: a, Size: size, Val: nv, Op: ck.wrecOp()})
			}
			c.th.ts.Mfence(ck)
			c.yield()
			return old
		}
		fn(old)
		c.yield()
		return old
	}
	c.op()
	c.checkRange(a, uint64(size), "rmw")
	c.th.ts.Mfence(c.ck)
	old := ck.resolveLoad(c.th, a, size)
	if nv, write := fn(old); write {
		c.ck.traceOp(c.th.id, "rmw", a, size, nv)
		c.th.ts.Push(c.ck, tso.Entry{Kind: tso.Store, Addr: a, Size: size, Val: nv, Op: c.ck.wrecOp()})
	}
	c.th.ts.Mfence(c.ck)
	c.yield()
	return old
}

// CAS64 performs a locked compare-and-swap on a 64-bit location, reporting
// whether the swap happened.
func (c *Context) CAS64(a Addr, old, new uint64) bool {
	got := c.rmw(a, 8, func(cur uint64) (uint64, bool) { return new, cur == old })
	return got == old
}

// AtomicAdd64 performs a locked fetch-and-add, returning the previous value.
func (c *Context) AtomicAdd64(a Addr, delta uint64) uint64 {
	return c.rmw(a, 8, func(cur uint64) (uint64, bool) { return cur + delta, true })
}

// AtomicExchange64 performs a locked exchange, returning the previous value.
func (c *Context) AtomicExchange64(a Addr, v uint64) uint64 {
	return c.rmw(a, 8, func(uint64) (uint64, bool) { return v, true })
}

// ---- Threads -----------------------------------------------------------------

// ThreadHandle identifies a spawned guest thread.
type ThreadHandle struct {
	ck *Checker
	t  *thread
}

// Spawn starts fn on a new guest thread. Threads are interleaved
// deterministically (round-robin, one operation per turn); Jaaru controls
// but does not exhaustively explore schedules.
func (c *Context) Spawn(fn func(*Context)) *ThreadHandle {
	if !c.ck.ffwd.active {
		// Spawns replay for real during fast-forward (the thread structure
		// must exist for the arrival's TSO restore); only the step accounting
		// is covered by the restored deltas.
		c.op()
	}
	ck := c.ck
	t := ck.sched.spawn(ck.opts.SBCapacity)
	go func() {
		// The thread's guest boundary: a fault or guest panic fails the
		// execution through the scheduler's fault slot (runSegment reports
		// it), an engine error travels the same way to runScenarioGuarded.
		defer func() { ck.sched.exit(t, caught(recover())) }()
		ck.sched.waitTurn(t)
		fn(&Context{ck: ck, th: t})
	}()
	c.yield()
	return &ThreadHandle{ck: ck, t: t}
}

// Join blocks until the spawned thread completes. Like pthread_join, it is
// a synchronization point: the joined thread's store buffer has drained by
// the time Join returns (its flush buffer has not — clflushopt writebacks
// still require a fence).
func (h *ThreadHandle) Join(c *Context) {
	if c.ck.ffwd.active {
		// The join's synchronization replays for real (it orders the
		// deterministic schedule); the drain is skipped — fast-forwarded
		// store buffers are empty until the arrival installs them.
		c.ck.sched.join(c.th, h.t)
		c.yield()
		return
	}
	c.op()
	c.ck.sched.join(c.th, h.t)
	h.t.ts.DrainSB(c.ck)
	c.yield()
}

// ---- Program status and assertions --------------------------------------------

// InRecovery reports whether this execution follows at least one failure.
func (c *Context) InRecovery() bool { return c.ck.stack.Top().ID > 0 }

// Execution returns the index of the current execution within the failure
// scenario (0 = pre-failure).
func (c *Context) Execution() int { return c.ck.stack.Top().ID }

// Assert checks a program invariant; failure is a bug with the guest's
// source location (the analog of a C assert aborting the process).
func (c *Context) Assert(cond bool, format string, args ...any) {
	if cond {
		return
	}
	panic(guestFault{typ: BugAssertion,
		msg: fmt.Sprintf(format, args...) + " at " + guestLocation()})
}

// Bug reports an unconditional bug manifestation.
func (c *Context) Bug(format string, args ...any) {
	panic(guestFault{typ: BugExplicit,
		msg: fmt.Sprintf(format, args...) + " at " + guestLocation()})
}

// Fnv64 computes the FNV-1a hash of [a, a+size) by loading each byte —
// support for checksum-based recovery (§4): every byte read participates in
// constraint refinement, so checksum validation explores exactly the
// reachable checksum values.
func (c *Context) Fnv64(a Addr, size uint64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := uint64(0); i < size; i++ {
		h ^= uint64(c.Load8(a.Add(i)))
		h *= prime64
	}
	return h
}

// ---- Source locations -----------------------------------------------------------

// guestLocation returns the innermost non-checker frame of the caller,
// formatted as "file.go:123". Symbolizing is most of its cost, so the result
// is cached under the exact PC slice runtime.Callers captured (locCache).
func guestLocation() string {
	var pcs [locDepth]uintptr
	n := runtime.Callers(2, pcs[:])
	locCache.Lock()
	loc, ok := locCache.m[pcs]
	locCache.Unlock()
	if ok {
		return loc
	}
	loc = symbolize(pcs[:n])
	locCache.Lock()
	if len(locCache.m) < locCacheCap {
		locCache.m[pcs] = loc
	}
	locCache.Unlock()
	return loc
}

// locDepth is how many frames guestLocation captures; locCacheCap bounds
// locCache, past which misses are symbolized every time.
const (
	locDepth    = 16
	locCacheCap = 1 << 12
)

// locCache maps a captured PC slice, zero-padded to locDepth (no frame has
// PC 0), to its symbolized location. The same PCs always symbolize to the
// same string, so a hit returns exactly what symbolize would. It is shared by
// every checker, parallel workers included.
var locCache = struct {
	sync.Mutex
	m map[[locDepth]uintptr]string
}{m: make(map[[locDepth]uintptr]string)}

// symbolize walks pcs to the first frame outside the checker and the Go
// runtime (test files count as guest code): for a guest panic, the frame that
// panicked.
func symbolize(pcs []uintptr) string {
	frames := runtime.CallersFrames(pcs)
	for {
		f, more := frames.Next()
		if f.File == "" {
			break
		}
		// gopanic and the runtime's panic helpers sit between a recovering
		// defer and the guest frame.
		checker := strings.Contains(f.File, "internal/core") && !strings.HasSuffix(f.File, "_test.go")
		if !checker && !strings.HasPrefix(f.Function, "runtime.") {
			return fmt.Sprintf("%s:%d", shortFile(f.File), f.Line)
		}
		if !more {
			break
		}
	}
	return "unknown"
}

func shortFile(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
