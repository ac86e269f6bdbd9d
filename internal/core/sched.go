package core

import (
	"math/rand"
	"sync"

	"jaaru/internal/obs"
	"jaaru/internal/tso"
)

// thread is one guest thread. Thread 0 runs on the engine goroutine; spawned
// threads run on their own goroutines, but the turn-taking scheduler ensures
// exactly one guest thread executes at any moment, so all checker state is
// accessed with mutual exclusion (turn handoffs synchronize via the
// scheduler's mutex and condition variable).
type thread struct {
	id     int
	ts     *tso.ThreadState
	done   bool
	joinOn *thread // non-nil while blocked in Join
	parked bool    // a goroutine is waiting for this thread's turn
}

// scheduler interleaves guest threads deterministically: round-robin, one
// operation per turn. Jaaru controls the concurrent schedule but does not
// exhaustively explore schedules (§4, Discussion).
type scheduler struct {
	mu         sync.Mutex
	cond       *sync.Cond
	threads    []*thread
	cur        int        // id of the thread whose turn it is
	childAlive int        // spawned goroutines still running
	rng        *rand.Rand // nil = round-robin; else seeded random schedule
	crashed    bool
	// fault is the execution's one fault slot: the first guestFault or
	// engineError any of its threads raised (failLocked).
	fault any

	// col is the owning checker's observability shard, handed to every
	// thread's store-buffer state (nil when disabled).
	col *obs.Collector
	// probe is the forensics transition probe, likewise handed to every
	// thread's store-buffer state (nil outside witness replays).
	probe *tso.Probe

	// main is the reused main thread: every execution segment starts with
	// thread 0 alone, so its thread struct and store-buffer state persist
	// across resets (mainCap guards against a capacity change).
	main    *thread
	mainCap int
}

func newScheduler() *scheduler {
	s := &scheduler{}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// reset prepares the scheduler for a fresh execution with a single main
// thread using the given store-buffer capacity. A non-nil rng selects the
// seeded random schedule (used to fuzz for concurrency bugs, §4
// Discussion); nil selects deterministic round-robin. It must not be
// called while child goroutines are alive.
func (s *scheduler) reset(sbCapacity int, rng *rand.Rand) *thread {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.childAlive != 0 {
		panic(engineError{"scheduler reset with live child threads"})
	}
	main := s.main
	if main == nil || s.mainCap != sbCapacity {
		main = &thread{id: 0, ts: tso.NewThreadState(sbCapacity)}
		s.main, s.mainCap = main, sbCapacity
	} else {
		main.ts.Reset()
		main.done = false
		main.joinOn = nil
		main.parked = false
	}
	main.ts.SetObserver(s.col)
	main.ts.SetProbe(s.probe)
	for i := range s.threads {
		s.threads[i] = nil
	}
	s.threads = append(s.threads[:0], main)
	s.cur = 0
	s.rng = rng
	s.crashed = false
	s.fault = nil
	return main
}

// runnable reports whether t can be given a turn.
func runnable(t *thread) bool {
	return !t.done && (t.joinOn == nil || t.joinOn.done)
}

// nextRunnable returns the id of the next runnable thread strictly after
// `after` in round-robin order (wrapping), or -1 if none.
func (s *scheduler) nextRunnable(after int) int {
	n := len(s.threads)
	for i := 1; i <= n; i++ {
		t := s.threads[(after+i)%n]
		if runnable(t) {
			return t.id
		}
	}
	return -1
}

// checkCrash panics with crashSignal if a failure has been initiated.
// Callers hold s.mu; the panic unwinds through their deferred unlock.
func (s *scheduler) checkCrash() {
	if s.crashed {
		panic(crashSignal{})
	}
}

// yield hands the turn to the next runnable thread and blocks until it is
// t's turn again (or a crash unwinds it). With a single thread it is a crash
// check only.
func (s *scheduler) yield(t *thread) {
	// Fast path: with a single thread there is no turn to hand over. The
	// unlocked reads are safe for the same reason as in Context.op — the
	// thread list is only ever appended to by the running thread (Spawn),
	// which with one thread is this goroutine, and every writer of crashed
	// is either this goroutine (maybeFail) or a child-thread trampoline,
	// which does not exist while the list has one entry.
	if len(s.threads) == 1 {
		if s.crashed {
			panic(crashSignal{})
		}
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.checkCrash()
	if len(s.threads) == 1 {
		return
	}
	var next int
	if s.rng != nil {
		next = s.pickRandom()
	} else {
		next = s.nextRunnable(t.id)
	}
	if next == t.id || next == -1 {
		return
	}
	s.cur = next
	s.cond.Broadcast()
	s.park(t)
	for s.cur != t.id {
		s.cond.Wait()
		s.checkCrash()
	}
	t.parked = false
}

// park marks t as waiting for its turn, diagnosing the guest error of
// sharing one Context across Spawned threads (two goroutines waiting for
// the same thread identity would otherwise deadlock the turn handoff).
func (s *scheduler) park(t *thread) {
	if t.parked {
		panic(guestFault{typ: BugExplicit,
			msg: "Context shared across guest threads: rebind data structure handles per thread"})
	}
	t.parked = true
}

// waitTurn blocks a freshly spawned thread until its first turn.
func (s *scheduler) waitTurn(t *thread) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.park(t)
	for s.cur != t.id {
		s.cond.Wait()
		s.checkCrash()
	}
	t.parked = false
}

// pickRandom returns a uniformly random runnable thread id (the current
// thread included, giving it bursts), or -1 if none.
func (s *scheduler) pickRandom() int {
	var runnableIDs []int
	for _, t := range s.threads {
		if runnable(t) {
			runnableIDs = append(runnableIDs, t.id)
		}
	}
	if len(runnableIDs) == 0 {
		return -1
	}
	return runnableIDs[s.rng.Intn(len(runnableIDs))]
}

// spawn registers a new guest thread and returns it. The caller launches the
// trampoline goroutine.
func (s *scheduler) spawn(sbCapacity int) *thread {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := &thread{id: len(s.threads), ts: tso.NewThreadState(sbCapacity)}
	t.ts.SetObserver(s.col)
	t.ts.SetProbe(s.probe)
	s.threads = append(s.threads, t)
	s.childAlive++
	return t
}

// exit ends a spawned thread's goroutine with r, the value its trampoline
// recovered as caught classified it: with nil the thread finished and hands
// the turn onward; anything else fails the execution.
func (s *scheduler) exit(t *thread, r any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t.done = true
	s.childAlive--
	if r != nil {
		s.failLocked(r)
		return
	}
	if next := s.nextRunnable(t.id); next != -1 {
		s.cur = next
	}
	s.cond.Broadcast()
}

// join blocks t until target completes.
func (s *scheduler) join(t, target *thread) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t == target {
		panic(guestFault{typ: BugExplicit, msg: "thread joined itself"})
	}
	for !target.done {
		s.checkCrash()
		t.joinOn = target
		next := s.nextRunnable(t.id)
		if next == -1 || next == t.id {
			t.joinOn = nil
			panic(guestFault{typ: BugExplicit, msg: "deadlock: all threads blocked in Join"})
		}
		s.cur = next
		s.cond.Broadcast()
		s.park(t)
		for s.cur != t.id {
			s.cond.Wait()
			s.checkCrash()
		}
		t.parked = false
		t.joinOn = nil
	}
}

// initiateCrash marks the scenario as crashed and wakes all threads so they
// unwind with crashSignal. Safe to call multiple times.
func (s *scheduler) initiateCrash() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.crashed = true
	s.cond.Broadcast()
}

// failLocked keeps r in the fault slot unless it is an injected crash or the
// slot is taken, and crashes the execution so every other thread unwinds.
func (s *scheduler) failLocked(r any) {
	switch r.(type) {
	case nil, crashSignal:
	default:
		if s.fault == nil {
			s.fault = r
		}
	}
	s.crashed = true
	s.cond.Broadcast()
}

// shutdown ends the execution with r, the main thread's recovered value as
// caught classified it (nil: it returned), waits until every child goroutine
// has exited, and returns the fault slot.
func (s *scheduler) shutdown(r any) any {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failLocked(r)
	for s.childAlive > 0 {
		s.cond.Wait()
	}
	return s.fault
}
