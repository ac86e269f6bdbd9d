package core

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// The guest boundary: a Go panic in guest code is a BugCrash and an engine
// error a BugEngine, under every driver, and neither leaves Run.

// indexCrashProgram indexes a two-slot table with a persisted value that may
// read 2 after a failure — the index-out-of-range crash of a recovery that
// trusts a counter it did not bound.
func indexCrashProgram() Program {
	return Program{
		Name: "index-crash",
		Run: func(c *Context) {
			c.Store64(c.Root(), 1)
			c.Clflush(c.Root(), 8)
			c.Store64(c.Root(), 2)
		},
		Recover: func(c *Context) {
			slots := make([]uint64, 2)
			slots[c.Load64(c.Root())]++
		},
	}
}

// bugKeys lists a result's bug keys in canonical order.
func bugKeys(r *Result) []string {
	var keys []string
	for _, b := range r.Bugs {
		keys = append(keys, b.key())
	}
	return keys
}

func TestGuestPanicIsCrash(t *testing.T) {
	var keys []string
	for _, workers := range []int{1, 2} {
		res := New(indexCrashProgram(), Options{Workers: workers}).Run()
		if len(res.Bugs) != 1 || res.Bugs[0].Type != BugCrash || !res.Complete {
			t.Fatalf("workers=%d: bugs %v, complete %v; want one crash and a complete run", workers, res.Bugs, res.Complete)
		}
		msg := res.Bugs[0].Message
		if !strings.HasPrefix(msg, "panic: runtime error: index out of range [2] with length 2 at crash_test.go:") {
			t.Errorf("workers=%d: message %q names neither the panic nor the guest frame", workers, msg)
		}
		if keys == nil {
			keys = bugKeys(res)
		} else if got := bugKeys(res); strings.Join(got, "\n") != strings.Join(keys, "\n") {
			t.Errorf("workers=%d: bug keys %q, serial %q", workers, got, keys)
		}
	}
}

// TestEngineErrorParity: a guest whose choice shape alternates between runs
// (two stores to a word, then one) breaks replay under the full-replay
// oracle. Every driver reports one BugEngine on an incomplete Result; none
// panics out of Run. The serial report names the scenario that broke: its
// vector, replayed on a run of the same parity, raises the same error.
func TestEngineErrorParity(t *testing.T) {
	var keys []string
	for _, workers := range []int{1, 2} {
		var runs atomic.Int64
		prog := Program{
			Name: "alternating",
			Run: func(c *Context) {
				c.Store64(c.Root(), 1)
				if runs.Add(1)%2 == 1 {
					c.Store64(c.Root(), 2)
				}
			},
			Recover: func(c *Context) { c.Load64(c.Root()) },
		}
		res := New(prog, Options{Workers: workers, Snapshots: -1}).Run()
		if len(res.Bugs) != 1 || res.Bugs[0].Type != BugEngine || res.Complete {
			t.Fatalf("workers=%d: bugs %v, complete %v; want one engine error and an incomplete run",
				workers, res.Bugs, res.Complete)
		}
		if b := res.Bugs[0]; workers == 1 {
			runs.Add(1) // the replay below is the next run but one: same parity
			var got any
			func() {
				defer func() { got = recover() }()
				Replay(prog, Options{Snapshots: -1}, b)
			}()
			if e, ok := got.(engineError); b.Choices == "" || !ok || e.msg != b.Message {
				t.Errorf("serial report %q at %q: replay raised %v", b.Message, b.Choices, got)
			}
		}
		if keys == nil {
			keys = bugKeys(res)
		} else if got := bugKeys(res); strings.Join(got, "\n") != strings.Join(keys, "\n") {
			t.Errorf("workers=%d: bug keys %q, serial %q", workers, got, keys)
		}
	}
}

// spawnCrashProgram writes n flushed words, one failure point each; every
// recovery spawns two threads, one of which panics while the other runs.
// The threads note in peak the most goroutines live beyond base. A thread
// of the previous execution that the scheduler already released may still
// be returning from its trampoline, so a count over base+2 is taken again
// after a moment; a goroutine that stays is counted.
func spawnCrashProgram(n, base int, peak *atomic.Int64) Program {
	note := func() {
		g := runtime.NumGoroutine()
		for i := 0; i < 100 && g > base+2; i++ {
			time.Sleep(10 * time.Microsecond)
			g = runtime.NumGoroutine()
		}
		if live := int64(g - base); live > peak.Load() {
			peak.Store(live)
		}
	}
	return Program{
		Name: "spawn-crash",
		Run: func(c *Context) {
			a := c.Alloc(uint64(8*n), 64)
			for i := range n {
				c.Store64(a.Add(uint64(8*i)), uint64(i+1))
				c.Clflush(a.Add(uint64(8*i)), 8)
			}
		},
		Recover: func(c *Context) {
			worker := c.Spawn(func(c *Context) {
				for i := range 4 {
					note()
					c.Store64(c.Root().Add(64), uint64(i))
				}
			})
			crasher := c.Spawn(func(c *Context) {
				note()
				c.Load64(c.Root())
				panic("recovery thread gave up")
			})
			worker.Join(c)
			crasher.Join(c)
		},
	}
}

// TestCrashContainment: 2 000 serial scenarios whose recoveries each crash a
// spawned thread leave nothing behind. At most the engine's goroutine and
// the two guest threads are live at once, the goroutine count returns to its
// baseline, and the heap after a GC does not grow with the scenario count.
func TestCrashContainment(t *testing.T) {
	if testing.Short() {
		t.Skip("2 000 scenarios")
	}
	heapAfter := func(scenarios int) uint64 {
		var peak atomic.Int64
		base := runtime.NumGoroutine()
		res := New(spawnCrashProgram(scenarios-1, base, &peak), Options{}).Run()
		if res.Scenarios != scenarios || len(res.Bugs) != 1 || res.Bugs[0].Type != BugCrash || res.Bugs[0].Count != scenarios {
			t.Fatalf("%d scenarios, bugs %v; want %d scenarios, each one crash", res.Scenarios, res.Bugs, scenarios)
		}
		if live := peak.Load(); live > 2 || live < 1 {
			t.Errorf("%d goroutines live beyond the engine's, want the two guest threads", live)
		}
		for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > base+2 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base+2 || n < base-2 {
			t.Errorf("%d goroutines after Run, %d before", n, base)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	small := heapAfter(200)
	big := heapAfter(2000)
	t.Logf("heap in use after a GC: %d B after 200 scenarios, %d B after 2 000", small, big)
	if big > 2*small {
		t.Errorf("heap in use after 2 000 scenarios %d B, after 200 %d B", big, small)
	}
}

// recordingSink is a LeaseSink that keeps every commit's delta.
type recordingSink struct{ deltas []*WireStats }

func (s *recordingSink) Hungry() bool   { return false }
func (s *recordingSink) Stopped() bool  { return false }
func (s *recordingSink) Draining() bool { return false }
func (s *recordingSink) Commit(_, _ []WireClaim, delta *WireStats, _ bool) error {
	s.deltas = append(s.deltas, delta)
	return nil
}

// TestLeaseRunnerPoisonClaim: a claim whose scenarios crash the guest is a
// bug report for the coordinator, not the end of the worker process.
func TestLeaseRunnerPoisonClaim(t *testing.T) {
	sink := &recordingSink{}
	if err := NewLeaseRunner(indexCrashProgram(), Options{}).RunLease([]WireClaim{{}}, sink); err != nil {
		t.Fatal(err)
	}
	crashes := 0
	for _, d := range sink.deltas {
		for _, b := range d.bugs {
			if b.Type == BugCrash {
				crashes += b.Count
			}
		}
	}
	if crashes == 0 {
		t.Errorf("%d commits, no crash among them", len(sink.deltas))
	}
}
