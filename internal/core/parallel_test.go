package core

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"jaaru/internal/obs"
)

func timeNowForTest() time.Time { return time.Now() }

// ---- chooser splitting -------------------------------------------------------

// open counts the sibling options a chooser has not yet visited.
func (ch *chooser) open() int {
	total := 0
	for i, p := range ch.points {
		total += ch.limit[i] - p.idx - 1
	}
	return total
}

// claimLeaves seeds a fresh chooser with br and explores it to exhaustion on
// a synthetic tree whose level k presents shape[k] (kind and option count):
// it returns how often each leaf — a full choice vector — was visited.
func claimLeaves(shape []choicePoint, br branch) map[string]int {
	ch := &chooser{}
	ch.seedClaim(br.points, br.limits, br.memos)
	seen := make(map[string]int)
	for {
		ch.begin()
		leaf := make([]byte, len(shape))
		for k, p := range shape {
			leaf[k] = byte('0' + ch.choose(p.kind, p.n))
		}
		seen[string(leaf)]++
		if !ch.advance() {
			return seen
		}
	}
}

// TestSplitPartitionsOpenSet is the partition property of chooser.split over
// random chooser states — partial limits, POR-clamped fail decisions, memos,
// points with more than two options: the donated claim and the donor's
// lowered limits cover the donor's previous leaves exactly once between them,
// the claim takes ceil(T/2) of the T open options, and it survives both wire
// codecs into seedClaim unchanged.
func TestSplitPartitionsOpenSet(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5917))
	kinds := []choiceKind{chooseFail, chooseFail, chooseReadFrom, chooseEvict}
	for iter := 0; iter < 500; iter++ {
		// The tree: up to 14 levels, at most 4096 leaves (levels past the cap
		// present a single option), in random order.
		shape := make([]choicePoint, 1+rng.Intn(14))
		leaves := 1
		for k := range shape {
			kind := kinds[rng.Intn(len(kinds))]
			n := 2
			if kind != chooseFail {
				n = 1 + rng.Intn(5)
			}
			if leaves*n > 4096 {
				kind, n = chooseReadFrom, 1
			}
			leaves *= n
			shape[k] = choicePoint{kind: kind, n: n}
		}
		rng.Shuffle(len(shape), func(a, b int) { shape[a], shape[b] = shape[b], shape[a] })

		// The donor: a random claim over the first depth <= 12 levels.
		depth := rng.Intn(min(12, len(shape)) + 1)
		before := branch{
			points: append([]choicePoint(nil), shape[:depth]...),
			limits: make([]int, depth),
			memos:  make([]*failMemo, depth),
		}
		for i := range before.points {
			p := &before.points[i]
			p.idx = rng.Intn(p.n)
			before.limits[i] = p.idx + 1 + rng.Intn(p.n-p.idx)
			if p.kind == chooseFail {
				if p.idx == 0 && rng.Intn(3) == 0 {
					before.limits[i] = 1 // POR clamp: the sibling is accounted, never donated
				}
				if rng.Intn(2) == 0 {
					before.memos[i] = &failMemo{fp: rng.Uint64(), steps: rng.Int63n(1 << 20)}
					before.memos[i].vec[obs.Steps] = rng.Int63n(10000)
				}
			}
		}
		want := claimLeaves(shape, before)

		donor := &chooser{}
		donor.seedClaim(before.points, before.limits, before.memos)
		total := donor.open()
		don, ok := donor.split()
		if ok != (total > 0) {
			t.Fatalf("iter %d: split ok = %v with %d open options", iter, ok, total)
		}
		if !ok {
			continue
		}
		d := len(don.points) - 1
		claim := &chooser{}
		claim.seedClaim(don.points, don.limits, don.memos)
		// The claim's own vector is one of the donated options.
		if got, half := claim.open()+1, (total+1)/2; got != half || donor.open() != total-half {
			t.Fatalf("iter %d: donated %d of %d open options, donor keeps %d; want %d and %d",
				iter, got, total, donor.open(), half, total-half)
		}
		for i := range don.points {
			if don.limits[i] != before.limits[i] || don.memos[i] != before.memos[i] {
				t.Fatalf("iter %d: claim point %d carries limit %d memo %p, donor had %d %p",
					iter, i, don.limits[i], don.memos[i], before.limits[i], before.memos[i])
			}
			if i < d && donor.limit[i] != donor.points[i].idx+1 {
				t.Fatalf("iter %d: donor keeps open options at depth %d above the split depth %d", iter, i, d)
			}
		}

		// Through both codecs and back into a chooser.
		w := encodeClaim(don.points, don.limits, don.memos)
		data, err := json.Marshal(w)
		if err != nil {
			t.Fatal(err)
		}
		var v1 WireClaim
		if err := json.Unmarshal(data, &v1); err != nil {
			t.Fatal(err)
		}
		e := NewWireEncoder(nil)
		e.Claim(w)
		dec := NewWireDecoder(e.Bytes())
		v2 := dec.Claim()
		if err := dec.Done(); err != nil {
			t.Fatalf("iter %d: v2 decode: %v", iter, err)
		}
		kept := claimLeaves(shape, branch{donor.points, donor.limit, donor.aux})
		for codec, wc := range map[string]WireClaim{"v1": v1, "v2": v2} {
			pts, limits, memos, err := wc.compile()
			if err != nil {
				t.Fatalf("iter %d: %s compile: %v", iter, codec, err)
			}
			if !reflect.DeepEqual(memos, don.memos) && !(memos == nil && allNil(don.memos)) {
				t.Fatalf("iter %d: %s memos differ:\nwant %v\ngot  %v", iter, codec, don.memos, memos)
			}
			given := claimLeaves(shape, branch{pts, limits, memos})
			if len(given)+len(kept) != len(want) {
				t.Fatalf("iter %d (%s): claim covers %d leaves and the donor %d, together not the previous %d",
					iter, codec, len(given), len(kept), len(want))
			}
			for _, part := range []map[string]int{given, kept} {
				for leaf, n := range part {
					if n != 1 || want[leaf] != 1 {
						t.Fatalf("iter %d (%s): leaf %s visited %d times (donor before the split: %d)",
							iter, codec, leaf, n, want[leaf])
					}
				}
			}
			for leaf := range given {
				if kept[leaf] != 0 {
					t.Fatalf("iter %d (%s): leaf %s is in the claim and still with the donor", iter, codec, leaf)
				}
			}
		}
	}
}

func allNil(memos []*failMemo) bool {
	for _, m := range memos {
		if m != nil {
			return false
		}
	}
	return true
}

// TestSplitDrainsCombLogarithmically: the exploration tree of a guest with
// one failure-point chain is a comb — one recovery subtree (here: one rf
// point) per failure point. Two workers of unequal speed share a 600-tooth
// comb, the idle one always hungry: every leaf is visited once, and because a
// donation is half the donor's open options, each worker donates O(log n)
// times. Donating the shallowest open sibling — one tooth — took O(n).
func TestSplitDrainsCombLogarithmically(t *testing.T) {
	const teeth = 600
	seen := make(map[string]int)
	visit := func(ch *chooser) {
		ch.begin()
		for k := 0; k < teeth; k++ {
			if ch.choose(chooseFail, 2) == 1 {
				seen[fmt.Sprintf("%d/%d", k, ch.choose(chooseReadFrom, 2))]++
				return
			}
		}
		seen["end"]++
	}
	type worker struct {
		ch        *chooser // nil: idle, asking for work
		speed     int      // scenarios per round
		donations int
	}
	ws := []*worker{{ch: &chooser{}, speed: 1}, {speed: 3}}
	for rounds := 0; ws[0].ch != nil || ws[1].ch != nil; rounds++ {
		if rounds > 4*teeth {
			t.Fatal("the comb did not drain")
		}
		for i, w := range ws {
			for n := 0; n < w.speed && w.ch != nil; n++ {
				visit(w.ch)
				if peer := ws[1-i]; peer.ch == nil {
					if don, ok := w.ch.split(); ok {
						w.donations++
						peer.ch = &chooser{}
						peer.ch.seedClaim(don.points, don.limits, don.memos)
					}
				}
				if !w.ch.advance() {
					w.ch = nil
				}
			}
		}
	}
	if len(seen) != 2*teeth+1 {
		t.Errorf("visited %d distinct leaves, want %d", len(seen), 2*teeth+1)
	}
	for leaf, n := range seen {
		if n != 1 {
			t.Errorf("leaf %s visited %d times", leaf, n)
		}
	}
	bound := 2 * bits.Len(teeth)
	for i, w := range ws {
		t.Logf("worker %d (speed %d): %d donations", i, w.speed, w.donations)
		if w.donations > bound {
			t.Errorf("worker %d donated %d times on a %d-tooth comb, want <= %d", i, w.donations, teeth, bound)
		}
	}
}

// ---- frontier ---------------------------------------------------------------

func TestFrontierDrainsAndReleases(t *testing.T) {
	f := newFrontier(nil)
	f.push(branch{})
	br, ok := f.pop()
	if !ok || br.points != nil {
		t.Fatalf("pop = %v, %v", br, ok)
	}
	// The single claim is outstanding: a concurrent popper must block
	// until finish drops pending to zero, then give up.
	released := make(chan bool)
	go func() {
		_, ok := f.pop()
		released <- ok
	}()
	f.finish()
	if got := <-released; got {
		t.Fatal("pop returned a branch from a drained frontier")
	}
}

// ---- parallel equivalence (in-package: exact choice-point accounting) --------

func parallelTreeProgram() Program {
	// Several failure points and multi-candidate loads: a tree with real
	// width at several depths.
	return Program{
		Name: "parallel-tree",
		Run: func(c *Context) {
			r := c.Root()
			for i := uint64(0); i < 4; i++ {
				c.Store64(r.Add(i*8), i+1)
				c.Store64(r.Add(i*8), i+100)
				c.Clflush(r.Add(i*8), 8)
			}
		},
		Recover: func(c *Context) {
			r := c.Root()
			for i := uint64(0); i < 4; i++ {
				_ = c.Load64(r.Add(i * 8))
			}
		},
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	serial := New(parallelTreeProgram(), Options{}).Run()
	for _, workers := range []int{2, 4, 7} {
		par := New(parallelTreeProgram(), Options{Workers: workers}).Run()
		assertSameExploration(t, fmt.Sprintf("workers=%d", workers), serial, par)
	}
}

func TestParallelMatchesSerialWithBugs(t *testing.T) {
	prog := Program{
		Name: "parallel-bugs",
		Run: func(c *Context) {
			r := c.Root()
			c.Store64(r, 7)
			c.Clflush(r, 8)
			c.Store64(r.Add(64), 9)
			c.Clflush(r.Add(64), 8)
		},
		Recover: func(c *Context) {
			r := c.Root()
			a, b := c.Load64(r), c.Load64(r.Add(64))
			c.Assert(b == 0 || a == 7, "second line persisted before first: a=%d b=%d", a, b)
			if a == 7 && b == 9 {
				c.Bug("both lines persisted")
			}
		},
	}
	serial := New(prog, Options{}).Run()
	if !serial.Buggy() {
		t.Fatal("program expected to be buggy")
	}
	par := New(prog, Options{Workers: 4}).Run()
	assertSameExploration(t, "workers=4", serial, par)
	for i := range serial.Bugs {
		s, p := serial.Bugs[i], par.Bugs[i]
		if s.Type != p.Type || s.Message != p.Message || s.Count != p.Count || s.Choices != p.Choices {
			t.Errorf("bug %d differs:\nserial: %v (%s)\nparallel: %v (%s)",
				i, s, s.Choices, p, p.Choices)
		}
	}
}

func assertSameExploration(t *testing.T, label string, serial, par *Result) {
	t.Helper()
	if par.Scenarios != serial.Scenarios {
		t.Errorf("%s: Scenarios = %d, serial %d", label, par.Scenarios, serial.Scenarios)
	}
	if par.Executions != serial.Executions {
		t.Errorf("%s: Executions = %d, serial %d", label, par.Executions, serial.Executions)
	}
	if par.FailurePoints != serial.FailurePoints {
		t.Errorf("%s: FailurePoints = %d, serial %d", label, par.FailurePoints, serial.FailurePoints)
	}
	if par.Steps != serial.Steps {
		t.Errorf("%s: Steps = %d, serial %d", label, par.Steps, serial.Steps)
	}
	if par.RFChoicePoints != serial.RFChoicePoints {
		t.Errorf("%s: RFChoicePoints = %d, serial %d", label, par.RFChoicePoints, serial.RFChoicePoints)
	}
	if par.FailDecisionPoints != serial.FailDecisionPoints {
		t.Errorf("%s: FailDecisionPoints = %d, serial %d", label, par.FailDecisionPoints, serial.FailDecisionPoints)
	}
	if par.MaxRFCandidates != serial.MaxRFCandidates {
		t.Errorf("%s: MaxRFCandidates = %d, serial %d", label, par.MaxRFCandidates, serial.MaxRFCandidates)
	}
	if par.Complete != serial.Complete {
		t.Errorf("%s: Complete = %v, serial %v", label, par.Complete, serial.Complete)
	}
	if len(par.Bugs) != len(serial.Bugs) {
		t.Errorf("%s: %d bugs, serial %d", label, len(par.Bugs), len(serial.Bugs))
	}
}

// TestParallelScenarioCap: the global admission counter must stop the
// whole fleet at exactly MaxScenarios.
func TestParallelScenarioCap(t *testing.T) {
	res := New(parallelTreeProgram(), Options{Workers: 4, MaxScenarios: 5}).Run()
	if res.Scenarios != 5 {
		t.Errorf("Scenarios = %d, want the cap 5", res.Scenarios)
	}
	if res.Complete {
		t.Error("capped exploration reported complete")
	}
}

// TestParallelStopAtFirstBug: the stop is cooperative, but exploration must
// terminate early and report at least the bug.
func TestParallelStopAtFirstBug(t *testing.T) {
	prog := Program{
		Name: "stop-first",
		Run: func(c *Context) {
			r := c.Root()
			for i := uint64(0); i < 12; i++ {
				c.Store64(r.Add(i*64), i+1)
				c.Clflush(r.Add(i*64), 8)
			}
		},
		Recover: func(c *Context) {
			if c.Load64(c.Root()) == 0 {
				c.Bug("first line unpersisted")
			}
		},
	}
	res := New(prog, Options{Workers: 4, StopAtFirstBug: true}).Run()
	if !res.Buggy() {
		t.Fatal("no bug found")
	}
	if res.Complete {
		t.Error("StopAtFirstBug exploration reported complete")
	}
}

// TestParallelEngineBugGuard: replaying a claimed prefix against a program
// whose choice shape does not match (the signature of a nondeterministic
// guest) raises an internal engine panic. A worker must convert it into a
// reported BugEngine carrying the offending prefix and mark its stats
// truncated, instead of crashing the whole exploration.
func TestParallelEngineBugGuard(t *testing.T) {
	c := New(parallelTreeProgram(), Options{})
	f := newFrontier(nil) // nobody waits on it: no donations from this claim
	caps := newSharedCaps(c.opts, f)
	// The program's first choice point is fail/2; this prefix claims to
	// have recorded rf/7 there.
	br := branch{points: []choicePoint{{kind: chooseReadFrom, n: 7, idx: 3}}}
	c.exploreBranch(br, f, caps)

	if len(c.bugs) != 1 || c.bugs[0].Type != BugEngine {
		t.Fatalf("bugs = %v, want one BugEngine", c.bugs)
	}
	if got := c.bugs[0].Choices; got != describeChoices(br.points) {
		t.Errorf("engine bug Choices = %q, want the claimed prefix", got)
	}
	if !c.truncated {
		t.Error("abandoned subtree did not mark the stats truncated")
	}
	// The truncation must surface as an incomplete Result after a merge.
	agg := New(parallelTreeProgram(), Options{})
	agg.stats.merge(&c.stats)
	if res := agg.buildResult(timeNowForTest(), true); res.Complete {
		t.Error("merged result with a truncated worker reported complete")
	}
}

// TestWorkersDefaultsToSerial: Workers 0/1 take the serial path and negative
// resolves to GOMAXPROCS.
func TestWorkersDefaultsToSerial(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Workers != 1 {
		t.Errorf("default Workers = %d, want 1", o.Workers)
	}
	o = Options{Workers: -1}.withDefaults()
	if o.Workers < 1 {
		t.Errorf("Workers(-1) resolved to %d", o.Workers)
	}
	res := New(parallelTreeProgram(), Options{Workers: -1}).Run()
	if !res.Complete {
		t.Error("GOMAXPROCS exploration incomplete")
	}
}

// ---- distributed-era regression tests ----------------------------------------

// TestParallelSmallTreeManyWorkers: many more workers than scenarios. The
// frontier's refill path (pop's wait and the donations it solicits) must not stall
// when the tree is exhausted before most workers ever receive a branch: pop
// blocks only while claims are outstanding (pending > 0) and every consumer
// is released by the final finish broadcast. Regression test for the
// small-tree liveness audit documented on frontier.pop.
func TestParallelSmallTreeManyWorkers(t *testing.T) {
	prog := Program{
		Name: "litmus-tiny",
		Run: func(c *Context) {
			r := c.Root()
			c.Store64(r, 1)
			c.Clflush(r, 8)
		},
		Recover: func(c *Context) { _ = c.Load64(c.Root()) },
	}
	serial := New(prog, Options{}).Run()
	if serial.Scenarios > 4 {
		t.Fatalf("litmus workload grew to %d scenarios; this test needs workers >> scenarios", serial.Scenarios)
	}
	// The stall this guards against was timing-dependent: iterate to give
	// the 8-worker pool many chances to race pop/finish/stop.
	for i := 0; i < 50; i++ {
		par := New(prog, Options{Workers: 8}).Run()
		assertSameExploration(t, fmt.Sprintf("iter %d", i), serial, par)
	}
}

// TestSharedCapsConcurrentSameBug: the same canonical bug key reported
// concurrently by many workers counts once — toward MaxBugs and toward the
// StopAtFirstBug trigger — because noteBug dedupes by key before any cap
// accounting. Run under -race: this is the contract documented on noteBug
// and mirrored by the distributed coordinator's commit handler.
func TestSharedCapsConcurrentSameBug(t *testing.T) {
	caps := newSharedCaps(Options{StopAtFirstBug: true}.withDefaults(), newFrontier(nil))
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				caps.noteBug("assert:same-key")
			}
		}()
	}
	wg.Wait()
	if n := len(caps.keys); n != 1 {
		t.Errorf("concurrent same-key reports left %d keys, want 1", n)
	}
	if !caps.stopped.Load() {
		t.Error("StopAtFirstBug did not request a stop")
	}

	// Duplicates must not inflate the MaxBugs count either: 16×200 reports
	// of one key stay one bug, below a cap of 2; the second distinct key
	// reaches it.
	caps = newSharedCaps(Options{MaxBugs: 2}.withDefaults(), newFrontier(nil))
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				caps.noteBug("assert:first")
			}
		}()
	}
	wg.Wait()
	if caps.stopped.Load() {
		t.Fatal("duplicate bug keys counted toward MaxBugs")
	}
	caps.noteBug("assert:second")
	if !caps.stopped.Load() {
		t.Error("MaxBugs = 2 did not stop at the second distinct bug")
	}
}
