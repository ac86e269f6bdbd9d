package core

import (
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
func claimLeaves(shape []choicePoint, br WireClaim) map[string]int {
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
// the claim takes ceil(T/2) of the T open options, and it survives the wire
// codec into seedClaim unchanged.
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
		before := WireClaim{
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
					before.memos[i].vec = &obs.CounterVec{obs.Steps: rng.Int63n(10000)}
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

		// Through the wire codec and back into a chooser.
		e := NewWireEncoder(nil)
		e.claim(&don)
		dec := NewWireDecoder(e.Bytes())
		got := dec.claim()
		if err := dec.Done(); err != nil {
			t.Fatalf("iter %d: decode: %v", iter, err)
		}
		kept := claimLeaves(shape, WireClaim{donor.points, donor.limit, donor.aux})
		if !reflect.DeepEqual(got.memos, don.memos) && !(got.memos == nil && allNil(don.memos)) {
			t.Fatalf("iter %d: memos differ:\nwant %v\ngot  %v", iter, don.memos, got.memos)
		}
		given := claimLeaves(shape, got)
		if len(given)+len(kept) != len(want) {
			t.Fatalf("iter %d: claim covers %d leaves and the donor %d, together not the previous %d",
				iter, len(given), len(kept), len(want))
		}
		for _, part := range []map[string]int{given, kept} {
			for leaf, n := range part {
				if n != 1 || want[leaf] != 1 {
					t.Fatalf("iter %d: leaf %s visited %d times (donor before the split: %d)",
						iter, leaf, n, want[leaf])
				}
			}
		}
		for leaf := range given {
			if kept[leaf] != 0 {
				t.Fatalf("iter %d: leaf %s is in the claim and still with the donor", iter, leaf)
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

// testFrontier is a Frontier over a fresh accumulator, its root claim queued.
func testFrontier(opts Options) *Frontier {
	return NewFrontier(NewMergeAcc(parallelTreeProgram(), opts), nil)
}

func TestFrontierDrainsAndReleases(t *testing.T) {
	f := testFrontier(Options{})
	br, ok := f.next("w1")
	if !ok || br.points != nil {
		t.Fatalf("next = %v, %v", br, ok)
	}
	// The single claim is out: a concurrent claimant must block until its
	// retire ends the exploration, then give up.
	released := make(chan bool)
	go func() {
		_, ok := f.next("w2")
		released <- ok
	}()
	f.Retire(nil)
	if got := <-released; got {
		t.Fatal("next returned a claim from a drained Frontier")
	}
	if res := f.Result(); res == nil || !res.Complete {
		t.Fatalf("drained Frontier's result = %+v, want a complete one", res)
	}
}

// TestFrontierCapRule drives the one cap rule through both of its inputs: an
// in-process worker's admit before each scenario and ran after it, and a
// fleet's Commit. A window is some scenarios, then bug reports from
// separate sources (workers, or commits); both paths must stop in the same
// window, or not at all, and report the same completeness.
func TestFrontierCapRule(t *testing.T) {
	type window struct {
		scenarios int
		bugs      []string
	}
	cases := []struct {
		name   string
		opts   Options
		wins   []window
		stopIn int // index of the window the cap fires in; -1: never
	}{
		{"MaxScenarios", Options{MaxScenarios: 5}, []window{{3, nil}, {3, nil}, {1, nil}}, 1},
		{"MaxScenarios not reached", Options{MaxScenarios: 10}, []window{{3, nil}, {3, nil}}, -1},
		{"MaxBugs", Options{MaxBugs: 2}, []window{{1, []string{"a"}}, {1, []string{"b"}}}, 1},
		{"StopAtFirstBug", Options{StopAtFirstBug: true}, []window{{2, nil}, {1, []string{"a"}}}, 1},
		{"same key twice in one window", Options{MaxBugs: 2},
			[]window{{1, []string{"a", "a"}}, {1, []string{"a"}}}, -1},
	}
	paths := map[string]func(f *Frontier, w window){
		"admit": func(f *Frontier, w window) {
			for i := 0; i < w.scenarios; i++ {
				f.admit()
			}
			for _, msg := range w.bugs {
				f.ran([]*BugReport{{Type: BugAssertion, Message: msg}})
			}
		},
		"commit": func(f *Frontier, w window) {
			f.Commit(&WireStats{stats: stats{scenarios: w.scenarios}}, nil, nil, false)
			for _, msg := range w.bugs {
				delta := &WireStats{stats: stats{bugs: []*BugReport{{Type: BugAssertion, Message: msg, Count: 1}}}}
				f.Commit(delta, nil, nil, false)
			}
		},
	}
	for _, tc := range cases {
		for path, run := range paths {
			f := testFrontier(tc.opts)
			if _, ok := f.Take("w1"); !ok {
				t.Fatalf("%s/%s: root claim not handed out", tc.name, path)
			}
			stopIn := -1
			for i, w := range tc.wins {
				run(f, w)
				if f.Stopped() && stopIn < 0 {
					stopIn = i
				}
			}
			if stopIn != tc.stopIn {
				t.Errorf("%s/%s: cap fired in window %d, want %d", tc.name, path, stopIn, tc.stopIn)
			}
			if f.Result() != nil {
				t.Errorf("%s/%s: result built while a claim is out", tc.name, path)
			}
			f.Retire(nil)
			if res := f.Result(); res == nil || res.Complete != (tc.stopIn < 0) {
				t.Errorf("%s/%s: result %+v, want Complete %v", tc.name, path, res, tc.stopIn < 0)
			}
		}
	}
}

// ---- parallel driver ----------------------------------------------------------

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
	f := testFrontier(Options{}) // nobody waits on it: no donations from this claim
	// The program's first choice point is fail/2; this prefix claims to
	// have recorded rf/7 there.
	br := WireClaim{points: []choicePoint{{kind: chooseReadFrom, n: 7, idx: 3}}}
	c.exploreClaim(br, f)

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

// TestSharedCapsConcurrentSameBug: the same canonical bug key reported
// concurrently by many workers counts once — toward MaxBugs and toward the
// StopAtFirstBug trigger — because the Frontier dedupes by key before any cap
// accounting. Run under -race: the fleet's commit path counts keys through
// the same rule (TestFrontierCapRule).
func TestSharedCapsConcurrentSameBug(t *testing.T) {
	report := func(f *Frontier, msg string) {
		var wg sync.WaitGroup
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < 200; j++ {
					f.ran([]*BugReport{{Type: BugAssertion, Message: msg}})
				}
			}()
		}
		wg.Wait()
	}
	f := testFrontier(Options{StopAtFirstBug: true})
	report(f, "same-key")
	if _, _, n, _ := f.Progress(); n != 1 {
		t.Errorf("concurrent same-key reports left %d keys, want 1", n)
	}
	if !f.Stopped() {
		t.Error("StopAtFirstBug did not request a stop")
	}

	// Duplicates must not inflate the MaxBugs count either: 16×200 reports
	// of one key stay one bug, below a cap of 2; the second distinct key
	// reaches it.
	f = testFrontier(Options{MaxBugs: 2})
	report(f, "first")
	if f.Stopped() {
		t.Fatal("duplicate bug keys counted toward MaxBugs")
	}
	f.ran([]*BugReport{{Type: BugAssertion, Message: "second"}})
	if !f.Stopped() {
		t.Error("MaxBugs = 2 did not stop at the second distinct bug")
	}
}
