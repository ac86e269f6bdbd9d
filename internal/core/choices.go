package core

import (
	"fmt"
	"slices"
	"strings"

	"jaaru/internal/obs"
)

// choiceKind labels the two sources of nondeterminism the checker explores:
// whether to inject a failure at an eligible failure point, and which
// pre-failure store a post-failure load byte reads from.
type choiceKind uint8

const (
	chooseFail choiceKind = iota
	chooseReadFrom
	chooseEvict
)

func (k choiceKind) String() string {
	switch k {
	case chooseFail:
		return "fail"
	case chooseReadFrom:
		return "rf"
	case chooseEvict:
		return "evict"
	default:
		return "?"
	}
}

// choicePoint is one recorded nondeterministic decision.
type choicePoint struct {
	kind choiceKind
	n    int // number of options
	idx  int // option currently being explored
}

// chooser is the replay-based exploration engine's choice stack. A scenario
// run consults it at every nondeterministic point: within the recorded
// prefix it replays, beyond it it appends new points taking option 0.
// advance moves depth-first to the next unexplored branch.
//
// For parallel exploration, each point carries an exploration limit (an
// exclusive upper bound on the options this chooser will itself visit,
// normally n): seedClaim installs a claimed vector with its limits, and split
// carves half of the unvisited sibling options off as one claim for another
// worker, lowering the local limits so the donor never revisits them.
type chooser struct {
	points []choicePoint
	limit  []int // per-point exclusive exploration bound, limit[i] <= points[i].n
	// aux carries the POR layer's per-point memo (failMemo for failure
	// decisions, nil otherwise), kept in lockstep with points by seedClaim,
	// choose and advance. A point's memo describes state that is a pure
	// function of the choice prefix leading to it, so it stays valid for as
	// long as the point itself survives backtracking.
	aux    []*failMemo
	cursor int

	// newPoints counts distinct choice points discovered, by kind —
	// exploration statistics for Result.
	newPoints [3]int

	// stable is the number of leading points guaranteed unchanged since the
	// snapshot machinery last validated its entries against this vector
	// (usableSnapshot resets it to MaxInt after a scan): advance only flips
	// the deepest surviving index, and choose only appends, so a snapshot
	// whose depth is <= stable still prefix-matches without comparing.
	// Accumulated as a min so multiple mutations between scans compose.
	stable int

	// col is the owning checker's observability shard (nil when disabled).
	col *obs.Collector
}

// begin resets the replay cursor for a fresh scenario run.
func (ch *chooser) begin() { ch.cursor = 0 }

// choose returns the option index for the next nondeterministic point, which
// must present the same kind and option count on replay.
func (ch *chooser) choose(kind choiceKind, n int) int {
	if n <= 0 {
		panic(engineError{fmt.Sprintf("choice with %d options", n)})
	}
	if ch.cursor < len(ch.points) {
		p := ch.points[ch.cursor]
		if p.kind != kind || p.n != n {
			panic(engineError{fmt.Sprintf(
				"nondeterministic replay: recorded %v/%d, got %v/%d at %d",
				p.kind, p.n, kind, n, ch.cursor)})
		}
		ch.cursor++
		ch.col.Inc(obs.ChoicesReplayed)
		return p.idx
	}
	ch.points = append(ch.points, choicePoint{kind: kind, n: n})
	ch.limit = append(ch.limit, n)
	ch.aux = append(ch.aux, nil)
	ch.cursor++
	ch.newPoints[kind]++
	ch.col.Inc(obs.ChoicesFresh)
	return 0
}

// seedClaim installs a claimed branch: a choice vector with per-point
// exploration limits and optional POR memos. nil limits freeze every point at
// its recorded option (limit = idx+1: a replayed bug vector, and the empty
// root claim); a donated split or a residual requeued after a lease expiry
// carries idx < limit[i] <= n at points whose unexplored siblings come with
// it, and the claimant resumes exactly there: the vector is replayed as the
// first scenario, then advance walks the remaining siblings. Memos let the
// claimant's porPruneSweep re-clamp failure decisions whose crash state was
// already published without re-deriving the fingerprint.
func (ch *chooser) seedClaim(prefix []choicePoint, limits []int, memos []*failMemo) {
	ch.points = append(ch.points[:0], prefix...)
	ch.limit = ch.limit[:0]
	ch.aux = ch.aux[:0]
	for i, p := range prefix {
		lim := p.idx + 1
		if limits != nil {
			lim = limits[i]
		}
		ch.limit = append(ch.limit, lim)
		var m *failMemo
		if memos != nil {
			m = memos[i]
		}
		ch.aux = append(ch.aux, m)
	}
	ch.cursor = 0
	ch.stable = 0
}

// claimSnapshot exports the chooser's current claim — points, limits and POR
// memos — as the residual a lease commit publishes: re-seeding the snapshot
// with seedClaim and exploring covers exactly the work this chooser has not
// yet visited (the current vector and every remaining in-limit sibling).
// Limits are exported verbatim: donation lowers must stay lowered (the
// donated subtrees were pushed), and POR clamps must stay clamped (their
// analytic delta is part of the same commit's cumulative stats, so a
// claimant re-applying it would double-count).
func (ch *chooser) claimSnapshot() WireClaim {
	br := WireClaim{
		points: append([]choicePoint(nil), ch.points...),
		limits: append([]int(nil), ch.limit...),
	}
	if slices.ContainsFunc(ch.aux, func(m *failMemo) bool { return m != nil }) {
		br.memos = append([]*failMemo(nil), ch.aux...)
	}
	return br
}

// advance backtracks depth-first: exhausted trailing points are popped, the
// deepest unexhausted point advances to its next option. It reports false
// when the whole (claimed) space has been explored.
func (ch *chooser) advance() bool {
	for len(ch.points) > 0 {
		i := len(ch.points) - 1
		top := &ch.points[i]
		if top.idx+1 < ch.limit[i] {
			top.idx++
			if i < ch.stable {
				ch.stable = i
			}
			return true
		}
		ch.points = ch.points[:i]
		ch.limit = ch.limit[:i]
		ch.aux[i] = nil
		ch.aux = ch.aux[:i]
	}
	return false
}

// split donates work: the shallow half of every sibling option this chooser
// has not yet visited, as one claim. With open[i] = limit[i] - idx[i] - 1 and
// T their sum, it finds the smallest depth d whose prefix sum of open reaches
// ceil(T/2) and hands out points[:d+1] with the original limits and memos of
// [0, d]: every open option above d, plus the last options at d down to the
// one that completes the half, where the claim's vector starts. The local
// limits are lowered to match (idx+1 above d, the donated boundary at d), so
// the claim and the donor partition the donor's previous open set exactly.
// The claimant replays that vector once and advance walks the rest, as for
// any residual (seedClaim).
//
// Half of everything, not the shallowest sibling: every workload here forks
// at each failure point of one pre-failure chain, so its tree is a comb — one
// recovery subtree per tooth — and the shallowest point with an open option
// is a single tooth. The shallow half is also the cheap half to enter (the
// shortest pre-failure replay) and leaves the donor's snapshot stack, which
// serves the deep half, untouched. A POR-clamped point (limit == idx+1) has
// no open option and is never donated. ok is false when nothing is open.
func (ch *chooser) split() (br WireClaim, ok bool) {
	total := 0
	for i, p := range ch.points {
		total += ch.limit[i] - p.idx - 1
	}
	if total == 0 {
		return WireClaim{}, false
	}
	need, d := (total+1)/2, 0
	for ; ; d++ {
		open := ch.limit[d] - ch.points[d].idx - 1
		if open >= need {
			break
		}
		need -= open
	}
	br = WireClaim{
		points: append([]choicePoint(nil), ch.points[:d+1]...),
		limits: append([]int(nil), ch.limit[:d+1]...),
		memos:  append([]*failMemo(nil), ch.aux[:d+1]...),
	}
	first := ch.limit[d] - need
	br.points[d].idx = first
	for i := range ch.points[:d] {
		ch.limit[i] = ch.points[i].idx + 1
	}
	ch.limit[d] = first
	return br, true
}

// describe renders the decisions of the current scenario for bug reports,
// e.g. "fail@3 rf[2/4] rf[0/2]" — failed at the 4th eligible failure point,
// then picked candidates 2-of-4 and 0-of-2.
func (ch *chooser) describe() string { return describeChoices(ch.points) }

// describeChoices renders an arbitrary choice vector (see chooser.describe).
func describeChoices(points []choicePoint) string {
	var b strings.Builder
	failIdx := 0
	for _, p := range points {
		switch p.kind {
		case chooseFail:
			if p.idx == 1 {
				fmt.Fprintf(&b, "fail@%d ", failIdx)
			}
			failIdx++
		case chooseReadFrom:
			fmt.Fprintf(&b, "rf[%d/%d] ", p.idx, p.n)
		case chooseEvict:
			if p.idx == 1 {
				b.WriteString("evict ")
			}
		}
	}
	return strings.TrimSpace(b.String())
}
