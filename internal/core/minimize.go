package core

// Witness minimization: greedy delta debugging (ddmin) over a bug's recorded
// choice vector. The exploration's replay prefix is often much longer than
// the decisions that actually matter — evictions and read-from picks that the
// bug does not depend on. Minimize searches for a locally-minimal
// subsequence of the prefix that still reproduces the same bug key, giving
// the developer the shortest decision sequence to reason about.

import (
	"jaaru/internal/forensics"
	"jaaru/internal/pmem"
)

// minimizeMaxTrials bounds the number of replay trials one Minimize call may
// spend. Each trial is a full scenario re-execution; 512 is well above what
// ddmin needs on the bundled workloads (the 25 seeded bugs take 1 266 trials
// together, pmdk#4 the most at 118) but keeps a pathological guest from
// running unbounded.
const minimizeMaxTrials = 512

// Minimize runs greedy delta debugging over b's recorded choice prefix and
// returns a copy of the report whose replay vector is locally minimal — no
// single recorded decision can be dropped without losing the bug — together
// with the minimization statistics. The returned report reproduces a bug
// with the same (type, message) key as b and its prefix is never longer than
// the original (ddmin only removes decisions). prog and opts must match the
// exploration that produced b. A report whose choice vector was lost
// (BugReport.replayable) comes back unchanged, with zero trials.
//
// The trials share recycled scenario storage (trialStore), as consecutive
// scenarios of an exploration do, and each starts from resetScenario's fresh
// state. Trials run without the finding flags (minimizeTrial): they only ask
// whether the bug key reproduces.
func Minimize(prog Program, opts Options, b *BugReport) (*BugReport, *forensics.Minimization) {
	if !b.replayable() {
		nb := *b
		return &nb, &forensics.Minimization{OriginalChoices: b.Choices, MinimizedChoices: b.Choices}
	}
	key := b.key()
	cur := append([]choicePoint(nil), b.replay...)
	trials := 0
	store := &trialStore{pool: pmem.NewPool()}

	// Classic ddmin: remove progressively finer chunks; on success restart
	// coarse, on a full failed sweep double the granularity.
	n := 2
	for len(cur) > 0 && trials < minimizeMaxTrials {
		chunk := (len(cur) + n - 1) / n
		reduced := false
		for start := 0; start < len(cur) && trials < minimizeMaxTrials; start += chunk {
			end := start + chunk
			if end > len(cur) {
				end = len(cur)
			}
			cand := make([]choicePoint, 0, len(cur)-(end-start))
			cand = append(cand, cur[:start]...)
			cand = append(cand, cur[end:]...)
			trials++
			if minimizeTrial(prog, opts, store, cand, key) {
				cur = cand
				if n > 2 {
					n--
				}
				reduced = true
				break
			}
		}
		if !reduced {
			if chunk <= 1 {
				break // locally minimal: no single decision is removable
			}
			n *= 2
			if n > len(cur) {
				n = len(cur)
			}
		}
	}

	min := &forensics.Minimization{
		OriginalLen:      len(b.replay),
		MinimizedLen:     len(cur),
		Trials:           trials,
		OriginalChoices:  b.Choices,
		MinimizedChoices: describeChoices(cur),
	}
	nb := *b
	nb.replay = cur
	nb.Choices = min.MinimizedChoices
	return &nb, min
}

// trialStore is the scenario storage the trials of one Minimize call share,
// as consecutive scenarios of an exploration do: the pool recycles
// executions, pages and arenas, and stack is the one the last trial ran on.
// Each trial's resetScenario recycles it into a fresh stack.
type trialStore struct {
	pool  *pmem.Pool
	stack *pmem.Stack
}

// minimizeTrial reports whether replaying the candidate prefix still
// manifests a bug with the given key. A nondeterministic-replay panic —
// the candidate's decisions no longer line up with the choice points the
// guest presents — counts as not reproducing; any other panic propagates.
// Nothing reads a trial's multi-rf or perf findings, so it runs without the
// finding flags: a multi-candidate load then computes no guest location.
func minimizeTrial(prog Program, opts Options, store *trialStore, prefix []choicePoint, key string) bool {
	opts.FlagMultiRF, opts.FlagPerfIssues = false, false
	c := newReplayChecker(prog, opts, prefix, 0)
	c.pmpool, c.stack = store.pool, store.stack
	ok := c.replayScenario()
	store.stack = c.stack
	if !ok {
		return false
	}
	_, ok = c.bugIndex[key]
	return ok
}
