package core

import "jaaru/internal/obs"

// The account of skipped work. Three mechanisms skip exploration and then add
// back what the skipped stretch would have added to the Result and the
// canonical counters: a snapshot restore skips its scenario's prefix
// (snapshot.go), a fingerprint hit the prefixes and recoveries of a recovery
// subtree's other scenarios, and a sweep prune the whole subtree (por.go). All
// three measure a stretch as an account against one baseline, latched once per
// scenario, and add it back k times through reapply. docs/ALGORITHM.md § "The
// account of skipped work" gives the argument.

// tally is a reading of the running totals an account is measured against:
// steps, the counter vector and the finding counts per key.
type tally struct {
	steps int64
	vec   obs.CounterVec
	perf  map[string]int
	multi map[string]int
}

// account is what a stretch of exploration added: steps, the carried
// counters and the findings. The vector and the findings sit behind pointers
// so that a failure memo, one per failure decision, stays 32 bytes.
type account struct {
	steps int64
	vec   *obs.CounterVec // carried counters; nil when unobserved
	// found is nil without FlagPerfIssues and FlagMultiRF, and set in a
	// measured account otherwise: a failure memo decoded from a claim, which
	// carries none, is told apart (porMemoPerf).
	found *findings
}

// findings are an account's perf and multi-rf findings, per key.
type findings struct {
	perf  []perfShare
	multi []multiShare
}

// perfShare / multiShare are n findings under one key, with the
// representative the stats held when the account was measured. Multi-rf
// representatives alias the stats' Values slices, which are replaced, never
// written in place.
type perfShare struct {
	key string
	n   int
	rep PerfIssue
}

type multiShare struct {
	key string
	n   int
	rep MultiRF
}

// latch reads the running totals into t, reusing its maps: every key the
// stats hold is rewritten, and stats never drop a key.
func (c *Checker) latch(t *tally) {
	t.steps = c.totalSteps
	t.vec = c.col.Counters()
	if t.perf == nil && len(c.perfIssues) > 0 {
		t.perf = make(map[string]int, len(c.perfIssues))
	}
	for k, p := range c.perfIssues {
		t.perf[k] = p.Count
	}
	if t.multi == nil && len(c.multiRF) > 0 {
		t.multi = make(map[string]int, len(c.multiRF))
	}
	for k, m := range c.multiRF {
		t.multi[k] = m.Count
	}
}

// measure fills a with what exploration added since base, reusing a's
// vector and findings (a snapshot entry's, from the pool) or allocating them
// (a fresh account).
func (c *Checker) measure(a *account, base *tally) {
	a.steps = c.totalSteps - base.steps
	if c.col != nil {
		if a.vec == nil {
			a.vec = new(obs.CounterVec)
		}
		*a.vec = c.col.Counters().Diff(base.vec)
		a.vec.KeepCarried()
	}
	if !c.opts.FlagPerfIssues && !c.opts.FlagMultiRF {
		return
	}
	if a.found == nil {
		a.found = new(findings)
	}
	f := a.found
	f.perf, f.multi = f.perf[:0], f.multi[:0]
	for k, p := range c.perfIssues {
		if n := p.Count - base.perf[k]; n > 0 {
			f.perf = append(f.perf, perfShare{k, n, *p})
		}
	}
	for k, m := range c.multiRF {
		if n := m.Count - base.multi[k]; n > 0 {
			f.multi = append(f.multi, multiShare{k, n, *m})
		}
	}
}

// add moves t forward by k copies of a. Every key of a was in the stats
// when t was latched, so t's maps exist.
func (t *tally) add(a *account, k int64) {
	t.steps += k * a.steps
	if a.vec != nil {
		for i, n := range a.vec {
			t.vec[i] += k * n
		}
	}
	if a.found != nil {
		for _, s := range a.found.perf {
			t.perf[s.key] += int(k) * s.n
		}
		for _, s := range a.found.multi {
			t.multi[s.key] += int(k) * s.n
		}
	}
}

// reapply adds k copies of a to the stats and the counters: what k skipped
// stretches would have added had they run. Findings merge by the rules every
// merge path uses, so a representative the stats already cover changes
// nothing and only the counts grow.
func (c *Checker) reapply(a *account, k int64) {
	if k == 0 {
		return
	}
	c.totalSteps += k * a.steps
	if a.found != nil {
		for _, s := range a.found.perf {
			p := s.rep
			p.Count = int(k) * s.n
			c.mergePerfIssue(s.key, &p)
		}
		for _, s := range a.found.multi {
			m := s.rep
			m.Count = int(k) * s.n
			c.mergeMultiRF(s.key, &m)
		}
	}
	if c.col == nil {
		return
	}
	c.col.Add(obs.Steps, k*a.steps)
	if a.vec != nil {
		v := *a.vec
		for i := range v {
			v[i] *= k
		}
		c.col.AddCounters(v)
	}
}
