package core

import "jaaru/internal/tso"

// SnapPrefixCap reports how many decisions of choice-prefix storage the
// snapshot stack retains — the term TestSnapshotMemoryLinear gates
// (test-only accessor).
func (c *Checker) SnapPrefixCap() int { return cap(c.snapPrefix) }

// SetEagerViaBuffer sets the eagerViaBuffer hook for checkers built after the
// call and returns its previous value (test-only).
func SetEagerViaBuffer(on bool) (was bool) {
	was, eagerViaBuffer = eagerViaBuffer, on
	return was
}

// SetProbe attaches p as the forensics transition probe of every guest thread
// c runs (test-only; witness replays attach their recorder's own).
func (c *Checker) SetProbe(p *tso.Probe) { c.sched.probe = p }
