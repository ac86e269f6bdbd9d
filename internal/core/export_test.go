package core

// SnapPrefixCap reports how many decisions of choice-prefix storage the
// snapshot stack retains — the term TestSnapshotMemoryLinear gates
// (test-only accessor).
func (c *Checker) SnapPrefixCap() int { return cap(c.snapPrefix) }
