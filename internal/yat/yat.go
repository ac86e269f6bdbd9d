// Package yat reproduces the eager model checking baseline the paper
// compares against (Yat, Lantz et al., USENIX ATC 2014). Yat enumerates, at
// every failure point, every legal post-failure persistent-memory state
// before running recovery — the approach whose state count grows
// exponentially with the number of unflushed stores.
//
// Like the paper (Yat is not publicly available), the state counts of
// Figure 14 are computed analytically: at each failure point the number of
// legal states is the product over dirty cache lines of (stores since the
// line's last flush + 1), and the total is the sum over failure points. The
// post-failure behaviours themselves are checked against internal/px86ref,
// which enumerates them from the Px86 rules without reading engine state.
package yat

import (
	"fmt"
	"math"
	"math/big"

	"jaaru/internal/core"
)

// CountResult is the analytic Yat cost of exhaustively checking a program.
type CountResult struct {
	// FailurePoints is the number of failure injection points considered
	// (matching Jaaru's, including the end-of-run point).
	FailurePoints int
	// States is the total number of post-failure states Yat would explore:
	// Σ over failure points of Π over dirty lines of (dirty stores + 1).
	States *big.Int
	// MaxPerPoint is the largest per-point state count.
	MaxPerPoint *big.Int
	// MaxDirtyLines is the largest number of simultaneously dirty lines.
	MaxDirtyLines int
}

// Sci renders the state count in the paper's scientific notation
// (e.g. "1.93e605").
func (r *CountResult) Sci() string { return Sci(r.States) }

// Sci formats a big integer as d.dde±dd (the paper prints e.g. 1.93×10^605).
func Sci(n *big.Int) string {
	if n.Sign() == 0 {
		return "0"
	}
	f := new(big.Float).SetInt(n)
	mant := new(big.Float)
	exp := f.MantExp(mant) // f = mant × 2**exp, mant in [0.5, 1)
	m, _ := mant.Float64()
	l10 := float64(exp)*math.Log10(2) + math.Log10(m)
	e := int(math.Floor(l10))
	lead := math.Pow(10, l10-float64(e))
	if lead >= 9.995 { // rounding pushed the mantissa to 10.0
		lead /= 10
		e++
	}
	return fmt.Sprintf("%.2fe%d", lead, e)
}

// CountStates runs prog's pre-failure execution once and computes the
// number of post-failure states an eager checker must explore.
func CountStates(prog core.Program, opts core.Options) *CountResult {
	res := &CountResult{States: new(big.Int), MaxPerPoint: new(big.Int)}
	opts.MaxScenarios = 1
	ck := core.New(prog, opts)
	ck.Instrument(func(s *core.Snapshot) {
		res.FailurePoints++
		per := big.NewInt(1)
		dirty := s.DirtyLines()
		if len(dirty) > res.MaxDirtyLines {
			res.MaxDirtyLines = len(dirty)
		}
		for _, line := range dirty {
			per.Mul(per, big.NewInt(int64(len(s.Cuts(line)))))
		}
		res.States.Add(res.States, per)
		if per.Cmp(res.MaxPerPoint) > 0 {
			res.MaxPerPoint.Set(per)
		}
	})
	ck.Run()
	return res
}
