// Package analytic provides the closed-form service-time models of the
// paper's Equations 1-5. The formulas are written independently of the
// scheme implementations (slot arithmetic duplicated on purpose) so the
// test suite can cross-validate the two: for any configuration, the pulse
// schedules built by package schemes must take exactly the time these
// equations predict.
package analytic

import (
	"tetriswrite/internal/pcm"
	"tetriswrite/internal/units"
)

// slots is the worst-case serial-slot count for nUnits data units of
// worstCells cells each at per-cell current cur under budget.
func slots(nUnits, worstCells, cur, budget int) int {
	perUnit := worstCells * cur
	if perUnit <= budget {
		unitsPerSlot := budget / perUnit
		return (nUnits + unitsPerSlot - 1) / unitsPerSlot
	}
	capBits := budget / cur
	return nUnits * ((worstCells + capBits - 1) / capBits)
}

// Conventional is Equation 1: the conventional scheme writes N/M serial
// write units, each charged Tset. With the paper's parameters this is
// exactly (N/M) x Tset; the general form accounts for budgets that fit
// several (or fractions of) worst-case units per slot.
func Conventional(p pcm.Params) units.Duration {
	n := slots(p.DataUnits(), p.ChipWidthBits, p.CurrentReset, p.ChipBudget)
	return units.Duration(n) * p.TSet
}

// DCW is the paper's baseline: conventional timing plus the
// data-comparison read.
func DCW(p pcm.Params) units.Duration {
	return p.TRead + Conventional(p)
}

// FlipNWrite is Equation 2: Tread + 1/2 x (N/M) x Tset. Inversion coding
// halves the worst-case changed cells, so two units share a write unit.
func FlipNWrite(p pcm.Params) units.Duration {
	n := slots(p.DataUnits(), p.ChipWidthBits/2, p.CurrentReset, p.ChipBudget)
	return p.TRead + units.Duration(n)*p.TSet
}

// TwoStage is Equation 3: (1/K + 1/2L) x (N/M) x Tset — a RESET stage of
// N/M short slots followed by a SET stage packed 2L units per slot.
func TwoStage(p pcm.Params) units.Duration {
	n0 := slots(p.DataUnits(), p.ChipWidthBits, p.CurrentReset, p.ChipBudget)
	n1 := slots(p.DataUnits(), p.ChipWidthBits/2, p.CurrentSet, p.ChipBudget)
	return units.Duration(n0)*p.TReset + units.Duration(n1)*p.TSet
}

// ThreeStage is Equation 4: Tread + (1/2K + 1/2L) x (N/M) x Tset — both
// stages halved by the read-and-flip front end.
func ThreeStage(p pcm.Params) units.Duration {
	n0 := slots(p.DataUnits(), p.ChipWidthBits/2, p.CurrentReset, p.ChipBudget)
	n1 := slots(p.DataUnits(), p.ChipWidthBits/2, p.CurrentSet, p.ChipBudget)
	return p.TRead + units.Duration(n0)*p.TReset + units.Duration(n1)*p.TSet
}

// Tetris is Equation 5: (result + subresult/K) x Tset, plus the read and
// analysis overheads. result and subresult come from the analysis stage.
func Tetris(p pcm.Params, result, subresult, analysisCycles int) units.Duration {
	k := units.Duration(p.K())
	pitch := p.TSet / k
	write := units.Duration(result)*p.TSet + units.Duration(subresult)*pitch
	return p.TRead + p.MemClock.Cycles(int64(analysisCycles)) + write
}
