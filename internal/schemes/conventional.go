package schemes

import (
	"tetriswrite/internal/bitutil"
	"tetriswrite/internal/pcm"
	"tetriswrite/internal/units"
)

// conventional is the naive write scheme: every data unit is programmed
// serially, every cell is pulsed to its target value regardless of what
// is stored, and each write unit is charged the worst-case SET time.
// Service time is Equation 1 of the paper: (N/M) x Tset with the default
// budget, where a worst-case all-RESET unit exactly fills one chip's
// budget.
type conventional struct {
	par pcm.Params
	PulseArena
}

// NewConventional returns the conventional scheme.
func NewConventional(par pcm.Params) Scheme { return &conventional{par: par} }

func (s *conventional) Name() string               { return "conventional" }
func (s *conventional) NeedsReadBeforeWrite() bool { return false }

func (s *conventional) PlanWrite(addr pcm.LineAddr, old, new []byte) Plan {
	p := basePlan(s.par)
	p.Pulses = s.TakePulses()
	nu := s.par.DataUnits()
	lay := newStaticLayout(s.par.ChipWidthBits, s.par.CurrentReset, s.par.ChipBudget)
	p.Write = units.Duration(lay.slots(nu)) * s.par.TSet
	clock := slotClock{pitch: s.par.TSet}

	width := bitutil.WidthMask(s.par.ChipWidthBits)
	wb := s.par.ChipWidthBits / 8
	for u := 0; u < nu; u++ {
		for c := 0; c < s.par.NumChips; c++ {
			w := bitutil.ChipSlice(new, s.par.NumChips, wb, c, u)
			emitStreams(&p, lay, clock, c, u, ^w&width, w)
		}
	}
	return p
}
