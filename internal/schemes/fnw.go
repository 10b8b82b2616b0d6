package schemes

import "tetriswrite/internal/pcm"

// fnw is Flip-N-Write: read-before-write plus inversion coding. If more
// than half of a data unit's cells (counting its flip cell) would change,
// the complement is stored instead, bounding the changed cells by half
// the width. The halved worst case lets two data units share one write
// unit under the default budget, halving the serial write units to
// (N/M)/2 — Equation 2: Tread + 1/2 x (N/M) x Tset.
type fnw struct {
	par   pcm.Params
	cells cellWalk
	FlipTagStore
	PulseArena
}

// NewFlipNWrite returns the Flip-N-Write scheme.
func NewFlipNWrite(par pcm.Params) Scheme {
	// Inversion bounds a unit's changed cells by half the width.
	st := stage{newStaticLayout(par.ChipWidthBits/2, par.CurrentReset, par.ChipBudget), slotClock{pitch: par.TSet}}
	return &fnw{par: par, cells: newCellWalk(par, codeFlip, st, st), FlipTagStore: NewFlipTagStore()}
}

func (s *fnw) Name() string               { return "fnw" }
func (s *fnw) NeedsReadBeforeWrite() bool { return true }

func (s *fnw) PlanWrite(addr pcm.LineAddr, old, new []byte) Plan {
	p := basePlan(s.par)
	p.Pulses = s.TakePulses()
	p.Read, p.Write = s.par.TRead, s.cells.write
	s.cells.emit(&p, old, new, s.TagSlot(addr))
	return p
}
