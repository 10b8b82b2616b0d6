package schemes

import "tetriswrite/internal/pcm"

// dcw is Data-Comparison Write, the paper's baseline: read the stored
// data first and pulse only the cells that actually change. DCW saves
// energy and endurance but keeps the conventional worst-case *timing* —
// the write still occupies (N/M) serial worst-case write units, plus the
// read, because the slot reservation cannot depend on data the controller
// has not analysed.
type dcw struct {
	par   pcm.Params
	cells cellWalk
	PulseArena
}

// NewDCW returns the Data-Comparison Write scheme.
func NewDCW(par pcm.Params) Scheme {
	// Every cell of a unit may change, so a unit reserves for all of them.
	st := stage{newStaticLayout(par.ChipWidthBits, par.CurrentReset, par.ChipBudget), slotClock{pitch: par.TSet}}
	return &dcw{par: par, cells: newCellWalk(par, codeDirect, st, st)}
}

func (s *dcw) Name() string               { return "dcw" }
func (s *dcw) NeedsReadBeforeWrite() bool { return true }

func (s *dcw) PlanWrite(addr pcm.LineAddr, old, new []byte) Plan {
	p := basePlan(s.par)
	p.Pulses = s.TakePulses()
	p.Read, p.Write = s.par.TRead, s.cells.write
	s.cells.emit(&p, old, new, nil)
	return p
}
