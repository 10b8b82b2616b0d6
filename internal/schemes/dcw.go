package schemes

import (
	"tetriswrite/internal/bitutil"
	"tetriswrite/internal/pcm"
	"tetriswrite/internal/units"
)

// dcw is Data-Comparison Write, the paper's baseline: read the stored
// data first and pulse only the cells that actually change. DCW saves
// energy and endurance but keeps the conventional worst-case *timing* —
// the write still occupies (N/M) serial worst-case write units, plus the
// read, because the slot reservation cannot depend on data the controller
// has not analysed.
type dcw struct {
	par pcm.Params
	PulseArena
}

// NewDCW returns the Data-Comparison Write scheme.
func NewDCW(par pcm.Params) Scheme { return &dcw{par: par} }

func (s *dcw) Name() string               { return "dcw" }
func (s *dcw) NeedsReadBeforeWrite() bool { return true }

func (s *dcw) PlanWrite(addr pcm.LineAddr, old, new []byte) Plan {
	p := basePlan(s.par)
	p.Pulses = s.TakePulses()
	p.Read = s.par.TRead
	nu := s.par.DataUnits()
	lay := newStaticLayout(s.par.ChipWidthBits, s.par.CurrentReset, s.par.ChipBudget)
	p.Write = units.Duration(lay.slots(nu)) * s.par.TSet
	clock := slotClock{pitch: s.par.TSet}

	wb := s.par.ChipWidthBits / 8
	nc := s.par.NumChips
	if wb == 2 && nc*nu%4 == 0 && len(old) >= nc*nu*2 {
		// Word-parallel diffing for x16 parts: one uint64 load covers
		// four consecutive (chip, unit) cells, and an unchanged cell
		// emits nothing, so a zero word-diff skips all four. Changed
		// lanes emit in the same ascending cell order as the scalar
		// loop (u-major), so the pulse sequence is identical.
		for w := 0; w < nc*nu/4; w++ {
			ow := bitutil.LoadLE64(old, w*8)
			nw := bitutil.LoadLE64(new, w*8)
			diff := ow ^ nw
			if diff == 0 {
				continue
			}
			for lane := 0; lane < 4; lane++ {
				d := uint16(diff >> (16 * uint(lane)))
				if d == 0 {
					continue
				}
				i := w*4 + lane
				o := uint16(ow >> (16 * uint(lane)))
				n := uint16(nw >> (16 * uint(lane)))
				emitStreams(&p, lay, clock, i%nc, i/nc, d&o, d&n)
			}
		}
		return p
	}
	for u := 0; u < nu; u++ {
		for c := 0; c < nc; c++ {
			ow := bitutil.ChipSlice(old, nc, wb, c, u)
			nw := bitutil.ChipSlice(new, nc, wb, c, u)
			tr := bitutil.Transition16(ow, nw)
			emitStreams(&p, lay, clock, c, u, tr.Resets, tr.Sets)
		}
	}
	return p
}
