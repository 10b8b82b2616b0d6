package schemes

import (
	"tetriswrite/internal/bitutil"
	"tetriswrite/internal/pcm"
	"tetriswrite/internal/units"
)

// twoStage is 2-Stage-Write (Yue & Zhu, HPCA'13): the write is split into
// a RESET stage and a SET stage to exploit both PCM asymmetries. All
// write-0s execute first in short Treset slots; then the low SET current
// lets several units' write-1s share each Tset slot. The data is inverted
// when more than half its bits are ones, halving the worst-case SET count
// (but no cells are skipped — there is no read, so 2-Stage-Write does not
// save energy). Service time is Equation 3: (1/K + 1/2L) x (N/M) x Tset.
type twoStage struct {
	par pcm.Params
	FlipTagStore
	PulseArena
}

// NewTwoStage returns the 2-Stage-Write scheme.
func NewTwoStage(par pcm.Params) Scheme {
	return &twoStage{par: par, FlipTagStore: NewFlipTagStore()}
}

func (s *twoStage) Name() string               { return "twostage" }
func (s *twoStage) NeedsReadBeforeWrite() bool { return false }

func (s *twoStage) PlanWrite(addr pcm.LineAddr, old, new []byte) Plan {
	p := basePlan(s.par)
	p.Pulses = s.TakePulses()
	nu := s.par.DataUnits()
	w := s.par.ChipWidthBits

	lay0 := newStaticLayout(w, s.par.CurrentReset, s.par.ChipBudget) // RESET stage: all cells may be zeros
	lay1 := newStaticLayout(w/2, s.par.CurrentSet, s.par.ChipBudget) // SET stage: inversion bounds ones by w/2
	n0 := lay0.slots(nu)
	n1 := lay1.slots(nu)
	stage0Span := units.Duration(n0) * s.par.TReset
	p.Write = stage0Span + units.Duration(n1)*s.par.TSet
	clock0 := slotClock{pitch: s.par.TReset}
	clock1 := slotClock{base: stage0Span, pitch: s.par.TSet}

	width := bitutil.WidthMask(w)
	wbytes := w / 8
	nc := s.par.NumChips
	// One fetch of the line's tag word, coded against a local copy and
	// stored back once.
	tagSlot := s.TagSlot(addr)
	tags := *tagSlot
	for u := 0; u < nu; u++ {
		for c := 0; c < nc; c++ {
			bit := uint64(1) << uint(u*nc+c)
			logical := bitutil.ChipSlice(new, nc, wbytes, c, u)
			enc := logical & width
			flip := false
			if bitutil.PopCount16(logical&width) > w/2 {
				enc, flip = ^logical&width, true
			}
			if flip {
				tags |= bit
			} else {
				tags &^= bit
			}
			// Every cell is programmed: zeros in stage 0, ones in stage 1.
			emitStreams(&p, lay0, clock0, c, u, ^enc&width, 0)
			emitStreams(&p, lay1, clock1, c, u, 0, enc)
			if flip {
				emitFlip(&p, lay1, clock1, c, u, Set)
			} else {
				emitFlip(&p, lay0, clock0, c, u, Reset)
			}
		}
	}
	*tagSlot = tags
	return p
}

// threeStage is Three-Stage-Write (Li et al., ASP-DAC'15): Flip-N-Write's
// read-and-flip stage bolted onto 2-Stage-Write. The Hamming-distance
// inversion bounds *changed* cells by half the width, so the RESET stage
// packs two units per slot and the SET stage four, and only changed cells
// are pulsed (energy is saved like Flip-N-Write). Service time is
// Equation 4: Tread + (1/2K + 1/2L) x (N/M) x Tset.
type threeStage struct {
	par   pcm.Params
	cells cellWalk
	FlipTagStore
	PulseArena
}

// NewThreeStage returns the Three-Stage-Write scheme.
func NewThreeStage(par pcm.Params) Scheme {
	// Inversion bounds a unit's changed cells by half the width in both
	// stages; the SET stage starts when the RESET stage's slots end.
	w, nu := par.ChipWidthBits, par.DataUnits()
	s0 := stage{newStaticLayout(w/2, par.CurrentReset, par.ChipBudget), slotClock{pitch: par.TReset}}
	span := units.Duration(s0.lay.slots(nu)) * par.TReset
	s1 := stage{newStaticLayout(w/2, par.CurrentSet, par.ChipBudget), slotClock{base: span, pitch: par.TSet}}
	return &threeStage{par: par, cells: newCellWalk(par, codeFlipStaged, s0, s1), FlipTagStore: NewFlipTagStore()}
}

func (s *threeStage) Name() string               { return "threestage" }
func (s *threeStage) NeedsReadBeforeWrite() bool { return true }

func (s *threeStage) PlanWrite(addr pcm.LineAddr, old, new []byte) Plan {
	p := basePlan(s.par)
	p.Pulses = s.TakePulses()
	p.Read, p.Write = s.par.TRead, s.cells.write
	s.cells.emit(&p, old, new, s.TagSlot(addr))
	return p
}
