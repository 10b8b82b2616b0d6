package schemes

import (
	"tetriswrite/internal/bitutil"
	"tetriswrite/internal/pcm"
	"tetriswrite/internal/units"
)

// fnw is Flip-N-Write: read-before-write plus inversion coding. If more
// than half of a data unit's cells (counting its flip cell) would change,
// the complement is stored instead, bounding the changed cells by half
// the width. The halved worst case lets two data units share one write
// unit under the default budget, halving the serial write units to
// (N/M)/2 — Equation 2: Tread + 1/2 x (N/M) x Tset.
type fnw struct {
	par pcm.Params
	FlipTagStore
	PulseArena
}

// NewFlipNWrite returns the Flip-N-Write scheme.
func NewFlipNWrite(par pcm.Params) Scheme {
	return &fnw{par: par, FlipTagStore: NewFlipTagStore()}
}

func (s *fnw) Name() string               { return "fnw" }
func (s *fnw) NeedsReadBeforeWrite() bool { return true }

func (s *fnw) PlanWrite(addr pcm.LineAddr, old, new []byte) Plan {
	p := basePlan(s.par)
	p.Pulses = s.TakePulses()
	p.Read = s.par.TRead
	nu := s.par.DataUnits()
	lay := newStaticLayout(s.par.ChipWidthBits/2, s.par.CurrentReset, s.par.ChipBudget)
	p.Write = units.Duration(lay.slots(nu)) * s.par.TSet
	clock := slotClock{pitch: s.par.TSet}

	wb := s.par.ChipWidthBits / 8
	nc := s.par.NumChips
	wbits := s.par.ChipWidthBits
	// One fetch of the line's whole tag word replaces a store probe per
	// cell; the updated word goes back once at the end.
	tagSlot := s.TagSlot(addr)
	tags := *tagSlot
	if wb == 2 && nc*nu%4 == 0 && len(old) >= nc*nu*2 {
		// Word-parallel pass for x16 parts (see the Tetris read stage):
		// an unchanged cell re-encodes to exactly its stored state under
		// the Flip-N-Write rule — no pulses, no tag change — so a zero
		// uint64 diff skips four cells at once. Changed lanes run the
		// scalar coding in the same ascending cell order.
		for w := 0; w < nc*nu/4; w++ {
			ow := bitutil.LoadLE64(old, w*8)
			nw := bitutil.LoadLE64(new, w*8)
			diff := ow ^ nw
			if diff == 0 {
				continue
			}
			for lane := 0; lane < 4; lane++ {
				if uint16(diff>>(16*uint(lane))) == 0 {
					continue
				}
				i := w*4 + lane
				bit := uint64(1) << uint(i)
				logicalOld := uint16(ow >> (16 * uint(lane)))
				logicalNew := uint16(nw >> (16 * uint(lane)))
				stored := bitutil.FlipWord{Bits: logicalOld, Flip: false}
				if tags&bit != 0 {
					stored = bitutil.FlipWord{Bits: ^logicalOld, Flip: true}
				}
				enc, tr, flipSet, flipReset := bitutil.FlipTransition(stored, logicalNew, wbits)
				if enc.Flip {
					tags |= bit
				} else {
					tags &^= bit
				}
				c, u := i%nc, i/nc
				emitStreams(&p, lay, clock, c, u, tr.Resets, tr.Sets)
				if flipSet {
					emitFlip(&p, lay, clock, c, u, Set)
				} else if flipReset {
					emitFlip(&p, lay, clock, c, u, Reset)
				}
			}
		}
		*tagSlot = tags
		return p
	}
	for u := 0; u < nu; u++ {
		for c := 0; c < nc; c++ {
			bit := uint64(1) << uint(u*nc+c)
			logicalOld := bitutil.ChipSlice(old, nc, wb, c, u)
			logicalNew := bitutil.ChipSlice(new, nc, wb, c, u)
			stored := bitutil.FlipWord{Bits: logicalOld, Flip: false}
			if tags&bit != 0 {
				stored = bitutil.FlipWord{Bits: ^logicalOld & bitutil.WidthMask(wbits), Flip: true}
			}
			enc, tr, flipSet, flipReset := bitutil.FlipTransition(stored, logicalNew, wbits)
			if enc.Flip {
				tags |= bit
			} else {
				tags &^= bit
			}
			emitStreams(&p, lay, clock, c, u, tr.Resets, tr.Sets)
			if flipSet {
				emitFlip(&p, lay, clock, c, u, Set)
			} else if flipReset {
				emitFlip(&p, lay, clock, c, u, Reset)
			}
		}
	}
	*tagSlot = tags
	return p
}
