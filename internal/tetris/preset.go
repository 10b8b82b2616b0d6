package tetris

import (
	"tetriswrite/internal/bitutil"
	"tetriswrite/internal/pcm"
	"tetriswrite/internal/schemes"
)

// PlanPreset implements schemes.Presetter: it SETs every currently-RESET
// cell of the line (and clears any inversion tags), leaving the stored
// logical value all-ones. A later write to the line then needs only
// RESET pulses, which Tetris Write packs into a handful of
// sub-write-units — the PreSET effect.
//
// The preset reads first (so only amorphous cells are pulsed), pays no
// analysis overhead (there is nothing to schedule around: only SETs
// exist, and the packer's write-1 pass is the whole analysis), and packs
// the SETs under the same power budget as a normal write.
func (s *scheme) PlanPreset(addr pcm.LineAddr, old []byte) schemes.Plan {
	p := schemes.Plan{
		TSet:         s.par.TSet,
		TReset:       s.par.TReset,
		CurrentSet:   s.par.CurrentSet,
		CurrentReset: s.par.CurrentReset,
		Read:         s.par.TRead,
	}
	// Presets share the write path's scratch and pulse arena, so they
	// allocate nothing in steady state either.
	p.Pulses = s.TakePulses()
	nu := s.par.DataUnits()
	nc := s.par.NumChips
	k := s.par.K()

	// Work out, per chip slice, which cells are amorphous right now and
	// whether the flip cell must clear: a SET transition per amorphous
	// cell, in the write path's unit-major scratch layout.
	if len(s.workBuf) != nc*nu {
		s.workBuf = make([]UnitCounts, nc*nu)
	}
	work := s.workBuf
	flipSlot := s.flips.Ensure(int64(addr))
	flipWord := flipSlot[0]
	mask := bitutil.WidthMask(s.par.ChipWidthBits)
	wb := s.par.ChipWidthBits / 8
	for c := 0; c < nc; c++ {
		for u := 0; u < nu; u++ {
			logicalOld := bitutil.ChipSlice(old, nc, wb, c, u)
			encoded := logicalOld
			flip := flipWord&s.flipBit(c, u) != 0
			if flip {
				encoded = ^logicalOld & mask
			}
			work[u*nc+c] = UnitCounts{Tr: bitutil.Transition{Sets: ^encoded & mask}, FlipReset: flip}
			flipWord &^= s.flipBit(c, u)
		}
	}
	flipSlot[0] = flipWord

	// Pack the SETs exactly like a normal write's write-1 pass.
	maxResult, maxSub := 0, 0
	emissions := s.emitBuf[:0]
	s.pack.Reset()
	in1, in0 := s.unitNeeds(nu)
	for _, dom := range s.packDomains() {
		for u := 0; u < nu; u++ {
			in1[u], in0[u] = 0, 0
			for _, c := range dom.chips {
				in1[u] += work[u*nc+c].N1() * s.par.CurrentSet
			}
		}
		pk := Packer{Budget: dom.budget, K: k, Cost1: s.par.CurrentSet, Cost0: s.par.CurrentReset}
		sched := pk.PackInto(&s.pack, in1, in0)
		// Flip-cell RESETs ride in a sub-slot; ensure one exists.
		for u := 0; u < nu; u++ {
			for _, c := range dom.chips {
				if work[u*nc+c].FlipReset && sched.Result == 0 && sched.SubResult == 0 {
					sched.SubResult = 1
				}
			}
		}
		maxResult = max(maxResult, sched.Result)
		maxSub = max(maxSub, sched.SubResult)
		emissions = append(emissions, emission{sched: sched, dom: dom})
	}
	s.emitBuf = emissions

	e := s.startEmission(&p, maxResult, maxSub)
	for i := range emissions {
		em := &emissions[i]
		e.preset(&em.sched, em.dom.chips, work)
	}
	s.finishEmission(&p, &e, maxResult*k+maxSub)
	return p
}

// preset emits one packed domain's preset schedule: each unit's SETs,
// then its flip-cell RESET riders in the unit's first write unit (or the
// domain's first slot).
func (e *emitter) preset(sched *Schedule, chips []int, work []UnitCounts) {
	e.clk.result = sched.Result
	for u, w1 := range sched.Write1 {
		row := work[u*e.nc : (u+1)*e.nc]
		if len(w1) > 0 {
			e.cells(chips, u, row, schemes.Set, w1, e.cost1, e.clk.k)
		}
		e.riders(chips, u, row, schemes.Reset, firstSlot(w1)*e.clk.k)
	}
}
