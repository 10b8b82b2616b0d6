package tetris

import (
	"math/bits"

	"tetriswrite/internal/bitutil"
	"tetriswrite/internal/linestore"
	"tetriswrite/internal/pcm"
	"tetriswrite/internal/schemes"
	"tetriswrite/internal/units"
)

// DefaultAnalysisCycles is the analysis-stage overhead measured by the
// paper's Vivado HLS synthesis of the algorithm: 41 worst-case cycles at
// the 400 MHz memory bus clock.
const DefaultAnalysisCycles = 41

// Options tune the Tetris Write implementation. The zero value is the
// paper's configuration.
type Options struct {
	// AnalysisCycles is the scheduling overhead charged per write, in
	// memory-clock cycles. Zero means DefaultAnalysisCycles; negative
	// means no overhead (an idealized ASIC).
	AnalysisCycles int
	// DisableFlip skips the read stage's inversion coding (ablation).
	// The read itself still happens — Tetris cannot count transitions
	// without it.
	DisableFlip bool
	// ArrivalOrder packs units first-fit in arrival order instead of
	// first-fit-decreasing (ablation).
	ArrivalOrder bool
	// TimeAwareFlip replaces the Hamming-minimizing inversion rule with
	// a schedule-time-minimizing one (SETs weighted by K). Required for
	// PreSET to pay off; see ReadStageTimeAware.
	TimeAwareFlip bool
}

// scheme implements schemes.Scheme.
type scheme struct {
	par   pcm.Params
	opt   Options
	flips *linestore.Store // one word per line: flip tags, bit u*NumChips+c

	// Per-write scratch buffers: PlanWrite sits on every simulated write
	// and schemes are single-owner by contract, so reuse is safe.
	workBuf  []UnitCounts // nc*nu entries, unit-major (index u*nc+c)
	domains  []packDomain
	in1, in0 []int
	maskBuf  []uint16 // per chip
	pack     Scratch
	emitBuf  []emission

	schemes.PulseArena
}

// emission is one packed domain awaiting pulse emission.
type emission struct {
	sched Schedule
	dom   packDomain
}

// packDomain is one power domain handed to the packer.
type packDomain struct {
	chips  []int
	budget int
}

// New returns the Tetris Write scheme with the paper's options.
func New(par pcm.Params) schemes.Scheme { return NewWithOptions(par, Options{}) }

// NewWithOptions returns the Tetris Write scheme with explicit options.
func NewWithOptions(par pcm.Params, opt Options) schemes.Scheme {
	if opt.AnalysisCycles == 0 {
		opt.AnalysisCycles = DefaultAnalysisCycles
	}
	if opt.AnalysisCycles < 0 {
		opt.AnalysisCycles = 0
	}
	return &scheme{par: par, opt: opt, flips: linestore.NewStore(1)}
}

func (s *scheme) Name() string { return "tetris" }

// FlipTags implements schemes.FlipTagReader: the line's inversion tags,
// bit u*NumChips+c, zero when the line was never written.
func (s *scheme) FlipTags(addr pcm.LineAddr) uint64 {
	if w := s.flips.Get(int64(addr)); w != nil {
		return w[0]
	}
	return 0
}
func (s *scheme) NeedsReadBeforeWrite() bool { return true }

func (s *scheme) flipBit(c, u int) uint64 { return 1 << uint(u*s.par.NumChips+c) }

func (s *scheme) PlanWrite(addr pcm.LineAddr, old, new []byte) schemes.Plan {
	p := schemes.Plan{
		TSet:         s.par.TSet,
		TReset:       s.par.TReset,
		CurrentSet:   s.par.CurrentSet,
		CurrentReset: s.par.CurrentReset,
		Read:         s.par.TRead,
		Analysis:     s.par.MemClock.Cycles(int64(s.opt.AnalysisCycles)),
	}
	p.Pulses = s.TakePulses()

	nu := s.par.DataUnits()
	nc := s.par.NumChips
	k := s.par.K()

	// Read stage: per (chip, unit) inversion decisions and counts,
	// unit-major in the reused scratch buffer (index u*nc+c — cell order,
	// so the word-parallel pass below writes it sequentially).
	if len(s.workBuf) != nc*nu {
		s.workBuf = make([]UnitCounts, nc*nu)
	}
	work := s.workBuf
	flipSlot := s.flips.Ensure(int64(addr))
	flipWord := flipSlot[0]
	wbits := s.par.ChipWidthBits
	wb := wbits / 8
	if wb == 2 && nc*nu%4 == 0 && len(old) >= nc*nu*2 {
		// Word-parallel pass for x16 parts: the line's 16-bit chip slices
		// are consecutive little-endian words, so one uint64 load covers
		// cells 4w..4w+3 and one compare skips all four when nothing
		// changed. An unchanged cell always yields zero pulses and an
		// unchanged tag under inversion coding (re-deriving its encoding
		// lands exactly where it already is), so only changed lanes run
		// the per-cell read stage. The flip-tag word shares the cell
		// index, so the lane's tag is one nibble shift away.
		for w := 0; w < nc*nu/4; w++ {
			ow := bitutil.LoadLE64(old, w*8)
			nw := bitutil.LoadLE64(new, w*8)
			base := w * 4
			if ow == nw && (!s.opt.DisableFlip || flipWord>>(uint(base))&0xF == 0) {
				work[base] = UnitCounts{}
				work[base+1] = UnitCounts{}
				work[base+2] = UnitCounts{}
				work[base+3] = UnitCounts{}
				continue
			}
			diff := ow ^ nw
			for lane := 0; lane < 4; lane++ {
				i := base + lane
				bit := uint64(1) << uint(i)
				if diff>>(16*uint(lane))&0xFFFF == 0 && (!s.opt.DisableFlip || flipWord&bit == 0) {
					work[i] = UnitCounts{}
					continue
				}
				logicalOld := uint16(ow >> (16 * uint(lane)))
				logicalNew := uint16(nw >> (16 * uint(lane)))
				stored := bitutil.FlipWord{Bits: logicalOld, Flip: false}
				if flipWord&bit != 0 {
					stored = bitutil.FlipWord{Bits: ^logicalOld, Flip: true}
				}
				var uc UnitCounts
				if s.opt.TimeAwareFlip && !s.opt.DisableFlip {
					uc = ReadStageTimeAware(stored, logicalNew, wbits, k)
				} else {
					uc = ReadStage(stored, logicalNew, wbits, s.opt.DisableFlip)
				}
				work[i] = uc
				if uc.Enc.Flip {
					flipWord |= bit
				} else {
					flipWord &^= bit
				}
			}
		}
	} else {
		for c := 0; c < nc; c++ {
			for u := 0; u < nu; u++ {
				logicalOld := bitutil.ChipSlice(old, nc, wb, c, u)
				logicalNew := bitutil.ChipSlice(new, nc, wb, c, u)
				stored := bitutil.FlipWord{Bits: logicalOld, Flip: false}
				if flipWord&s.flipBit(c, u) != 0 {
					stored = bitutil.FlipWord{Bits: ^logicalOld & bitutil.WidthMask(wbits), Flip: true}
				}
				var uc UnitCounts
				if s.opt.TimeAwareFlip && !s.opt.DisableFlip {
					uc = ReadStageTimeAware(stored, logicalNew, wbits, k)
				} else {
					uc = ReadStage(stored, logicalNew, wbits, s.opt.DisableFlip)
				}
				work[u*nc+c] = uc
				if uc.Enc.Flip {
					flipWord |= s.flipBit(c, u)
				} else {
					flipWord &^= s.flipBit(c, u)
				}
			}
		}
	}
	flipSlot[0] = flipWord

	// Analysis stage: pack each power domain. Under a GCP the whole bank
	// is one domain; otherwise each chip packs against its own pump.
	if s.domains == nil {
		if s.par.GlobalChargePump {
			all := make([]int, nc)
			for c := range all {
				all[c] = c
			}
			s.domains = []packDomain{{chips: all, budget: s.par.BankBudget()}}
		} else {
			for c := 0; c < nc; c++ {
				s.domains = append(s.domains, packDomain{chips: []int{c}, budget: s.par.ChipBudget})
			}
		}
	}
	domains := s.domains

	maxResult, maxSub := 0, 0
	emissions := s.emitBuf[:0]
	s.pack.Reset() // reclaims the schedules of the previous write
	if len(s.in1) != nu {
		s.in1 = make([]int, nu)
		s.in0 = make([]int, nu)
	}
	for _, dom := range domains {
		in1, in0 := s.in1, s.in0
		for u := 0; u < nu; u++ {
			in1[u], in0[u] = 0, 0
			for _, c := range dom.chips {
				in1[u] += work[u*nc+c].N1() * s.par.CurrentSet
				in0[u] += work[u*nc+c].N0() * s.par.CurrentReset
			}
		}
		// Flip-cell SET riders need a Tset-long span even when no data
		// cell SETs: reserve the write unit before packing so the
		// write-0 pass can use its sub-slots.
		minResult := 0
		for u := 0; u < nu && minResult == 0; u++ {
			for _, c := range dom.chips {
				if work[u*nc+c].FlipSet {
					minResult = 1
					break
				}
			}
		}
		pk := Packer{
			Budget:       dom.budget,
			K:            k,
			ArrivalOrder: s.opt.ArrivalOrder,
			Cost1:        s.par.CurrentSet,
			Cost0:        s.par.CurrentReset,
			MinResult:    minResult,
		}
		sched := pk.PackInto(&s.pack, in1, in0)

		// Flip-cell RESET riders only need a Treset-long span.
		for u := 0; u < nu; u++ {
			for _, c := range dom.chips {
				if work[u*nc+c].FlipReset && len(sched.Write0[u]) == 0 &&
					sched.Result == 0 && sched.SubResult == 0 {
					sched.SubResult = 1
				}
			}
		}

		if sched.Result > maxResult {
			maxResult = sched.Result
		}
		if sched.SubResult > maxSub {
			maxSub = sched.SubResult
		}
		emissions = append(emissions, emission{sched: sched, dom: dom})
	}
	s.emitBuf = emissions // keep the grown backing array for the next write

	// Sub-slot pitch: Tset/K, so Equation 5 holds exactly and a RESET
	// pulse (Treset <= Tset/K) always fits its sub-slot.
	pitch := s.par.TSet / units.Duration(k)
	p.Write = units.Duration(maxResult)*s.par.TSet + units.Duration(maxSub)*pitch

	for _, em := range emissions {
		s.emitDomain(&p, em.sched, em.dom.chips, work, pitch)
	}
	p.SortPulses()
	return p
}

// subSlotStart converts a global sub-slot index into a write-phase offset
// for a domain scheduled with the given result.
func subSlotStart(i, result, k int, tset, pitch units.Duration) units.Duration {
	if i < result*k {
		return units.Duration(i/k)*tset + units.Duration(i%k)*pitch
	}
	return units.Duration(result)*tset + units.Duration(i-result*k)*pitch
}

// emitDomain turns one domain's schedule into pulse records.
func (s *scheme) emitDomain(p *schemes.Plan, sched Schedule, chips []int, work []UnitCounts, pitch units.Duration) {
	nu := s.par.DataUnits()
	nc := s.par.NumChips
	k := sched.K
	tset := s.par.TSet
	if len(s.maskBuf) != nc {
		s.maskBuf = make([]uint16, nc)
	}
	masks := s.maskBuf

	for u := 0; u < nu; u++ {
		// Write-1s: distribute the domain's SET cells (chip-major, bit
		// order) across the unit's write-unit allocations. The cursor
		// (ci, rem) walks the per-chip transition masks directly —
		// popcount and lowest-bit clearing replace the old per-bit scan
		// through a materialized cell list, but consume cells in the
		// identical chip-major ascending-bit order.
		ci, rem := -1, uint16(0)
		for _, a := range sched.Write1[u] {
			n := a.Amount / s.par.CurrentSet
			for n > 0 {
				for rem == 0 {
					ci++
					rem = work[u*nc+chips[ci]].Tr.Sets
				}
				avail := bits.OnesCount16(rem)
				if avail <= n {
					masks[chips[ci]] |= rem
					n -= avail
					rem = 0
					continue
				}
				rest := rem
				for j := 0; j < n; j++ {
					rest &= rest - 1 // clear lowest set bit
				}
				masks[chips[ci]] |= rem &^ rest
				rem = rest
				n = 0
			}
			for _, c := range chips {
				if m := masks[c]; m != 0 {
					p.Pulses = append(p.Pulses, schemes.Pulse{
						Chip: c, Unit: u, Kind: schemes.Set,
						Start: units.Duration(a.Slot) * tset, Mask: m,
					})
					masks[c] = 0
				}
			}
		}

		// Write-0s: same, across sub-slot allocations.
		ci, rem = -1, 0
		for _, a := range sched.Write0[u] {
			n := a.Amount / s.par.CurrentReset
			for n > 0 {
				for rem == 0 {
					ci++
					rem = work[u*nc+chips[ci]].Tr.Resets
				}
				avail := bits.OnesCount16(rem)
				if avail <= n {
					masks[chips[ci]] |= rem
					n -= avail
					rem = 0
					continue
				}
				rest := rem
				for j := 0; j < n; j++ {
					rest &= rest - 1
				}
				masks[chips[ci]] |= rem &^ rest
				rem = rest
				n = 0
			}
			start := subSlotStart(a.Slot, sched.Result, k, tset, pitch)
			for _, c := range chips {
				if m := masks[c]; m != 0 {
					p.Pulses = append(p.Pulses, schemes.Pulse{
						Chip: c, Unit: u, Kind: schemes.Reset,
						Start: start, Mask: m,
					})
					masks[c] = 0
				}
			}
		}

		// Flip cells: zero-budget riders placed in the unit's first slot
		// of the matching kind, or the domain's first slot if the unit
		// has no data pulses of that kind.
		for _, c := range chips {
			uc := work[u*nc+c]
			if uc.FlipSet {
				slot := 0
				if len(sched.Write1[u]) > 0 {
					slot = sched.Write1[u][0].Slot
				}
				p.Pulses = append(p.Pulses, schemes.Pulse{
					Chip: c, Unit: u, Kind: schemes.Set,
					Start: units.Duration(slot) * tset, FlipCell: true,
				})
			}
			if uc.FlipReset {
				var start units.Duration
				if len(sched.Write0[u]) > 0 {
					start = subSlotStart(sched.Write0[u][0].Slot, sched.Result, k, tset, pitch)
				}
				p.Pulses = append(p.Pulses, schemes.Pulse{
					Chip: c, Unit: u, Kind: schemes.Reset,
					Start: start, FlipCell: true,
				})
			}
		}
	}
}
