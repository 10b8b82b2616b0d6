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
	maskBuf  []uint16 // per domain chip: cells of the pulse being built
	srcBuf   []uint16 // per domain chip: cells the cursor has yet to hand out
	pack     Scratch
	emitBuf  []emission

	// Counting-sort scratch (see finishEmission): the emitter's key
	// buffer, the bucket histogram, and the buffer swapped in as the
	// sorted plan.
	keys   []uint32
	counts []int32
	sorted []schemes.Pulse

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

	// Analysis stage: pack each power domain.
	domains := s.packDomains()

	maxResult, maxSub := 0, 0
	emissions := s.emitBuf[:0]
	s.pack.Reset() // reclaims the schedules of the previous write
	in1, in0 := s.unitNeeds(nu)
	for _, dom := range domains {
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

	e := s.startEmission(&p, maxResult, maxSub)
	for i := range emissions {
		em := &emissions[i]
		e.domain(&em.sched, em.dom.chips, work)
	}
	s.finishEmission(&p, &e, maxResult*k+maxSub)
	return p
}

// packDomains returns the power domains the packer runs over, built on
// first use: under a GCP the whole bank is one domain; otherwise each
// chip packs against its own pump.
func (s *scheme) packDomains() []packDomain {
	if s.domains == nil {
		nc := s.par.NumChips
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
	return s.domains
}

// unitNeeds returns the per-unit write-1 and write-0 need buffers, nu
// entries each; callers overwrite every entry.
func (s *scheme) unitNeeds(nu int) (in1, in0 []int) {
	if len(s.in1) != nu {
		s.in1 = make([]int, nu)
		s.in0 = make([]int, nu)
	}
	return s.in1, s.in0
}

// startEmission sets the plan's write span from the largest domain
// schedule and returns an emitter for its pulses. Sub-slot pitch is
// Tset/K, so Equation 5 holds exactly and a RESET pulse
// (Treset <= Tset/K) always fits its sub-slot.
func (s *scheme) startEmission(p *schemes.Plan, maxResult, maxSub int) emitter {
	nc := s.par.NumChips
	k := s.par.K()
	pitch := s.par.TSet / units.Duration(k)
	p.Write = units.Duration(maxResult)*s.par.TSet + units.Duration(maxSub)*pitch
	if len(s.maskBuf) != nc {
		s.maskBuf = make([]uint16, nc)
		s.srcBuf = make([]uint16, nc)
	}
	return emitter{
		pulses: p.Pulses,
		keys:   s.keys[:0],
		src:    s.srcBuf,
		masks:  s.maskBuf,
		clk:    slotClock{k: k, tset: s.par.TSet, pitch: pitch, exact: pitch*units.Duration(k) == s.par.TSet},
		nc:     nc,
		cost1:  s.par.CurrentSet,
		cost0:  s.par.CurrentReset,
	}
}

// finishEmission puts the emitted pulses in SortPulses order as the
// plan's pulses; slots bounds every pulse's global sub-slot index.
//
// When K divides Tset, global sub-slot i starts at i*pitch in every
// domain whatever its result, so ordering pulses by (sub-slot, chip)
// orders them by (start, chip). The emitter breaks the remaining ties
// the way SortPulses does (see emitter), so a stable counting sort over
// the emission keys yields the SortPulses order without comparing
// pulses. The sorted pulses land in a scheme-owned buffer that is
// swapped with the emission buffer instead of copied back. Otherwise
// SortPulses orders the plan.
func (s *scheme) finishEmission(p *schemes.Plan, e *emitter, slots int) {
	p.Pulses = e.pulses
	s.keys = e.keys // keep the grown backing array for the next write
	n := len(p.Pulses)
	if !e.clk.exact {
		p.SortPulses()
		return
	}
	if n < 2 {
		return
	}
	nb := slots * e.nc
	if cap(s.counts) < nb+1 {
		s.counts = make([]int32, nb+1)
	}
	counts := s.counts[:nb+1]
	clear(counts)
	for _, key := range e.keys {
		counts[key+1]++
	}
	for b := 1; b < nb; b++ {
		counts[b] += counts[b-1]
	}
	if cap(s.sorted) < n {
		s.sorted = make([]schemes.Pulse, n, cap(p.Pulses))
	}
	sorted := s.sorted[:n]
	for i, key := range e.keys {
		sorted[counts[key]] = p.Pulses[i]
		counts[key]++
	}
	s.sorted = p.Pulses[:0]
	p.Pulses = sorted
}

// slotClock converts one domain's global sub-slot indices into
// write-phase offsets. Write unit j is sub-slot j*K.
type slotClock struct {
	result, k   int
	tset, pitch units.Duration
	exact       bool // K divides Tset: sub-slot i starts at i*pitch
}

func (clk *slotClock) start(i int) units.Duration {
	if clk.exact {
		return units.Duration(i) * clk.pitch
	}
	return subSlotStart(i, clk.result, clk.k, clk.tset, clk.pitch)
}

// subSlotStart converts a global sub-slot index into a write-phase offset
// for a domain scheduled with the given result.
func subSlotStart(i, result, k int, tset, pitch units.Duration) units.Duration {
	if i < result*k {
		return units.Duration(i/k)*tset + units.Duration(i%k)*pitch
	}
	return units.Duration(result)*tset + units.Duration(i-result*k)*pitch
}

// firstSlot returns the slot of a unit's first allocation, or 0 when it
// has none: where the unit's zero-budget flip-cell riders go.
func firstSlot(allocs []Alloc) int {
	if len(allocs) == 0 {
		return 0
	}
	return allocs[0].Slot
}

// emitter builds one plan's pulse list, keying every pulse for the
// counting sort by its global sub-slot index times NumChips plus its
// chip.
//
// Each unit's pulses are emitted data SETs, flip-cell SET riders, data
// RESETs, flip-cell RESET riders, and units in ascending order within a
// domain. A unit has at most one pulse per (start, chip, kind, flip
// cell) and a chip belongs to one domain, so inside a (start, chip)
// bucket this is SortPulses' tie order: unit, then kind, then flip-cell
// flag.
type emitter struct {
	pulses       []schemes.Pulse
	keys         []uint32
	src, masks   []uint16 // per domain chip: cells not yet handed out, cells of the pulse being built
	clk          slotClock
	nc           int
	cost1, cost0 int // per-cell SET and RESET currents
}

func (e *emitter) emit(pl schemes.Pulse, idx int) {
	e.pulses = append(e.pulses, pl)
	e.keys = append(e.keys, uint32(idx*e.nc+pl.Chip))
}

// domain emits one packed domain's write schedule.
func (e *emitter) domain(sched *Schedule, chips []int, work []UnitCounts) {
	e.clk.result = sched.Result
	k := e.clk.k
	for u, w1 := range sched.Write1 {
		row := work[u*e.nc : (u+1)*e.nc]
		w0 := sched.Write0[u]
		flipSet, flipReset := false, false
		for _, c := range chips {
			flipSet = flipSet || row[c].FlipSet
			flipReset = flipReset || row[c].FlipReset
		}
		if len(w1) > 0 {
			e.cells(chips, u, row, schemes.Set, w1, e.cost1, k)
		}
		if flipSet {
			e.riders(chips, u, row, schemes.Set, firstSlot(w1)*k)
		}
		if len(w0) > 0 {
			e.cells(chips, u, row, schemes.Reset, w0, e.cost0, 1)
		}
		if flipReset {
			e.riders(chips, u, row, schemes.Reset, firstSlot(w0))
		}
	}
}

// cells emits one unit's data pulses of one kind: one pulse per
// allocation and domain chip that receives cells. A cursor hands the
// unit's cells (row, indexed by chip) to the allocations in the order
// the packer assumed — chip-major in domain order, ascending bit within
// a chip — consuming whole chip slices with a popcount and splitting
// one by clearing lowest set bits. cost is the per-cell current and
// scale maps an allocation's slot to its global sub-slot index (K for
// write units, 1 for sub-slots).
func (e *emitter) cells(chips []int, u int, row []UnitCounts, kind schemes.PulseKind, allocs []Alloc, cost, scale int) {
	src, masks := e.src[:len(chips)], e.masks[:len(chips)]
	for ci, c := range chips {
		if kind == schemes.Set {
			src[ci] = row[c].Tr.Sets
		} else {
			src[ci] = row[c].Tr.Resets
		}
	}
	ci := 0
	for _, a := range allocs {
		for n := a.Amount / cost; n > 0; {
			for src[ci] == 0 {
				ci++
			}
			rem := src[ci]
			if avail := bits.OnesCount16(rem); avail <= n {
				masks[ci] |= rem
				src[ci] = 0
				n -= avail
				continue
			}
			rest := rem
			for ; n > 0; n-- {
				rest &= rest - 1 // clear lowest set bit
			}
			masks[ci] |= rem &^ rest
			src[ci] = rest
		}
		idx := a.Slot * scale
		start := e.clk.start(idx)
		for mi, c := range chips {
			if m := masks[mi]; m != 0 {
				e.emit(schemes.Pulse{Chip: c, Unit: u, Kind: kind, Start: start, Mask: m}, idx)
				masks[mi] = 0
			}
		}
	}
}

// riders emits one unit's flip-cell pulses of one kind at global
// sub-slot idx: zero-budget riders in the unit's first slot of the
// matching kind, or the domain's first slot when it has none.
func (e *emitter) riders(chips []int, u int, row []UnitCounts, kind schemes.PulseKind, idx int) {
	start := e.clk.start(idx)
	for _, c := range chips {
		if kind == schemes.Set && row[c].FlipSet || kind == schemes.Reset && row[c].FlipReset {
			e.emit(schemes.Pulse{Chip: c, Unit: u, Kind: kind, Start: start, FlipCell: true}, idx)
		}
	}
}
