package tetris

import (
	"math/bits"
	"slices"

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
}

// scheme implements schemes.Scheme.
type scheme struct {
	par pcm.Params
	opt Options
	// The lines' inversion tags; the store implements schemes.FlipTagger.
	schemes.FlipTagStore

	// Per-write scratch, sized on first use by prepare: PlanWrite sits on
	// every simulated write and schemes are single-owner by contract, so
	// reuse is safe.
	nu, nc, k int // data units, chips, sub-write-units per write unit
	masks     lineMasks
	domains   []packDomain
	in1, in0  []int
	pack      Scratch

	// Counting-sort scratch (see finishEmission): the key histogram and
	// the buffer swapped in as the sorted plan.
	counts []int32
	sorted []schemes.Pulse

	schemes.PulseArena
}

// packDomain is one power domain handed to the packer: chips [c0, c1).
type packDomain struct {
	c0, c1 int
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
	return &scheme{par: par, opt: opt, FlipTagStore: schemes.NewFlipTagStore()}
}

func (s *scheme) Name() string { return "tetris" }

func (s *scheme) NeedsReadBeforeWrite() bool { return true }

func (s *scheme) PlanWrite(addr pcm.LineAddr, old, new []byte) schemes.Plan {
	s.prepare()
	rule := flipHamming
	if s.opt.DisableFlip {
		rule = flipNone
	}
	tags := s.TagSlot(addr)
	*tags = s.masks.read(old, new, *tags, rule)
	p := schemes.Plan{Analysis: s.par.MemClock.Cycles(int64(s.opt.AnalysisCycles))}
	s.plan(&p)
	return p
}

// prepare sizes the per-write scratch on first use.
func (s *scheme) prepare() {
	if s.domains != nil {
		return
	}
	s.nu, s.nc, s.k = s.par.DataUnits(), s.par.NumChips, s.par.K()
	s.masks.size(s.par.LineBytes, s.par.ChipWidthBits)
	s.in1, s.in0 = make([]int, s.nu), make([]int, s.nu)
	// Under a GCP the whole bank is one power domain; otherwise each
	// chip packs against its own pump.
	if s.par.GlobalChargePump {
		s.domains = []packDomain{{c0: 0, c1: s.nc, budget: s.par.BankBudget()}}
	} else {
		for c := 0; c < s.nc; c++ {
			s.domains = append(s.domains, packDomain{c0: c, c1: c + 1, budget: s.par.ChipBudget})
		}
	}
}

// plan fills in p from the read stage's masks: it runs the analysis
// stage — one packing per power domain — and emits the pulses.
func (s *scheme) plan(p *schemes.Plan) {
	p.TSet, p.TReset = s.par.TSet, s.par.TReset
	p.CurrentSet, p.CurrentReset = s.par.CurrentSet, s.par.CurrentReset
	p.Read = s.par.TRead
	p.Pulses = s.TakePulses()
	m := &s.masks
	anySet, anyReset := anyBit(m.flipSet), anyBit(m.flipReset)
	// The emission pulses every cell of the masks exactly once.
	p.Sets = popAll(m.sets) + popAll(m.flipSet)
	p.Resets = popAll(m.resets) + popAll(m.flipReset)

	// Each domain is emitted as soon as it is packed: start times depend
	// on the domain's own schedule only.
	e := s.startEmission(p)
	maxResult, maxSub := 0, 0
	s.pack.Reset() // reclaims the schedules of the previous write
	for _, dom := range s.domains {
		pk := Packer{
			Budget:       dom.budget,
			K:            s.k,
			ArrivalOrder: s.opt.ArrivalOrder,
			Cost1:        s.par.CurrentSet,
			Cost0:        s.par.CurrentReset,
		}
		// Flip-cell SET riders need a Tset-long span even when no data
		// cell SETs: reserve the write unit before packing so the
		// write-0 pass can use its sub-slots.
		if anySet && s.domainFlips(dom, m.flipSet) {
			pk.MinResult = 1
		}
		in1, in0 := s.unitNeeds(dom)
		sched := pk.PackInto(&s.pack, in1, in0)
		// Flip-cell RESET riders only need a Treset-long span. A domain
		// with no write unit and no sub-slot has no write-0 allocation,
		// so any RESET rider of its cells needs a sub-slot of its own.
		if sched.Result == 0 && sched.SubResult == 0 && anyReset && s.domainFlips(dom, m.flipReset) {
			sched.SubResult = 1
		}
		maxResult = max(maxResult, sched.Result)
		maxSub = max(maxSub, sched.SubResult)
		e.reserve(sched.Result*s.k + sched.SubResult)
		e.domain(&sched, dom, anySet, anyReset)
	}
	p.Write = units.Duration(maxResult)*s.par.TSet + units.Duration(maxSub)*e.clk.pitch
	s.finishEmission(p, &e, maxResult*s.k+maxSub)
}

// unitNeeds returns each data unit's write-1 and write-0 current need
// within one domain: the popcounts of the domain's cells of the unit,
// which lie side by side in the line words, times the per-cell current.
func (s *scheme) unitNeeds(dom packDomain) (in1, in0 []int) {
	sets, resets := s.masks.sets, s.masks.resets
	lg := s.masks.g.Lg
	cost1, cost0 := s.par.CurrentSet, s.par.CurrentReset
	lo, n, stride := dom.c0<<lg, (dom.c1-dom.c0)<<lg, s.nc<<lg
	in1, in0 = s.in1, s.in0
	for u := range in1 {
		in1[u] = popBits(sets, lo, n) * cost1
		in0[u] = popBits(resets, lo, n) * cost0
		lo += stride
	}
	return in1, in0
}

// domainFlips reports whether any cell of the domain has its bit set in
// the per-cell flip bitset fs.
func (s *scheme) domainFlips(dom packDomain, fs []uint64) bool {
	if dom.c1-dom.c0 == s.nc {
		return anyBit(fs) // the domain holds every cell
	}
	for first := dom.c0; first < s.nu*s.nc; first += s.nc {
		if popBits(fs, first, dom.c1-dom.c0) > 0 {
			return true
		}
	}
	return false
}

// popBits counts the set bits of ws in the bit range [lo, lo+n).
func popBits(ws []uint64, lo, n int) int {
	if off := lo & 63; off+n <= 64 {
		return bits.OnesCount64(ws[lo>>6] >> off & (1<<n - 1))
	}
	count := 0
	for n > 0 {
		off := lo & 63
		take := min(64-off, n)
		count += bits.OnesCount64(ws[lo>>6] >> off & (1<<take - 1))
		lo += take
		n -= take
	}
	return count
}

// bit reports whether bit i of the bitset bs is set.
func bit(bs []uint64, i int) bool { return bs[i>>6]>>(i&63)&1 != 0 }

// popAll counts the set bits of ws.
func popAll(ws []uint64) int {
	n := 0
	for _, w := range ws {
		n += bits.OnesCount64(w)
	}
	return n
}

// anyBit reports whether the bitset bs has any bit set.
func anyBit(bs []uint64) bool {
	for _, w := range bs {
		if w != 0 {
			return true
		}
	}
	return false
}

// startEmission returns an emitter for the plan's pulses. Sub-slot
// pitch is Tset/K, so Equation 5 holds exactly and a RESET pulse
// (Treset <= Tset/K) always fits its sub-slot.
func (s *scheme) startEmission(p *schemes.Plan) emitter {
	pitch := s.par.TSet / units.Duration(s.k)
	return emitter{
		pulses: p.Pulses,
		counts: s.counts,
		m:      &s.masks,
		clk:    slotClock{k: s.k, tset: s.par.TSet, pitch: pitch, exact: pitch*units.Duration(s.k) == s.par.TSet},
		nc:     s.nc,
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
// the way SortPulses does (see emitter), so a stable counting sort keyed
// by sub-slot index times NumChips plus chip yields the SortPulses order
// without comparing pulses. The emitter counted the keys as it went and
// left each pulse's sub-slot index in its Start, which the sort scales
// to the start time. The sorted pulses land in a scheme-owned buffer
// that is swapped with the emission buffer instead of copied back.
// Otherwise SortPulses orders the plan.
func (s *scheme) finishEmission(p *schemes.Plan, e *emitter, slots int) {
	e.reserve(slots)
	p.Pulses = e.pulses
	s.counts = e.counts // keep the grown histogram for the next write
	nc := e.nc
	counts := e.counts[:slots*nc]
	defer clear(counts) // the histogram starts the next write empty
	if !e.clk.exact {
		p.SortPulses()
		return
	}
	var sum int32
	for b, c := range counts {
		counts[b] = sum
		sum += c
	}
	n := len(p.Pulses)
	if cap(s.sorted) < n {
		s.sorted = make([]schemes.Pulse, n, cap(p.Pulses))
	}
	sorted := s.sorted[:n]
	pitch := e.clk.pitch
	for i := range p.Pulses {
		// Field by field: the emitter's field stores forward to loads of
		// the same width, not to a whole-record copy.
		q := &p.Pulses[i]
		key := int(q.Start)*nc + q.Chip
		d := &sorted[counts[key]]
		d.Chip, d.Unit, d.Start, d.Mask, d.Kind, d.FlipCell = q.Chip, q.Unit, q.Start*pitch, q.Mask, q.Kind, q.FlipCell
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

// at returns what the emitter stores as the Start of a pulse in sub-slot
// i: the index itself when K divides Tset, for finishEmission to sort by
// and scale, else the start.
func (clk *slotClock) at(i int) units.Duration {
	if clk.exact {
		return units.Duration(i)
	}
	return clk.start(i)
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

// emitter builds one plan's pulse list straight from the read stage's
// masks, keying every pulse for the counting sort by its global sub-slot
// index times NumChips plus its chip.
//
// Each unit's pulses are emitted data SETs, flip-cell SET riders, data
// RESETs, flip-cell RESET riders, and units in ascending order within a
// domain. A unit has at most one pulse per (start, chip, kind, flip
// cell) and a chip belongs to one domain, so inside a (start, chip)
// bucket this is SortPulses' tie order: unit, then kind, then flip-cell
// flag.
type emitter struct {
	pulses       []schemes.Pulse
	counts       []int32 // per key: pulses emitted so far
	m            *lineMasks
	clk          slotClock
	nc           int
	cost1, cost0 int // per-cell SET and RESET currents
}

// reserve sizes the key histogram for a domain of the given number of
// global sub-slots.
func (e *emitter) reserve(slots int) {
	if n := slots * e.nc; n > len(e.counts) {
		e.counts = append(e.counts, make([]int32, n-len(e.counts))...)
	}
}

// emit appends one pulse at global sub-slot idx, with Start at (see
// slotClock.at), and counts its sort key. It writes the fields in place:
// copying a composite literal into the slice stalls each store on the
// narrower stores that built the literal.
func (e *emitter) emit(c, u int, kind schemes.PulseKind, idx int, at units.Duration, mask uint16, flip bool) {
	e.counts[idx*e.nc+c]++
	n := len(e.pulses)
	e.pulses = append(e.pulses, schemes.Pulse{})
	pl := &e.pulses[n]
	pl.Chip, pl.Unit, pl.Start, pl.Mask, pl.Kind, pl.FlipCell = c, u, at, mask, kind, flip
}

// domain emits one packed domain's schedule. anySet and anyReset report
// whether any cell of the line SETs or RESETs its flip cell.
func (e *emitter) domain(sched *Schedule, dom packDomain, anySet, anyReset bool) {
	e.clk.result = sched.Result
	k, m := e.clk.k, e.m
	for u, w1 := range sched.Write1 {
		w0 := sched.Write0[u]
		set, reset := firstSlot(w1)*k, firstSlot(w0)
		if len(w1) == 1 {
			e.whole(dom, u, m.sets, schemes.Set, set)
		} else if len(w1) > 1 {
			e.split(dom, u, m.sets, schemes.Set, w1, e.cost1, k)
		}
		if anySet && popBits(m.flipSet, u*e.nc+dom.c0, dom.c1-dom.c0) > 0 {
			e.riders(dom, u, m.flipSet, schemes.Set, set)
		}
		if len(w0) == 1 {
			e.whole(dom, u, m.resets, schemes.Reset, reset)
		} else if len(w0) > 1 {
			e.split(dom, u, m.resets, schemes.Reset, w0, e.cost0, 1)
		}
		if anyReset && popBits(m.flipReset, u*e.nc+dom.c0, dom.c1-dom.c0) > 0 {
			e.riders(dom, u, m.flipReset, schemes.Reset, reset)
		}
	}
}

// whole emits data unit u's pulses of one kind when a single allocation,
// at global sub-slot idx, holds the unit's whole need: every domain chip
// pulses its whole mask in ws there. It goes a word of the line at a
// time and writes every chip's pulse, keeping those with cells, so it
// does not branch on which chips have any.
func (e *emitter) whole(dom packDomain, u int, ws []uint64, kind schemes.PulseKind, idx int) {
	g := e.m.g
	at := e.clk.at(idx)
	row := u * e.nc
	base := idx * e.nc
	for i, end := row+dom.c0, row+dom.c1; i < end; {
		b := i << g.Lg
		cnt := min(64-b&63, (end-i)<<g.Lg) >> g.Lg // cells of the domain in this word
		x := ws[b>>6] >> (b & 63)
		c := i - row
		n := len(e.pulses)
		pulses := slices.Grow(e.pulses, cnt)[:n+cnt]
		counts := e.counts[base+c : base+c+cnt]
		for l := range counts {
			mask := uint16(x & g.Ones)
			x >>= g.W
			pl := &pulses[n]
			pl.Chip, pl.Unit, pl.Start, pl.Mask, pl.Kind, pl.FlipCell = c+l, u, at, mask, kind, false
			inc := 0
			if mask != 0 {
				inc = 1
			}
			counts[l] += int32(inc)
			n += inc
		}
		e.pulses = pulses[:n]
		i += cnt
	}
}

// split emits data unit u's pulses of one kind when its need is split
// across several allocations: one pulse per allocation and domain chip
// that receives cells. A cursor hands the unit's cells in ws to the
// allocations in the order the packer assumed — chip-major in domain
// order, ascending bit within a chip — consuming whole chip masks with a
// popcount and splitting one by clearing lowest set bits. cost is the
// per-cell current and scale maps an allocation's slot to its global
// sub-slot index (K for write units, 1 for sub-slots).
func (e *emitter) split(dom packDomain, u int, ws []uint64, kind schemes.PulseKind, allocs []Alloc, cost, scale int) {
	g, row := e.m.g, u*e.nc
	c := dom.c0
	rem := g.Cell(ws, row+c) // cells of chip c not yet handed out
	for _, a := range allocs {
		idx := a.Slot * scale
		at := e.clk.at(idx)
		for n := a.Amount / cost; n > 0; {
			for rem == 0 {
				c++
				rem = g.Cell(ws, row+c)
			}
			take := rem
			if avail := bits.OnesCount16(rem); avail <= n {
				n -= avail
			} else {
				rest := rem
				for ; n > 0; n-- {
					rest &= rest - 1 // clear lowest set bit
				}
				take = rem &^ rest
			}
			rem &^= take
			e.emit(c, u, kind, idx, at, take, false)
		}
	}
}

// riders emits data unit u's flip-cell pulses of one kind, for the
// domain cells set in the bitset fs, at global sub-slot idx:
// zero-budget riders in the unit's first slot of the matching kind, or
// the domain's first slot when it has none.
func (e *emitter) riders(dom packDomain, u int, fs []uint64, kind schemes.PulseKind, idx int) {
	row, at := u*e.nc, e.clk.at(idx)
	for i, end := row+dom.c0, row+dom.c1; i < end; {
		n := min(64-i&63, end-i)
		for x := fs[i>>6] >> (i & 63) & (1<<n - 1); x != 0; x &= x - 1 {
			e.emit(i-row+bits.TrailingZeros64(x), u, kind, idx, at, 0, true)
		}
		i += n
	}
}
