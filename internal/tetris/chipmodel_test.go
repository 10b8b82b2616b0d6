// This file holds a structural model of the PCM chip datapath the paper
// builds on (its Figure 6, the Samsung prototype plus the added Tetris
// Write logic): the X136 write buffer (128 data bits + 8 flip bits), the
// 0/1 counters feeding the Reg0/Reg1 register file, the analyzer, the
// FSM0/FSM1 pair, the DMUX and the redesigned write driver on the write
// path; GYDEC, sense amplifiers, the DOUT buffer and the synchronous
// burst domain on the read path.
//
// Unlike the behavioral scheme New builds, which computes a whole
// pulse plan in one step, this model advances tick by tick and moves
// data between latched stages, so the test suite can prove the two
// EQUIVALENT: the same cells get pulsed, the per-tick current never
// exceeds the chip budget, and the array ends in the same state.
//
// The write-control domain ticks at twice the memory bus clock (the
// prototype's DDR interface), which makes every interval of interest a
// whole number of ticks with the default timing: Tset = 344 ticks,
// sub-write-unit pitch = 43 ticks, Treset = 43 ticks (42.4 rounded up to
// the tick grid).

package tetris

import (
	"fmt"

	"tetriswrite/internal/bitutil"
	"tetriswrite/internal/pcm"
	"tetriswrite/internal/schemes"
	"tetriswrite/internal/units"
)

// Chip models one x16 PCM chip: 8 data units of 16 cells plus a flip
// cell each, and the control logic in front of them.
type Chip struct {
	par pcm.Params

	// Cell state, per data unit.
	cells [8]uint16
	flips [8]bool

	// Tick bookkeeping.
	tickLen units.Duration

	stats chipStats
}

// chipStats counts datapath activity.
type chipStats struct {
	Reads       int64
	Writes      int64
	SetPulses   int64
	ResetPulses int64
	PeakCurrent int
	Ticks       int64
}

// newChip creates a chip with the given parameters. Only the single-chip
// geometry is meaningful here: ChipWidthBits must be 16 and the chip
// sees 8 data units (a 16-byte slice of the bank's line).
func newChip(par pcm.Params) (*Chip, error) {
	if par.ChipWidthBits != 16 {
		return nil, fmt.Errorf("chip: structural model is built for x16 parts, got x%d", par.ChipWidthBits)
	}
	if err := par.Validate(); err != nil {
		return nil, err
	}
	return &Chip{
		par:     par,
		tickLen: par.MemClock.Period() / 2, // DDR write-control domain
	}, nil
}

// Stats returns the datapath counters.
func (c *Chip) Stats() chipStats { return c.stats }

// ticksOf converts a duration to control ticks, rounding up.
func (c *Chip) ticksOf(d units.Duration) int64 {
	return int64((d + c.tickLen - 1) / c.tickLen)
}

// Logical returns the decoded 16 bytes the chip currently stores.
func (c *Chip) Logical() []byte {
	out := make([]byte, 16)
	for u := 0; u < 8; u++ {
		w := c.cells[u]
		if c.flips[u] {
			w = ^w
		}
		out[2*u] = byte(w)
		out[2*u+1] = byte(w >> 8)
	}
	return out
}

// wordOf extracts data unit u's logical word from a 16-byte chip image.
func wordOf(img []byte, u int) uint16 {
	return uint16(img[2*u]) | uint16(img[2*u+1])<<8
}

// ReadResult reports a structural read.
type ReadResult struct {
	Data  []byte
	Ticks int64 // total ticks: GYDEC + array access + DOUT + burst out
}

// Read walks the read path: GYDEC column decode (1 bus cycle = 2 ticks),
// array access (TRead), DOUT latch (2 ticks), then the synchronous burst
// domain shifts out 8 words at one bus cycle each.
func (c *Chip) Read() ReadResult {
	c.stats.Reads++
	ticks := int64(2)               // GYDEC
	ticks += c.ticksOf(c.par.TRead) // cells -> S/A
	ticks += 2                      // DOUT latch
	ticks += 8 * 2                  // 8-word burst, one bus cycle per word
	c.stats.Ticks += ticks
	return ReadResult{Data: c.Logical(), Ticks: ticks}
}

// pulse is one in-flight programming pulse on the cell array.
type pulse struct {
	unit     int
	kind     schemes.PulseKind
	mask     uint16
	flipCell bool
	endTick  int64
	current  int
}

// WriteResult reports a structural write.
type WriteResult struct {
	ReadTicks    int64 // read-before-write
	AnalyzeTicks int64
	WriteTicks   int64 // programming phase
	Result       int   // write units used (FSM1 slots)
	SubResult    int   // extra sub-write-units (FSM0 overflow slots)
}

// TotalTicks returns the end-to-end occupancy.
func (r WriteResult) TotalTicks() int64 { return r.ReadTicks + r.AnalyzeTicks + r.WriteTicks }

// Write drives the full write path for a 16-byte chip-slice update:
//
//  1. the write buffer latches the incoming 136 bits;
//  2. the array is read and the 0/1 counters latch each unit's SET/RESET
//     counts into Reg0/Reg1 while the inversion decision is made;
//  3. the analyzer packs the work (the paper's Algorithm 2, synthesized
//     from the same source as the behavioral packer);
//  4. FSM1 and FSM0 walk their queues tick by tick, selecting units via
//     the DMUX and handing write signals to the driver;
//  5. the driver's PROG-enable gating pulses exactly the changed cells.
//
// It returns the slot dimensions and updates the cell array.
func (c *Chip) Write(data []byte) (WriteResult, error) {
	if len(data) != 16 {
		return WriteResult{}, fmt.Errorf("chip: write of %d bytes, want 16", len(data))
	}
	c.stats.Writes++
	var res WriteResult
	res.ReadTicks = c.ticksOf(c.par.TRead)

	// Stage 2: read-modify analysis. The counters operate on the encoded
	// array bits; the read stage picks the encoding.
	regs := NewRegFile(8, 8)
	type unitPlan struct {
		uc UnitCounts
	}
	var plans [8]unitPlan
	in1 := make([]int, 8)
	in0 := make([]int, 8)
	for u := 0; u < 8; u++ {
		stored := bitutil.FlipWord{Bits: c.cells[u], Flip: c.flips[u]}
		uc := ReadStage(stored, wordOf(data, u), 16, false)
		plans[u] = unitPlan{uc: uc}
		if err := regs.Latch(u, uc.N1(), uc.N0()); err != nil {
			return WriteResult{}, fmt.Errorf("chip: Reg0/Reg1 latch: %w", err)
		}
		in1[u] = regs.N1(u) * c.par.CurrentSet
		in0[u] = regs.N0(u) * c.par.CurrentReset
	}

	// Stage 3: analyzer.
	res.AnalyzeTicks = 2 * int64(DefaultAnalysisCycles)
	minResult := 0
	for u := 0; u < 8; u++ {
		if plans[u].uc.FlipSet {
			minResult = 1
		}
	}
	pk := Packer{
		Budget: c.par.ChipBudget, K: c.par.K(),
		Cost1: c.par.CurrentSet, Cost0: c.par.CurrentReset,
		MinResult: minResult,
	}
	sched := pk.Pack(in1, in0)
	for u := 0; u < 8; u++ {
		if plans[u].uc.FlipReset && len(sched.Write0[u]) == 0 &&
			sched.Result == 0 && sched.SubResult == 0 {
			sched.SubResult = 1
		}
	}
	res.Result, res.SubResult = sched.Result, sched.SubResult

	// Stage 4+5: tick-stepped FSMs and driver.
	tsetTicks := c.ticksOf(c.par.TSet)
	pitchTicks := tsetTicks / int64(c.par.K())
	tresetTicks := c.ticksOf(c.par.TReset)
	if tresetTicks > pitchTicks {
		tresetTicks = pitchTicks // the sub-slot grid bounds the pulse
	}
	res.WriteTicks = int64(sched.Result)*tsetTicks + int64(sched.SubResult)*pitchTicks

	subStart := func(slot int) int64 {
		if slot < sched.Result*sched.K {
			return int64(slot/sched.K)*tsetTicks + int64(slot%sched.K)*pitchTicks
		}
		return int64(sched.Result)*tsetTicks + int64(slot-sched.Result*sched.K)*pitchTicks
	}

	// Build the tick-indexed issue list from the FSM queues.
	var active []pulse
	issue := func(p pulse) { active = append(active, p) }
	for u := 0; u < 8; u++ {
		uc := plans[u].uc
		// FSM1: write-1 groups. Split allocations pulse subsets of the
		// unit's SET cells in allocation order, exactly like the
		// behavioral emission.
		setCells := uc.Tr.Sets
		taken := 0
		for _, a := range sched.Write1[u] {
			n := a.Amount / c.par.CurrentSet
			mask := takeBits(setCells, taken, n)
			taken += n
			start := int64(a.Slot) * tsetTicks
			drv := Drive(DriverInput{
				Stored: c.cells[u], Incoming: uc.Enc.Bits, Signal: schemes.Set,
			})
			mask &= drv.Pulsed // PROG-enable gating
			issue(pulse{unit: u, kind: schemes.Set, mask: mask,
				endTick: start + tsetTicks, current: bitutil.PopCount16(mask) * c.par.CurrentSet})
		}
		if uc.FlipSet {
			slot := 0
			if len(sched.Write1[u]) > 0 {
				slot = sched.Write1[u][0].Slot
			}
			issue(pulse{unit: u, kind: schemes.Set, flipCell: true,
				endTick: int64(slot)*tsetTicks + tsetTicks})
		}
		// FSM0: write-0 groups.
		resetCells := uc.Tr.Resets
		taken = 0
		for _, a := range sched.Write0[u] {
			n := a.Amount / c.par.CurrentReset
			mask := takeBits(resetCells, taken, n)
			taken += n
			start := subStart(a.Slot)
			drv := Drive(DriverInput{
				Stored: c.cells[u], Incoming: uc.Enc.Bits, Signal: schemes.Reset,
			})
			mask &= drv.Pulsed
			issue(pulse{unit: u, kind: schemes.Reset, mask: mask,
				endTick: start + tresetTicks, current: bitutil.PopCount16(mask) * c.par.CurrentReset})
		}
		if uc.FlipReset {
			start := int64(0)
			if len(sched.Write0[u]) > 0 {
				start = subStart(sched.Write0[u][0].Slot)
			}
			issue(pulse{unit: u, kind: schemes.Reset, flipCell: true,
				endTick: start + tresetTicks})
		}
	}

	// Verify the per-tick current by sweeping before touching any cell.
	peak := c.sweepPeak(active, tsetTicks, tresetTicks)
	if peak > c.par.ChipBudget {
		return WriteResult{}, fmt.Errorf("chip: schedule draws %d, budget %d", peak, c.par.ChipBudget)
	}
	if peak > c.stats.PeakCurrent {
		c.stats.PeakCurrent = peak
	}

	for _, p := range active {
		if p.kind == schemes.Set {
			c.cells[p.unit] |= p.mask
			if p.flipCell {
				c.flips[p.unit] = true
			}
			c.stats.SetPulses += int64(bitutil.PopCount16(p.mask))
			if p.flipCell {
				c.stats.SetPulses++
			}
		} else {
			c.cells[p.unit] &^= p.mask
			if p.flipCell {
				c.flips[p.unit] = false
			}
			c.stats.ResetPulses += int64(bitutil.PopCount16(p.mask))
			if p.flipCell {
				c.stats.ResetPulses++
			}
		}
	}
	c.stats.Ticks += res.TotalTicks()
	return res, nil
}

// sweepPeak computes the maximum simultaneous current of the pulse set.
func (c *Chip) sweepPeak(active []pulse, tsetTicks, tresetTicks int64) int {
	type edge struct {
		at    int64
		delta int
	}
	var edges []edge
	for _, p := range active {
		start := p.endTick
		if p.kind == schemes.Set {
			start -= tsetTicks
		} else {
			start -= tresetTicks
		}
		edges = append(edges, edge{start, p.current}, edge{p.endTick, -p.current})
	}
	// Insertion-sort by time, releases first on ties.
	for i := 1; i < len(edges); i++ {
		for j := i; j > 0 && (edges[j].at < edges[j-1].at ||
			(edges[j].at == edges[j-1].at && edges[j].delta < edges[j-1].delta)); j-- {
			edges[j], edges[j-1] = edges[j-1], edges[j]
		}
	}
	cur, peak := 0, 0
	for _, e := range edges {
		cur += e.delta
		if cur > peak {
			peak = cur
		}
	}
	return peak
}

// takeBits returns a mask of up to n set bits of mask, skipping the
// first `skip` set bits — the DMUX offset selection.
func takeBits(mask uint16, skip, n int) uint16 {
	var out uint16
	seen, taken := 0, 0
	for b := 0; b < 16 && taken < n; b++ {
		if mask&(1<<b) == 0 {
			continue
		}
		if seen < skip {
			seen++
			continue
		}
		out |= 1 << b
		taken++
	}
	return out
}
