// Package schemes defines the common interface of PCM cache-line write
// schemes and implements the state of the art the paper compares against:
//
//   - Conventional: serial write units, every cell pulsed, worst-case time;
//   - DCW (the paper's baseline): read-before-write, only changed cells
//     pulsed, but worst-case serial timing;
//   - Flip-N-Write: inversion coding halves the worst-case changed cells,
//     so two data units share one write unit;
//   - 2-Stage-Write: all RESETs first (fast), then SETs packed under the
//     lower SET current, with SET-minimizing inversion;
//   - Three-Stage-Write: Flip-N-Write's read+flip stage glued onto
//     2-Stage-Write, halving both stages.
//
// The Tetris Write scheme itself lives in package tetris; it implements
// the same Scheme interface.
//
// A scheme turns one cache-line write into a Plan: a pulse schedule with
// read/analysis/write phases. Plans are self-describing enough for three
// independent consumers: the memory-controller simulator (service time),
// the energy accounting (pulse counts), and the test oracles (the pulse
// train must respect the power budget at every instant and must transform
// the stored bits into the new data).
package schemes

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"tetriswrite/internal/pcm"
	"tetriswrite/internal/power"
	"tetriswrite/internal/units"
)

// PulseKind distinguishes the two PCM programming pulses.
type PulseKind uint8

const (
	// Set crystallizes cells: writes '1', slow, low current.
	Set PulseKind = iota
	// Reset amorphizes cells: writes '0', fast, high current.
	Reset
)

// String returns "SET" or "RESET".
func (k PulseKind) String() string {
	if k == Set {
		return "SET"
	}
	return "RESET"
}

// Pulse is one group of simultaneous same-kind pulses on one chip within
// one data unit: the granularity the write driver actually operates at.
// The small fields share one word, so a Pulse is 32 bytes.
type Pulse struct {
	Chip     int            // chip index within the bank
	Unit     int            // data unit index within the line
	Start    units.Duration // offset from the start of the write phase
	Mask     uint16         // data cells pulsed within the chip slice
	Kind     PulseKind      // SET or RESET
	FlipCell bool           // the unit's flip cell is pulsed too
}

// Bits returns the number of cells pulsed by this record, including the
// flip cell. This is the energy-accounting count.
func (p Pulse) Bits() int {
	n := bits.OnesCount16(p.Mask)
	if p.FlipCell {
		n++
	}
	return n
}

// DataBits returns the number of data cells pulsed by this record,
// excluding the flip cell. This is the power-budget count: following the
// paper's own arithmetic (its Figure 4 example counts 8+7+7+6+3 data bits
// against the budget of 32), the flip-bit drivers sit outside the data
// budget — in the prototype the 8 flip bits per 128 data bits have their
// own driver column.
func (p Pulse) DataBits() int { return bits.OnesCount16(p.Mask) }

// Plan is the full schedule of one cache-line write.
type Plan struct {
	// Read is the read-before-write latency (zero for schemes without
	// data comparison), Analysis the scheduling overhead (Tetris only)
	// and Write the span of the programming phase.
	Read     units.Duration
	Analysis units.Duration
	Write    units.Duration

	// Pulses hold the programming schedule, offsets relative to the start
	// of the write phase.
	Pulses []Pulse

	// Pulse duration and current per kind, copied from the device
	// parameters so a Plan can be checked without them.
	TSet, TReset             units.Duration
	CurrentSet, CurrentReset int

	// Sets and Resets are the SET and RESET cell pulses of Pulses,
	// flip cells included: the counts Counts recomputes, kept by the
	// scheme as it emits so consumers need not walk the pulses.
	Sets, Resets int
}

// ServiceTime returns the total array occupancy of the write.
func (p Plan) ServiceTime() units.Duration { return p.Read + p.Analysis + p.Write }

// WriteUnits returns the write phase expressed in units of Tset — the
// paper's Figure 10 metric ("number of write units"): 8 for the baseline,
// 4 for Flip-N-Write, 3 for 2-Stage-Write, 2.5 for Three-Stage-Write, and
// result + subresult/K for Tetris Write.
func (p Plan) WriteUnits() float64 {
	if p.TSet == 0 {
		return 0
	}
	return float64(p.Write) / float64(p.TSet)
}

// Counts recounts the SET and RESET cell pulses of the plan's pulses,
// including flip cells: the reference Validate holds the carried Sets
// and Resets to.
func (p Plan) Counts() (sets, resets int) {
	for _, pl := range p.Pulses {
		if pl.Kind == Set {
			sets += pl.Bits()
		} else {
			resets += pl.Bits()
		}
	}
	return sets, resets
}

// dur returns the pulse length of kind k.
func (p Plan) dur(k PulseKind) units.Duration {
	if k == Set {
		return p.TSet
	}
	return p.TReset
}

// current returns the per-cell current of kind k.
func (p Plan) current(k PulseKind) int {
	if k == Set {
		return p.CurrentSet
	}
	return p.CurrentReset
}

// Profile converts the plan's pulse train into a power profile with the
// write phase starting at time origin. Only data cells draw from the
// budget (see Pulse.DataBits).
func (p Plan) Profile(origin units.Time) *power.Profile {
	var prof power.Profile
	for _, pl := range p.Pulses {
		start := origin.Add(pl.Start)
		prof.Add(pl.Chip, start, start.Add(p.dur(pl.Kind)), pl.DataBits()*p.current(pl.Kind))
	}
	return &prof
}

// Validate performs structural checks every plan must satisfy: pulses lie
// within the write phase, masks are nonempty, no cell is pulsed twice,
// and the carried Sets and Resets match the pulses.
func (p Plan) Validate(par pcm.Params) error {
	type cell struct {
		chip, unit int
		flip       bool
		bit        int
	}
	seen := map[cell]bool{}
	for i, pl := range p.Pulses {
		if pl.Chip < 0 || pl.Chip >= par.NumChips {
			return fmt.Errorf("pulse %d: chip %d out of range", i, pl.Chip)
		}
		if pl.Unit < 0 || pl.Unit >= par.DataUnits() {
			return fmt.Errorf("pulse %d: unit %d out of range", i, pl.Unit)
		}
		if pl.Mask == 0 && !pl.FlipCell {
			return fmt.Errorf("pulse %d: empty pulse record", i)
		}
		if pl.Start < 0 || pl.Start+p.dur(pl.Kind) > p.Write {
			return fmt.Errorf("pulse %d: [%v, +%v) outside write phase %v",
				i, pl.Start, p.dur(pl.Kind), p.Write)
		}
		for b := 0; b < 16; b++ {
			if pl.Mask&(1<<b) == 0 {
				continue
			}
			c := cell{pl.Chip, pl.Unit, false, b}
			if seen[c] {
				return fmt.Errorf("pulse %d: cell %+v pulsed twice", i, c)
			}
			seen[c] = true
		}
		if pl.FlipCell {
			c := cell{pl.Chip, pl.Unit, true, 0}
			if seen[c] {
				return fmt.Errorf("pulse %d: flip cell %+v pulsed twice", i, c)
			}
			seen[c] = true
		}
	}
	if sets, resets := p.Counts(); sets != p.Sets || resets != p.Resets {
		return fmt.Errorf("plan carries %d SET and %d RESET cell pulses, its pulses hold %d and %d",
			p.Sets, p.Resets, sets, resets)
	}
	return nil
}

// SortPulses orders the plan's pulses by start time (then chip, unit,
// kind, flip-cell flag, mask) for deterministic output. The comparator is
// a total order — Plan.Validate forbids two pulses identical in every
// field — so the sorted order is unique regardless of input order or sort
// algorithm, which is what lets the scratch-arena path and the
// fresh-allocation path produce bit-identical plans. It is the definition
// of a plan's pulse order: Tetris Write emits this order by construction
// and calls SortPulses only when its sub-slots do not share one pitch.
//
// The common case packs the whole comparator key into one uint64 per
// pulse — Start(36) Chip(4) Unit(6) Kind(1) FlipCell(1) Mask(16), in
// comparator significance order — sorts the keys natively, and decodes
// the pulses back out of them. Plans whose fields overflow the packing
// (enormous starts, exotic geometries) take the comparator sort; both
// produce the identical unique order.
func (p *Plan) SortPulses() {
	if len(p.Pulses) < 2 {
		return
	}
	var keyBuf [256]uint64
	keys := keyBuf[:0]
	if len(p.Pulses) > len(keyBuf) {
		keys = make([]uint64, 0, len(p.Pulses))
	}
	for _, pl := range p.Pulses {
		if uint64(pl.Start) >= 1<<36 || uint(pl.Chip) >= 16 || uint(pl.Unit) >= 64 || pl.Kind > Reset {
			p.sortPulsesSlow()
			return
		}
		k := uint64(pl.Start)<<28 | uint64(pl.Chip)<<24 | uint64(pl.Unit)<<18 | uint64(pl.Kind)<<17 | uint64(pl.Mask)
		if pl.FlipCell {
			k |= 1 << 16
		}
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for i, k := range keys {
		p.Pulses[i] = Pulse{
			Chip:     int(k >> 24 & 0xF),
			Unit:     int(k >> 18 & 0x3F),
			Kind:     PulseKind(k >> 17 & 1),
			Start:    units.Duration(k >> 28),
			Mask:     uint16(k),
			FlipCell: k&(1<<16) != 0,
		}
	}
}

func (p *Plan) sortPulsesSlow() {
	slices.SortFunc(p.Pulses, func(a, b Pulse) int {
		if a.Start != b.Start {
			return cmp.Compare(a.Start, b.Start)
		}
		if a.Chip != b.Chip {
			return cmp.Compare(a.Chip, b.Chip)
		}
		if a.Unit != b.Unit {
			return cmp.Compare(a.Unit, b.Unit)
		}
		if a.Kind != b.Kind {
			return cmp.Compare(a.Kind, b.Kind)
		}
		if a.FlipCell != b.FlipCell {
			if a.FlipCell {
				return 1
			}
			return -1
		}
		return cmp.Compare(a.Mask, b.Mask)
	})
}

// Scheme plans cache-line writes. Implementations carry per-line coding
// state (flip tags) and are NOT safe for concurrent use; give each bank
// its own instance via a Factory.
type Scheme interface {
	// Name returns the scheme's short identifier, e.g. "fnw".
	Name() string

	// PlanWrite computes the pulse schedule that turns the currently
	// stored logical contents old into new, updating the scheme's coding
	// state for the line. Both slices are LineBytes long; PlanWrite does
	// not retain them.
	PlanWrite(addr pcm.LineAddr, old, new []byte) Plan

	// NeedsReadBeforeWrite reports whether the scheme performs an array
	// read before writing (data-comparison schemes do).
	NeedsReadBeforeWrite() bool
}

// Factory builds a fresh scheme instance for one bank.
type Factory func(pcm.Params) Scheme

// FlipTagger is implemented by schemes whose per-line coding state is
// exactly one inversion tag per (chip, data unit), in the FlipTagStore
// layout: bit u*NumChips+c of one uint64 word. FlipTags returns the
// line's tag word (zero for a line never written); RestoreFlipTags
// overwrites it wholesale. Crash recovery compares the word with the
// physical flip cells to judge a torn line, then restores it from them.
// The adaptive meta-scheme hands a line over between candidates only
// when the tags are all clear, so the receiving scheme's (implicitly
// zero) state still decodes the line. A scheme without the interface
// keeps no tags and never pulses a flip cell: its tags count as 0.
type FlipTagger interface {
	FlipTags(addr pcm.LineAddr) uint64
	RestoreFlipTags(addr pcm.LineAddr, tags uint64)
}

// QueueObserver is implemented by schemes that adapt to controller load.
// The memory controller calls ObserveQueues with the bank's current read
// and write queue depths immediately before each PlanWrite. The depths
// are a deterministic function of the simulated request stream, so
// schemes may fold them into planning decisions without breaking the
// replay-identical contract.
type QueueObserver interface {
	ObserveQueues(reads, writes int)
}

// StatProvider is implemented by schemes that export internal counters
// to the telemetry layer. SchemeStats calls emit once per counter with a
// fully-qualified series name (e.g. "scheme.adaptive.switches") and its
// current value. Decorators forward their inner scheme's stats and add
// their own; the controller sums the emissions across banks.
type StatProvider interface {
	SchemeStats(emit func(name string, value float64))
}

// PowerBudget derives the bank's power constraint from the device
// parameters.
func PowerBudget(par pcm.Params) power.Budget {
	return power.Budget{PerChip: par.ChipBudget, Chips: par.NumChips, GCP: par.GlobalChargePump}
}

// basePlan fills the Plan fields every scheme copies from the parameters.
func basePlan(par pcm.Params) Plan {
	return Plan{
		TSet:         par.TSet,
		TReset:       par.TReset,
		CurrentSet:   par.CurrentSet,
		CurrentReset: par.CurrentReset,
	}
}

// ceilDiv returns ceil(a/b) for positive b.
func ceilDiv(a, b int) int { return (a + b - 1) / b }

// staticLayout is the slot arithmetic shared by every scheme except
// Tetris: schedules are shaped by the worst case (worstCells cells per
// data unit, each drawing worstCur) and never by the actual data. When one
// worst-case unit fits the per-chip budget, several units share a slot;
// when it does not (tiny mobile budgets), each unit is split across
// several slots of capBits cells each.
type staticLayout struct {
	unitsPerSlot int // data units that share one slot (1 in split regime)
	slotsPerUnit int // slots one data unit spans (1 in shared regime)
	capBits      int // cells one chip may pulse per slot
}

func newStaticLayout(worstCells, worstCur, budget int) staticLayout {
	perUnit := worstCells * worstCur
	if perUnit <= budget {
		return staticLayout{
			unitsPerSlot: budget / perUnit,
			slotsPerUnit: 1,
			capBits:      worstCells,
		}
	}
	capBits := budget / worstCur // >= 1: Params.Validate requires budget >= CurrentReset
	return staticLayout{
		unitsPerSlot: 1,
		slotsPerUnit: ceilDiv(worstCells, capBits),
		capBits:      capBits,
	}
}

// slots returns the total serial slot count for nUnits data units.
func (l staticLayout) slots(nUnits int) int {
	if nUnits == 0 {
		return 0
	}
	return ceilDiv(nUnits, l.unitsPerSlot) * l.slotsPerUnit
}

// firstSlot returns the first slot index of data unit u.
func (l staticLayout) firstSlot(u int) int {
	return (u / l.unitsPerSlot) * l.slotsPerUnit
}
