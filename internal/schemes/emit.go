package schemes

import (
	"math/bits"

	"tetriswrite/internal/units"
)

// slotClock maps slot indices to write-phase offsets under the static
// layouts, where slots are evenly pitched: start(i) = base + i*pitch. A
// value type instead of a closure keeps plan emission off the heap.
type slotClock struct {
	base, pitch units.Duration
}

func (sc slotClock) start(i int) units.Duration {
	return sc.base + units.Duration(i)*sc.pitch
}

// push appends one pulse to the plan. It writes the fields in place:
// copying a composite literal into the slice stalls each store on the
// narrower stores that built the literal.
func (p *Plan) push(chip, unit int, kind PulseKind, start units.Duration, mask uint16, flip bool) {
	n := len(p.Pulses)
	p.Pulses = append(p.Pulses, Pulse{})
	pl := &p.Pulses[n]
	pl.Chip, pl.Unit, pl.Start, pl.Mask, pl.Kind, pl.FlipCell = chip, unit, start, mask, kind, flip
}

// emitStreams places data unit u's RESET cells, then its SET cells,
// into the unit's slots under the static layout, and adds them to the
// plan's counts. Cells are assigned capBits per slot starting at the
// unit's first slot, in stream order and bit order within a stream;
// clock maps slot indices to write-phase offsets. One pulse is emitted
// per (slot, kind) with the combined mask, SET before RESET.
//
// In the shared regime (slotsPerUnit == 1) all cells land in the unit's
// single slot: at most one SET and one RESET pulse. In the split regime
// the unit's cells spill across its reserved consecutive slots, never
// exceeding capBits cells per slot — which is what keeps the chip under
// its budget even when a single worst-case data unit would not fit it.
func emitStreams(p *Plan, lay staticLayout, clock slotClock, chip, unit int, resets, sets uint16) {
	if lay.slotsPerUnit == 1 {
		ns, nr := bits.OnesCount16(sets), bits.OnesCount16(resets)
		if ns+nr > lay.capBits {
			panic(errSlotOverflow)
		}
		start := clock.start(lay.firstSlot(unit))
		if sets != 0 {
			p.push(chip, unit, Set, start, sets, false)
		}
		if resets != 0 {
			p.push(chip, unit, Reset, start, resets, false)
		}
		p.Sets += ns
		p.Resets += nr
		return
	}
	emitSplit(p, lay, clock, chip, unit, resets, sets)
}

// errSlotOverflow reports more cells than the worst case a layout was
// sized for: a scheme bug, made loud.
const errSlotOverflow = "schemes: emitStreams overflowed the unit's slot reservation"

// emitSplit is emitStreams in the split regime: it accumulates per-slot
// masks for both kinds, then emits them slot by slot.
func emitSplit(p *Plan, lay staticLayout, clock slotClock, chip, unit int, resets, sets uint16) {
	// Units never span more than slotsPerUnit slots by construction, and
	// slotsPerUnit is at most the 16-cell chip width (capBits >= 1), so
	// the accumulator lives on the stack.
	type slotMasks struct{ set, reset uint16 }
	var accBuf [16]slotMasks
	acc := accBuf[:min(lay.slotsPerUnit, len(accBuf))]
	if lay.slotsPerUnit > len(accBuf) {
		acc = make([]slotMasks, lay.slotsPerUnit)
	}
	k := 0
	for _, s := range [2]struct {
		kind PulseKind
		mask uint16
	}{{Reset, resets}, {Set, sets}} {
		// Walk the mask a slot's worth of set bits at a time: when the
		// rest of the stream fits the current slot it costs one
		// popcount; otherwise the lowest `room` bits are peeled off with
		// mask &= mask-1, so cells are consumed in ascending bit order.
		m := s.mask
		for m != 0 {
			slot := k / lay.capBits
			if slot >= len(acc) {
				panic(errSlotOverflow)
			}
			room := lay.capBits - k%lay.capBits
			take := m
			if n := bits.OnesCount16(m); n <= room {
				m = 0
				k += n
			} else {
				rest := m
				for j := 0; j < room; j++ {
					rest &= rest - 1
				}
				take = m ^ rest
				m = rest
				k += room
			}
			if s.kind == Set {
				acc[slot].set |= take
			} else {
				acc[slot].reset |= take
			}
		}
	}
	used := min((k+lay.capBits-1)/lay.capBits, len(acc))
	first := lay.firstSlot(unit)
	for i, m := range acc[:used] {
		start := clock.start(first + i)
		if m.set != 0 {
			p.push(chip, unit, Set, start, m.set, false)
		}
		if m.reset != 0 {
			p.push(chip, unit, Reset, start, m.reset, false)
		}
	}
	p.Sets += bits.OnesCount16(sets)
	p.Resets += bits.OnesCount16(resets)
}

// emitFlip emits a flip-cell-only pulse in the unit's first slot. Flip
// cells are counted for energy but not against the data budget.
func emitFlip(p *Plan, lay staticLayout, clock slotClock, chip, unit int, kind PulseKind) {
	p.push(chip, unit, kind, clock.start(lay.firstSlot(unit)), 0, true)
	if kind == Set {
		p.Sets++
	} else {
		p.Resets++
	}
}
