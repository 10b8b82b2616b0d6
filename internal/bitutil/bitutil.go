// Package bitutil provides the bit-level primitives shared by every PCM
// write scheme in this repository: population counts, Hamming distances,
// Flip-N-Write style inversion coding and the per-chip slicing of a cache
// line into data units.
//
// Terminology follows the paper. A cache line (64 B by default) is written
// to a memory bank built from several x8 or x16 PCM chips. Each chip sees
// the line as a sequence of "data units": chip-width slices, one per
// write unit, each guarded by one flip bit. All schemes operate on the transition
// vector between the old (stored) and new (incoming) data: a bit that goes
// 0->1 needs a SET (write-1), a bit that goes 1->0 needs a RESET (write-0),
// and an unchanged bit needs no pulse at all.
package bitutil

import (
	"encoding/binary"
	"math/bits"
)

// PopCount16 returns the number of set bits in x.
func PopCount16(x uint16) int { return bits.OnesCount16(x) }

// Hamming16 returns the Hamming distance between a and b.
func Hamming16(a, b uint16) int { return bits.OnesCount16(a ^ b) }

// HammingBytes returns the Hamming distance between equal-length byte
// slices a and b. It panics if the lengths differ, since comparing lines of
// different sizes is always a programming error in this code base.
func HammingBytes(a, b []byte) int {
	if len(a) != len(b) {
		panic("bitutil: HammingBytes on slices of different length")
	}
	n := 0
	i := 0
	for ; i+8 <= len(a); i += 8 {
		n += bits.OnesCount64(binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:]))
	}
	for ; i < len(a); i++ {
		n += bits.OnesCount8(a[i] ^ b[i])
	}
	return n
}

// Transition describes the pulses required to turn the stored word old into
// the incoming word new within one data unit.
type Transition struct {
	Sets   uint16 // bit set => the cell needs a SET pulse (0 -> 1)
	Resets uint16 // bit set => the cell needs a RESET pulse (1 -> 0)
}

// NumSets returns the number of SET pulses in the transition.
func (t Transition) NumSets() int { return bits.OnesCount16(t.Sets) }

// NumResets returns the number of RESET pulses in the transition.
func (t Transition) NumResets() int { return bits.OnesCount16(t.Resets) }

// NumChanged returns the total number of cells that must be pulsed.
func (t Transition) NumChanged() int { return t.NumSets() + t.NumResets() }

// Transition16 computes the SET/RESET masks needed to turn old into new.
func Transition16(old, new uint16) Transition {
	diff := old ^ new
	return Transition{Sets: diff & new, Resets: diff & old}
}

// Apply returns old with the transition's pulses applied. Applying the
// transition computed by Transition16(old, new) always yields new.
func (t Transition) Apply(old uint16) uint16 {
	return (old | t.Sets) &^ t.Resets
}

// FlipWord describes a 16-bit data unit together with its flip (inversion)
// tag, the encoding used by Flip-N-Write, Three-Stage-Write and the read
// stage of Tetris Write. When Flip is true the stored bits are the
// complement of the logical data.
type FlipWord struct {
	Bits uint16
	Flip bool
}

// Logical returns the logical (decoded) value of the word for the
// default x16 width.
func (w FlipWord) Logical() uint16 { return w.LogicalWidth(DefaultWidthBits) }

// LogicalWidth returns the logical (decoded) value for a data unit of
// widthBits cells.
func (w FlipWord) LogicalWidth(widthBits int) uint16 {
	if w.Flip {
		return ^w.Bits & WidthMask(widthBits)
	}
	return w.Bits & WidthMask(widthBits)
}

// DefaultWidthBits is the data-unit width of the paper's x16 prototype.
const DefaultWidthBits = 16

// WidthMask returns the mask selecting a data unit's cells for parts of
// the given width (8 for x8 chips, 16 for x16).
func WidthMask(widthBits int) uint16 {
	if widthBits <= 0 || widthBits > 16 {
		panic("bitutil: unsupported chip width")
	}
	return uint16(1)<<widthBits - 1
}

// FlipEncode decides how to store the logical value next over the
// currently stored word old so that at most half of the width+1 cells
// (data plus flip bit) change, for a data unit of widthBits cells. This
// is the Flip-N-Write coding rule: compare the Hamming distance between
// {next, 0} and the stored {old.Bits, old.Flip}; if it exceeds half the
// data width, store the complement and raise the flip bit.
func FlipEncode(old FlipWord, next uint16, widthBits int) FlipWord {
	mask := WidthMask(widthBits)
	dist := Hamming16(old.Bits&mask, next&mask)
	if old.Flip {
		dist++ // the flip cell itself would transition 1 -> 0
	}
	if dist > widthBits/2 {
		return FlipWord{Bits: ^next & mask, Flip: true}
	}
	return FlipWord{Bits: next & mask, Flip: false}
}

// FlipTransition computes the pulses needed to move the stored word old
// to the encoding chosen by FlipEncode for logical value next, including
// the flip cell itself. The flip cell is reported separately because it
// lives outside the data cells in the datapath (the x17 write driver of
// the paper's Figure 9).
func FlipTransition(old FlipWord, next uint16, widthBits int) (enc FlipWord, data Transition, flipSet, flipReset bool) {
	enc = FlipEncode(old, next, widthBits)
	data = Transition16(old.Bits&WidthMask(widthBits), enc.Bits)
	if enc.Flip && !old.Flip {
		flipSet = true
	}
	if !enc.Flip && old.Flip {
		flipReset = true
	}
	return enc, data, flipSet, flipReset
}

// FlipCode is the Flip-N-Write coder of one cell, the one rule every
// tag-coded planner applies: the cell holds logical value old, stored
// inverted when tag is set, and is coded for logical value next exactly
// as FlipTransition codes it. It returns the data cells' transition and
// the cell's new tag; the flip cell SETs when the tag rises and RESETs
// when it falls.
func FlipCode(old, next uint16, tag bool, widthBits int) (Transition, bool) {
	mask := uint16(1)<<widthBits - 1
	stored, dist := old, 0
	if tag {
		stored, dist = ^old, 1 // the flip cell itself would RESET
	}
	stored &= mask
	next &= mask
	dist += bits.OnesCount16(stored ^ next)
	flip := dist > widthBits/2
	if flip {
		next ^= mask // store the complement
	}
	return Transition16(stored, next), flip
}

// ChipSlice extracts chip c's slice of data unit u from a cache line,
// for a bank of nchips chips of widthBytes data width each (2 for x16
// parts, 1 for x8). Data unit u of the line occupies bytes
// [u*widthBytes*nchips, (u+1)*widthBytes*nchips), interleaved chip by
// chip — mirroring how a memory-bus beat spreads across the chips.
func ChipSlice(line []byte, nchips, widthBytes, c, u int) uint16 {
	off := (u*nchips + c) * widthBytes
	w := uint16(line[off])
	if widthBytes == 2 {
		w |= uint16(line[off+1]) << 8
	}
	return w
}

// SetChipSlice stores a chip slice back into the cache line, the inverse
// of ChipSlice.
func SetChipSlice(line []byte, nchips, widthBytes, c, u int, w uint16) {
	off := (u*nchips + c) * widthBytes
	line[off] = byte(w)
	if widthBytes == 2 {
		line[off+1] = byte(w >> 8)
	}
}
