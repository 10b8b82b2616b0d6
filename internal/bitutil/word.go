package bitutil

import (
	"encoding/binary"
	"math/bits"
)

// Word-parallel companions to the per-cell primitives. A line's
// little-endian 64-bit words hold its chip slices as lanes (see Lanes),
// so one XOR+popcount covers a whole word of cells. The static planners
// (DCW, Flip-N-Write, Three-Stage-Write), the Tetris read stage and the
// encoded-cell Array use these to skip unchanged cells a word at a time
// and to code or decode a word's inversion tags in one operation.

// LineWord returns the j-th little-endian 64-bit word of line, zero
// padded past its end.
func LineWord(line []byte, j int) uint64 {
	if off := j * 8; off+8 <= len(line) {
		return binary.LittleEndian.Uint64(line[off:])
	}
	return tailWord(line, j)
}

// tailWord is LineWord for a word that runs past the line's end, kept
// out of LineWord so that the whole-word case inlines.
func tailWord(line []byte, j int) uint64 {
	var w uint64
	for i, b := range line[j*8:] {
		w |= uint64(b) << (8 * i)
	}
	return w
}

// PutLineWord stores w as the j-th little-endian 64-bit word of line,
// the inverse of LineWord: bytes past the line's end are dropped.
func PutLineWord(line []byte, j int, w uint64) {
	if off := j * 8; off+8 <= len(line) {
		binary.LittleEndian.PutUint64(line[off:], w)
		return
	}
	for i := range line[j*8:] {
		line[j*8+i] = byte(w >> (8 * i))
	}
}

// Lanes describes how a line's little-endian 64-bit words hold its
// cells: cell i = u*nchips+c, chip c's slice of data unit u (the cell
// ChipSlice reads), is the W-bit lane at bit i*W of the line. Chip
// widths are 8 or 16 bits, so a lane never straddles a word.
type Lanes struct {
	W, Lg int    // lane width in bits and its log2
	Ones  uint64 // one lane of ones
	LSB   uint64 // every lane's lowest bit
	High  uint64 // every lane's highest bit
}

// NewLanes returns the lane layout of widthBits-wide chips, 8 or 16.
func NewLanes(widthBits int) Lanes {
	var lsb uint64
	switch widthBits {
	case 8:
		lsb = 0x0101_0101_0101_0101
	case 16:
		lsb = 0x0001_0001_0001_0001
	default:
		panic("bitutil: lanes need 8- or 16-bit chips")
	}
	return Lanes{W: widthBits, Lg: bits.TrailingZeros(uint(widthBits)), Ones: 1<<widthBits - 1,
		LSB: lsb, High: lsb << (widthBits - 1)}
}

// PerWord returns the number of cells one 64-bit word holds.
func (g Lanes) PerWord() int { return 64 >> g.Lg }

// Cell returns cell i's lane of the line words ws.
func (g Lanes) Cell(ws []uint64, i int) uint16 {
	b := i << g.Lg
	return uint16(ws[b>>6] >> (b & 63) & g.Ones)
}

// SetCell stores v as cell i's lane of the line words ws.
func (g Lanes) SetCell(ws []uint64, i int, v uint16) {
	b := i << g.Lg
	ws[b>>6] = ws[b>>6]&^(g.Ones<<(b&63)) | uint64(v)<<(b&63)
}

// Count returns the per-lane popcounts of x, one count per lane.
func (g Lanes) Count(x uint64) uint64 {
	x -= x >> 1 & 0x5555555555555555
	x = x&0x3333333333333333 + x>>2&0x3333333333333333
	x = (x + x>>4) & 0x0F0F0F0F0F0F0F0F
	if g.W == 16 {
		x = (x + x>>8) & 0x00FF00FF00FF00FF
	}
	return x
}

// Spread moves bit l of nib to lane l's lowest bit, for every lane l of
// a word; nib's higher bits are ignored.
func (g Lanes) Spread(nib uint64) uint64 {
	if g.W == 16 {
		nib = (nib&0xF | nib<<30) & 0x0000_0003_0000_0003
		return (nib | nib<<15) & 0x0001_0001_0001_0001
	}
	nib = (nib&0xFF | nib<<28) & 0x0000_000F_0000_000F
	nib = (nib | nib<<14) & 0x0003_0003_0003_0003
	return (nib | nib<<7) & 0x0101_0101_0101_0101
}

// Gather is Spread's inverse: lane l's lowest bit moves to bit l.
func (g Lanes) Gather(x uint64) uint64 {
	if g.W == 16 {
		x = (x | x>>15) & 0x0000_0003_0000_0003
		return (x | x>>30) & 0xF
	}
	x = (x | x>>7) & 0x0003_0003_0003_0003
	x = (x | x>>14) & 0x0000_000F_0000_000F
	return (x | x>>28) & 0xFF
}

// Tags returns line word j's lane masks of the per-cell bitset fs, bit i
// for cell i: lane l is all ones iff its cell's bit is set. XORing word j
// of a line with it inverts exactly the tagged cells, which both codes
// and decodes their inversion.
func (g Lanes) Tags(fs []uint64, j int) uint64 {
	base := j << (6 - g.Lg)
	return g.Spread(fs[base>>6]>>(base&63)) * g.Ones
}
