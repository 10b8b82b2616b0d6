package tetris

import (
	"math/bits"

	"tetriswrite/internal/bitutil"
)

// lanes describes how a line's little-endian 64-bit words hold its
// cells: cell i = u*NumChips+c, chip c's slice of data unit u, is the
// w-bit lane at bit i*w of the line. Chip widths are 8 or 16 bits, so a
// lane never straddles a word.
type lanes struct {
	w, lg int    // lane width in bits and its log2
	ones  uint64 // one lane of ones
	lsb   uint64 // every lane's lowest bit
	high  uint64 // every lane's highest bit
}

func newLanes(widthBits int) lanes {
	ones := uint64(bitutil.WidthMask(widthBits))
	lsb := ^uint64(0) / ones
	return lanes{w: widthBits, lg: bits.TrailingZeros(uint(widthBits)), ones: ones, lsb: lsb, high: lsb << (widthBits - 1)}
}

// perWord returns the number of cells one 64-bit word holds.
func (g lanes) perWord() int { return 64 >> g.lg }

// cell returns cell i's lane of the line words ws.
func (g lanes) cell(ws []uint64, i int) uint16 {
	b := i << g.lg
	return uint16(ws[b>>6] >> (b & 63) & g.ones)
}

// count returns the per-lane popcounts of x, one count per lane.
func (g lanes) count(x uint64) uint64 {
	x -= x >> 1 & 0x5555555555555555
	x = x&0x3333333333333333 + x>>2&0x3333333333333333
	x = (x + x>>4) & 0x0F0F0F0F0F0F0F0F
	if g.w == 16 {
		x = (x + x>>8) & 0x00FF00FF00FF00FF
	}
	return x
}

// spread moves bit l of nib to lane l's lowest bit.
func (g lanes) spread(nib uint64) uint64 {
	if g.w == 16 {
		nib = (nib | nib<<30) & 0x0000_0003_0000_0003
		return (nib | nib<<15) & 0x0001_0001_0001_0001
	}
	nib = (nib | nib<<28) & 0x0000_000F_0000_000F
	nib = (nib | nib<<14) & 0x0003_0003_0003_0003
	return (nib | nib<<7) & 0x0101_0101_0101_0101
}

// gather is spread's inverse: lane l's lowest bit moves to bit l.
func (g lanes) gather(x uint64) uint64 {
	if g.w == 16 {
		x = (x | x>>15) & 0x0000_0003_0000_0003
		return (x | x>>30) & 0xF
	}
	x = (x | x>>7) & 0x0003_0003_0003_0003
	x = (x | x>>14) & 0x0000_000F_0000_000F
	return (x | x>>28) & 0xFF
}

// lineWord returns the j-th little-endian 64-bit word of line, zero
// padded past its end.
func lineWord(line []byte, j int) uint64 {
	off := j * 8
	if off+8 <= len(line) {
		return bitutil.LoadLE64(line, off)
	}
	var w uint64
	for i, b := range line[off:] {
		w |= uint64(b) << (8 * i)
	}
	return w
}

// lineMasks is the read stage's output for one line, the register file
// the analysis stage consumes: the data cells every cell must SET and
// RESET, as line words with one lane per cell, and the cells whose flip
// cell must SET or RESET, bit i for cell i.
type lineMasks struct {
	g                  lanes
	sets, resets       []uint64 // one word per 8 line bytes
	flipSet, flipReset []uint64 // one bit per cell
}

// size shapes the masks for lines of lineBytes bytes on first use.
func (m *lineMasks) size(lineBytes, widthBits int) {
	if m.sets != nil {
		return
	}
	m.g = newLanes(widthBits)
	nw := (lineBytes + 7) / 8
	nf := (nw*m.g.perWord() + 63) / 64
	m.sets, m.resets = make([]uint64, nw), make([]uint64, nw)
	m.flipSet, m.flipReset = make([]uint64, nf), make([]uint64, nf)
}

// flipRule selects the read stage's inversion rule.
type flipRule uint8

const (
	flipHamming flipRule = iota // Flip-N-Write: flip when over half the cells change
	flipNone                    // DisableFlip: always store direct
)

// read runs the read stage (Algorithm 1) for a whole line in one
// bitwise pass over its 64-bit words, every cell at once; the tests
// check it against a per-cell reference. flipWord holds the line's
// inversion tags, bit i for cell i, and read returns them updated.
// Cells past bit 63 of the tag word have no tag: they are read as
// stored direct, and their decision is dropped. Tag bits past the
// line's last cell are never set.
func (m *lineMasks) read(old, new []byte, flipWord uint64, rule flipRule) uint64 {
	g := m.g
	per := g.perWord()
	lanesMask := uint64(1)<<per - 1
	var fs, fr uint64 // the current words of flipSet and flipReset
	for j := range m.sets {
		o, n := lineWord(old, j), lineWord(new, j)
		base := j * per
		nib := flipWord >> base & lanesMask
		f := g.spread(nib)
		st := o ^ f*g.ones // stored cells
		var flip uint64    // lowest bit of every lane to store inverted
		if rule == flipHamming {
			// Flip when the Hamming distance of {data, tag} exceeds
			// w/2: each lane's count plus its tag, biased so that
			// w/2+1 reaches the lane's top bit.
			t := g.count(st^n) + f + g.high - uint64(g.w/2+1)*g.lsb
			flip = t & g.high >> (g.w - 1)
		}
		enc := n ^ flip*g.ones
		tr := st ^ enc
		m.sets[j], m.resets[j] = tr&enc, tr&st
		tags := g.gather(flip)
		flipWord = flipWord&^(lanesMask<<base) | tags<<base
		fs |= (tags &^ nib) << (base & 63)
		fr |= (nib &^ tags) << (base & 63)
		if end := base + per; end&63 == 0 || j == len(m.sets)-1 {
			m.flipSet[base>>6], m.flipReset[base>>6] = fs, fr
			fs, fr = 0, 0
		}
	}
	return flipWord
}
