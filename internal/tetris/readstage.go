package tetris

import "tetriswrite/internal/bitutil"

// lineMasks is the read stage's output for one line, the register file
// the analysis stage consumes: the data cells every cell must SET and
// RESET, as line words with one lane per cell, and the cells whose flip
// cell must SET or RESET, bit i for cell i.
type lineMasks struct {
	g                  bitutil.Lanes
	sets, resets       []uint64 // one word per 8 line bytes
	flipSet, flipReset []uint64 // one bit per cell
}

// size shapes the masks for lines of lineBytes bytes on first use.
func (m *lineMasks) size(lineBytes, widthBits int) {
	if m.sets != nil {
		return
	}
	m.g = bitutil.NewLanes(widthBits)
	nw := (lineBytes + 7) / 8
	nf := (nw*m.g.PerWord() + 63) / 64
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
	per := g.PerWord()
	lanesMask := uint64(1)<<per - 1
	var fs, fr uint64 // the current words of flipSet and flipReset
	for j := range m.sets {
		o, n := bitutil.LineWord(old, j), bitutil.LineWord(new, j)
		base := j * per
		nib := flipWord >> base & lanesMask
		f := g.Spread(nib)
		st := o ^ f*g.Ones // stored cells
		var flip uint64    // lowest bit of every lane to store inverted
		if rule == flipHamming {
			// Flip when the Hamming distance of {data, tag} exceeds
			// w/2: each lane's count plus its tag, biased so that
			// w/2+1 reaches the lane's top bit.
			t := g.Count(st^n) + f + g.High - uint64(g.W/2+1)*g.LSB
			flip = t & g.High >> (g.W - 1)
		}
		enc := n ^ flip*g.Ones
		tr := st ^ enc
		m.sets[j], m.resets[j] = tr&enc, tr&st
		tags := g.Gather(flip)
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
