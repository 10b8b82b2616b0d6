package tetris

import (
	"fmt"
	"math/bits"

	"tetriswrite/internal/bitutil"
)

// UnitCounts is the read stage's output for one (chip, data unit) pair:
// the inversion decision and the actual number of write-1 and write-0
// cells — the paper's Algorithm 1, whose N1/N0 results the datapath
// latches into the Reg0/Reg1 register file.
type UnitCounts struct {
	Enc       bitutil.FlipWord   // encoding chosen for the new data
	Tr        bitutil.Transition // data-cell pulses required
	FlipSet   bool               // flip cell must be SET
	FlipReset bool               // flip cell must be RESET
}

// N1 returns the number of write-1 (SET) data cells.
func (u UnitCounts) N1() int { return u.Tr.NumSets() }

// N0 returns the number of write-0 (RESET) data cells.
func (u UnitCounts) N0() int { return u.Tr.NumResets() }

// ReadStage models the Tetris Write read process for one chip slice of
// widthBits cells: it reads the stored word and flip tag, applies the
// Flip-N-Write inversion rule, and counts the ones and zeros that remain
// to be written (Algorithm 1). With flip coding disabled (the ablation)
// it degrades to plain data comparison.
func ReadStage(stored bitutil.FlipWord, next uint16, widthBits int, disableFlip bool) UnitCounts {
	mask := bitutil.WidthMask(widthBits)
	if disableFlip {
		if stored.Flip {
			// The line was previously stored inverted; without coding we
			// must write it back direct, clearing the flip cell.
			return UnitCounts{
				Enc:       bitutil.FlipWord{Bits: next & mask},
				Tr:        bitutil.Transition16(stored.Bits&mask, next&mask),
				FlipReset: true,
			}
		}
		return UnitCounts{
			Enc: bitutil.FlipWord{Bits: next & mask},
			Tr:  bitutil.Transition16(stored.Bits&mask, next&mask),
		}
	}
	enc, tr, fs, fr := bitutil.FlipTransition(stored, next, widthBits)
	return UnitCounts{Enc: enc, Tr: tr, FlipSet: fs, FlipReset: fr}
}

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
	flipHamming   flipRule = iota // Flip-N-Write: flip when over half the cells change
	flipNone                      // DisableFlip: always store direct
	flipTimeAware                 // ReadStageTimeAware: minimize schedule time
)

// read runs the read stage for a whole line in one bitwise pass over
// its 64-bit words: ReadStage (or ReadStageTimeAware) for every cell at
// once. flipWord holds the line's inversion tags, bit i for cell i, and
// read returns them updated. Cells past bit 63 of the tag word have no
// tag: they are read as stored direct, and their decision is dropped.
// Tag bits past the line's last cell are never set.
func (m *lineMasks) read(old, new []byte, flipWord uint64, rule flipRule, k int) uint64 {
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
		switch rule {
		case flipHamming:
			// Flip when the Hamming distance of {data, tag} exceeds
			// w/2: each lane's count plus its tag, biased so that
			// w/2+1 reaches the lane's top bit.
			t := g.count(st^n) + f + g.high - uint64(g.w/2+1)*g.lsb
			flip = t & g.high >> (g.w - 1)
		case flipTimeAware:
			// Unchanged cells keep their tags (the rule re-derives the
			// encoding they already have), so only changed words pay
			// for the per-lane weighing.
			flip = f
			if o != n {
				flip = g.timeAware(st, n, f, k)
			}
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

// timeAware returns the lowest bit of every lane ReadStageTimeAware
// stores inverted, given the stored cells st, the new data n and the
// stored tags f (lane lowest bits).
func (g lanes) timeAware(st, n, f uint64, k int) uint64 {
	// Direct: SET the 0->1 cells, RESET the 1->0 cells and a set tag.
	// Inverted: SET the 0->0 cells, RESET the 1->1 cells, SET a clear
	// tag. SETs weigh k.
	set0, reset0 := g.count(^st&n), g.count(st&^n)
	set1, reset1 := g.count(^st&^n), g.count(st&n)
	var flip uint64
	for sh := 0; sh < 64; sh += g.w {
		a, b := int(set0>>sh&g.ones), int(reset0>>sh&g.ones)
		c, d := int(set1>>sh&g.ones), int(reset1>>sh&g.ones)
		tag := int(f >> sh & 1)
		direct := k*a + b + tag
		flipped := k*c + d + k*(1-tag)
		// On a tie, fewer pulsed data cells wins.
		if flipped < direct || flipped == direct && c+d < a+b {
			flip |= 1 << sh
		}
	}
	return flip
}

// preset is the read stage of a PreSET: every stored cell at 0 must SET
// and every set tag must clear, leaving the line logical all-ones. It
// returns the cleared tag word.
func (m *lineMasks) preset(old []byte, flipWord uint64) uint64 {
	g := m.g
	per := g.perWord()
	clear(m.flipSet)
	clear(m.flipReset)
	for j := range m.sets {
		valid := ^uint64(0)
		if rest := len(old) - j*8; rest < 8 {
			valid >>= 64 - 8*rest
		}
		base := j * per
		nib := flipWord >> base & (1<<per - 1)
		st := lineWord(old, j) ^ g.spread(nib)*g.ones
		m.sets[j], m.resets[j] = ^st&valid, 0
		if nib != 0 {
			m.flipReset[base>>6] |= nib << (base & 63)
		}
	}
	if len(m.sets)*per < 64 {
		return flipWord &^ (1<<(len(m.sets)*per) - 1)
	}
	return 0
}

// ReadStageTimeAware is the time-aware variant of the read stage: instead
// of minimizing changed cells (the Flip-N-Write rule), it chooses the
// encoding that minimizes the *schedule* contribution, weighting SETs by
// the time asymmetry k. The distinction matters after a PreSET: writing
// data over an all-ones line directly needs only fast RESETs, while the
// Hamming-minimizing rule would invert the data and reintroduce slow
// SETs — inversion coding and PreSET interact destructively unless the
// flip decision knows about time.
func ReadStageTimeAware(stored bitutil.FlipWord, next uint16, widthBits, k int) UnitCounts {
	mask := bitutil.WidthMask(widthBits)
	direct := UnitCounts{
		Enc:       bitutil.FlipWord{Bits: next & mask},
		Tr:        bitutil.Transition16(stored.Bits&mask, next&mask),
		FlipReset: stored.Flip,
	}
	flipped := UnitCounts{
		Enc:     bitutil.FlipWord{Bits: ^next & mask, Flip: true},
		Tr:      bitutil.Transition16(stored.Bits&mask, ^next&mask),
		FlipSet: !stored.Flip,
	}
	// The flip cell's own pulse counts like any other: a flip-cell SET
	// drags a Tset-long pulse into the schedule even when every data
	// cell only RESETs, so it must be charged at SET weight.
	cost := func(u UnitCounts) int {
		c := k*u.N1() + u.N0()
		if u.FlipSet {
			c += k
		}
		if u.FlipReset {
			c++
		}
		return c
	}
	dc, fc := cost(direct), cost(flipped)
	switch {
	case dc < fc:
		return direct
	case fc < dc:
		return flipped
	case flipped.Tr.NumChanged() < direct.Tr.NumChanged():
		return flipped // tie on time: fewer pulsed cells wins (energy)
	default:
		return direct
	}
}

// RegFile models the Reg0/Reg1 register pair of the Tetris Write datapath
// (Figure 6): two 48-bit registers that hold, for each of the 8 data
// units, a 3-bit label and a 3-bit count — 6 bits per unit, 48 bits per
// register. Reg1 holds the write-1 counts, Reg0 the write-0 counts.
//
// The model exists to keep the implementation honest about hardware
// width: counts must fit the field, which the inversion bound guarantees
// (at most half of 16 cells change, so counts are 0..8 — the value 8 is
// encoded as the saturating all-ones pattern together with a carry into
// the label's spare encoding in the real datapath; here we simply verify
// the bound and store the value).
type RegFile struct {
	units    int
	maxCount int
	counts   [2][]int // [kind][unit], kind 0 = write-0, 1 = write-1
}

// NewRegFile returns a register file for the given number of data units.
// maxCount is the largest representable per-unit count: width/2 when
// inversion coding is active (its guarantee), the full width otherwise.
func NewRegFile(units, maxCount int) *RegFile {
	return &RegFile{
		units:    units,
		maxCount: maxCount,
		counts:   [2][]int{make([]int, units), make([]int, units)},
	}
}

// Latch stores a unit's counts, enforcing the field width.
func (r *RegFile) Latch(unit, n1, n0 int) error {
	if unit < 0 || unit >= r.units {
		return fmt.Errorf("tetris: RegFile unit %d out of range", unit)
	}
	if n1 < 0 || n1 > r.maxCount || n0 < 0 || n0 > r.maxCount {
		return fmt.Errorf("tetris: counts (%d, %d) exceed the 0..%d register field", n1, n0, r.maxCount)
	}
	r.counts[1][unit] = n1
	r.counts[0][unit] = n0
	return nil
}

// N1 returns the latched write-1 count of a unit.
func (r *RegFile) N1(unit int) int { return r.counts[1][unit] }

// N0 returns the latched write-0 count of a unit.
func (r *RegFile) N0(unit int) int { return r.counts[0][unit] }
