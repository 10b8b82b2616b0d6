package tetris

import (
	"fmt"

	"tetriswrite/internal/bitutil"
)

// The scalar read stage and the Reg0/Reg1 register file: the per-cell
// reference that lineMasks.read is checked against, and the datapath
// stages the structural chip model latches its counts through.

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
