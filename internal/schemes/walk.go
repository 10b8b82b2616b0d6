package schemes

import (
	"tetriswrite/internal/bitutil"
	"tetriswrite/internal/pcm"
	"tetriswrite/internal/units"
)

// cellCode selects how a static planner codes each changed cell.
type cellCode uint8

const (
	codeDirect     cellCode = iota // DCW: pulse the changed bits as they are
	codeFlip                       // Flip-N-Write: code with the cell's tag, RESETs and SETs in one stage
	codeFlipStaged                 // Three-Stage-Write: the same coding, RESETs in stage 0, SETs in stage 1
)

// stage is where a static planner puts one kind of pulse: the slot
// layout and its clock.
type stage struct {
	lay   staticLayout
	clock slotClock
}

// cellWalk is the one walk of the read-before-write static planners
// (DCW, Flip-N-Write, Three-Stage-Write) over the cells a write
// changes. It reads both lines a 64-bit word at a time in the
// bitutil.Lanes layout. An unchanged cell needs no pulse and keeps its
// flip tag under every static scheme, so an unchanged word skips all its
// cells; the tail word is zero padded.
type cellWalk struct {
	g      bitutil.Lanes
	nc     int
	code   cellCode
	s0, s1 stage          // RESETs go to s0 and SETs to s1; a flip cell SETs in s1 and RESETs in s0
	write  units.Duration // the write phase: until the end of s1's last slot
}

// newCellWalk returns the walk of a planner that codes each changed cell
// as code says and places its pulses in stages s0 and s1.
func newCellWalk(par pcm.Params, code cellCode, s0, s1 stage) cellWalk {
	return cellWalk{g: bitutil.NewLanes(par.ChipWidthBits), nc: par.NumChips, code: code, s0: s0, s1: s1,
		write: s1.clock.start(s1.lay.slots(par.DataUnits()))}
}

// emit adds to p the pulses of every cell that old and new differ in,
// in ascending cell order i = u*NumChips+c. tags is the line's flip-tag
// word, bit i for cell i, which the flip codings read and update; cells
// past bit 63 have no tag, so they are coded as stored direct and their
// tag is dropped.
func (w *cellWalk) emit(p *Plan, old, new []byte, tags *uint64) {
	g := w.g
	width := uint(g.W) & 63 // a shift the compiler knows is in range
	var t uint64
	if tags != nil {
		t = *tags
	}
	for j := 0; j*8 < len(old); j++ {
		ow, nw := bitutil.LineWord(old, j), bitutil.LineWord(new, j)
		diff := ow ^ nw
		if diff == 0 {
			continue
		}
		// One divide per changed word; each lane then steps the cell's
		// chip c and data unit u.
		i := j << (6 - g.Lg)
		c, unit := i%w.nc, i/w.nc
		for ; diff != 0; diff, ow, nw, i, c = diff>>width, ow>>width, nw>>width, i+1, c+1 {
			if c == w.nc {
				c, unit = 0, unit+1
			}
			if diff&g.Ones == 0 {
				continue
			}
			o, n := uint16(ow&g.Ones), uint16(nw&g.Ones)
			if w.code == codeDirect {
				emitStreams(p, w.s0.lay, w.s0.clock, c, unit, o&^n, n&^o)
				continue
			}
			bit := uint64(1) << uint(i)
			was := t&bit != 0
			tr, is := bitutil.FlipCode(o, n, was, g.W)
			if is {
				t |= bit
			} else {
				t &^= bit
			}
			if w.code == codeFlip {
				emitStreams(p, w.s0.lay, w.s0.clock, c, unit, tr.Resets, tr.Sets)
			} else {
				emitStreams(p, w.s0.lay, w.s0.clock, c, unit, tr.Resets, 0)
				emitStreams(p, w.s1.lay, w.s1.clock, c, unit, 0, tr.Sets)
			}
			if is && !was {
				emitFlip(p, w.s1.lay, w.s1.clock, c, unit, Set)
			} else if was && !is {
				emitFlip(p, w.s0.lay, w.s0.clock, c, unit, Reset)
			}
		}
	}
	if tags != nil {
		*tags = t
	}
}
