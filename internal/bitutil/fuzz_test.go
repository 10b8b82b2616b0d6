package bitutil

import (
	"math/bits"
	"testing"
)

// FuzzFlipCoding: for arbitrary stored state and target words, the
// inversion coding must always decode to the target and never need more
// than half the cells changed (counting the flip cell), and FlipCode
// must code as FlipTransition does.
func FuzzFlipCoding(f *testing.F) {
	f.Add(uint16(0), uint16(0xFFFF), false)
	f.Add(uint16(0xAAAA), uint16(0x5555), true)
	f.Fuzz(func(t *testing.T, storedBits, next uint16, storedFlip bool) {
		stored := FlipWord{Bits: storedBits, Flip: storedFlip}
		enc, tr, fs, fr := FlipTransition(stored, next, 16)
		if enc.Logical() != next {
			t.Fatalf("decode mismatch: stored %04x/%v next %04x", storedBits, storedFlip, next)
		}
		if tr.Apply(stored.Bits) != enc.Bits {
			t.Fatal("transition does not reach the encoding")
		}
		changed := tr.NumChanged()
		if fs || fr {
			changed++
		}
		if changed > 8 {
			t.Fatalf("%d cells changed; coding bound is 8", changed)
		}
		if fs && fr {
			t.Fatal("flip cell both set and reset")
		}
		// FlipCode, given the logical contents and the tag, codes both
		// widths exactly as FlipTransition does.
		for _, w := range []int{8, 16} {
			mask := WidthMask(w)
			logical := FlipWord{Bits: storedBits & mask, Flip: storedFlip}.LogicalWidth(w)
			enc, tr, _, _ := FlipTransition(FlipWord{Bits: storedBits & mask, Flip: storedFlip}, next, w)
			if gotTr, gotFlip := FlipCode(logical, next, storedFlip, w); gotTr != tr || gotFlip != enc.Flip {
				t.Fatalf("x%d FlipCode(%#x, %#x, %v) = %+v/%v, FlipTransition %+v/%v",
					w, logical, next, storedFlip, gotTr, gotFlip, tr, enc.Flip)
			}
		}
	})
}

// FuzzLanes holds the lane layout's word-parallel operations to per-cell
// loops, for 8- and 16-bit lanes: Count to each lane's popcount, Spread
// and Gather to moving bit l to and from lane l's lowest bit, Tags to
// widening bit l to lane l, Cell and
// SetCell to ChipSlice and SetChipSlice over the line's words, and
// LineWord and PutLineWord to a byte loop that zero pads past the line.
func FuzzLanes(f *testing.F) {
	f.Add(false, uint64(0xFFFF_0001_8000_00F0), uint64(0xA5), []byte("fifty-two bytes of a line that ends in a partial word"), uint8(3))
	f.Add(true, ^uint64(0), uint64(0xF), make([]byte, 64), uint8(0))
	// Bits of nib past the word's lanes must not reach them.
	f.Add(false, uint64(1), ^uint64(0xF0), make([]byte, 24), uint8(1))
	f.Add(true, uint64(1), ^uint64(0xC), make([]byte, 24), uint8(1))
	f.Fuzz(func(t *testing.T, x16 bool, x, nib uint64, line []byte, chips uint8) {
		width := 8
		if x16 {
			width = 16
		}
		g := NewLanes(width)
		per := g.PerWord()
		count, spread := g.Count(x), g.Spread(nib)
		for l := 0; l < per; l++ {
			lane := func(v uint64) uint64 { return v >> (l * width) & g.Ones }
			if want := uint64(bits.OnesCount64(lane(x))); lane(count) != want {
				t.Fatalf("w%d Count(%#x) lane %d = %d, want %d", width, x, l, lane(count), want)
			}
			if want := nib >> l & 1; lane(spread) != want {
				t.Fatalf("w%d Spread(%#x) lane %d = %#x, want %d", width, nib, l, lane(spread), want)
			}
		}
		tags := g.Tags([]uint64{nib}, 0)
		for l := 0; l < per; l++ {
			if want := -(nib >> l & 1) & g.Ones; tags>>(l*width)&g.Ones != want {
				t.Fatalf("w%d Tags(%#x) lane %d = %#x, want %#x", width, nib, l, tags>>(l*width)&g.Ones, want)
			}
		}
		if want := nib & (1<<per - 1); g.Gather(spread) != want {
			t.Fatalf("w%d Gather(Spread(%#x)) = %#x, want %#x", width, nib, g.Gather(spread), want)
		}
		var lows uint64
		for l := 0; l < per; l++ {
			lows |= x >> (l * width) & 1 << l
		}
		if got := g.Gather(x & g.LSB); got != lows {
			t.Fatalf("w%d Gather(%#x) = %#x, want %#x", width, x&g.LSB, got, lows)
		}

		nw := (len(line) + 7) / 8
		ws := make([]uint64, nw)
		for j := range ws {
			var want uint64
			for k := 0; k < 8 && j*8+k < len(line); k++ {
				want |= uint64(line[j*8+k]) << (8 * k)
			}
			if ws[j] = LineWord(line, j); ws[j] != want {
				t.Fatalf("LineWord(%d bytes, %d) = %#x, want %#x", len(line), j, ws[j], want)
			}
			back := make([]byte, len(line))
			PutLineWord(back, j, ws[j])
			for k := 0; k < 8 && j*8+k < len(line); k++ {
				if back[j*8+k] != line[j*8+k] {
					t.Fatalf("PutLineWord(%d bytes, %d) byte %d = %#x, want %#x", len(line), j, k, back[j*8+k], line[j*8+k])
				}
			}
		}

		// Chip slices: a line of whole write units for nc chips.
		nc, wb := int(chips%5)+1, width/8
		nu := len(line) / (nc * wb)
		for u := 0; u < nu; u++ {
			for c := 0; c < nc; c++ {
				i := u*nc + c
				if got, want := g.Cell(ws, i), ChipSlice(line, nc, wb, c, u); got != want {
					t.Fatalf("w%d nc%d Cell(%d) = %#x, ChipSlice = %#x", width, nc, i, got, want)
				}
				v := uint16(x >> (i % 4 * 16) & g.Ones)
				g.SetCell(ws, i, v)
				SetChipSlice(line, nc, wb, c, u, v)
			}
		}
		for j := range ws {
			if want := LineWord(line, j); ws[j] != want {
				t.Fatalf("w%d nc%d after SetCell word %d = %#x, SetChipSlice gives %#x", width, nc, j, ws[j], want)
			}
		}
	})
}
