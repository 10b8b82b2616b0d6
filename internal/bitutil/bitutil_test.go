package bitutil

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHammingBytes(t *testing.T) {
	a := []byte{0x00, 0xFF}
	b := []byte{0x01, 0xFF}
	if got := HammingBytes(a, b); got != 1 {
		t.Errorf("HammingBytes = %d, want 1", got)
	}
}

func TestHammingBytesPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	HammingBytes([]byte{1}, []byte{1, 2})
}

func TestTransition16Basic(t *testing.T) {
	tr := Transition16(0b1010, 0b0110)
	if tr.Sets != 0b0100 {
		t.Errorf("Sets = %#b, want 0b0100", tr.Sets)
	}
	if tr.Resets != 0b1000 {
		t.Errorf("Resets = %#b, want 0b1000", tr.Resets)
	}
	if tr.NumChanged() != 2 {
		t.Errorf("NumChanged = %d, want 2", tr.NumChanged())
	}
}

// Property: applying the transition always produces the target word, and
// SET/RESET masks never overlap (a cell cannot need both pulses).
func TestTransitionApplyProperty(t *testing.T) {
	f := func(old, next uint16) bool {
		tr := Transition16(old, next)
		if tr.Sets&tr.Resets != 0 {
			return false
		}
		return tr.Apply(old) == next
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the number of changed bits equals the Hamming distance.
func TestTransitionCountsMatchHamming(t *testing.T) {
	f := func(old, next uint16) bool {
		tr := Transition16(old, next)
		return tr.NumChanged() == Hamming16(old, next)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: flip coding bounds the number of changed cells (data + flip) by
// half the width + ... precisely: changed data cells + changed flip cell
// <= 8 data-width/2 when starting from a non-flipped word; in general the
// coding guarantees <= width/2 changes counting the flip cell.
func TestFlipEncodeBoundsChanges(t *testing.T) {
	f := func(oldBits, next uint16, oldFlip bool) bool {
		old := FlipWord{Bits: oldBits, Flip: oldFlip}
		enc, data, fs, fr := FlipTransition(old, next, 16)
		changed := data.NumChanged()
		if fs || fr {
			changed++
		}
		if changed > DefaultWidthBits/2+1 {
			// At most width/2 changes are ever needed: if the direct
			// distance (incl. flip cell) exceeds width/2, the complement
			// distance (incl. flip cell) is at most width+1 - that, i.e.
			// <= width/2 + 1... the +1 case happens only when distances
			// are width/2+ on both sides, impossible for even width with
			// the flip cell tie-breaking. Enforce the hard bound 8+1 and
			// the decode invariant below.
			return false
		}
		return enc.Logical() == next
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: flip coding never does worse than storing the word directly.
func TestFlipEncodeNeverWorse(t *testing.T) {
	f := func(oldBits, next uint16, oldFlip bool) bool {
		old := FlipWord{Bits: oldBits, Flip: oldFlip}
		_, data, fs, fr := FlipTransition(old, next, 16)
		changed := data.NumChanged()
		if fs || fr {
			changed++
		}
		direct := Hamming16(oldBits, next)
		if oldFlip {
			direct++ // clearing the flip bit
		}
		return changed <= direct
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFlipEncodeExactThreshold(t *testing.T) {
	// Exactly width/2 changes: must NOT flip (strictly-greater rule).
	old := FlipWord{Bits: 0x0000, Flip: false}
	enc := FlipEncode(old, 0x00FF, 16) // 8 changes
	if enc.Flip {
		t.Error("FlipEncode flipped at exactly width/2 changes")
	}
	// width/2+1 changes: must flip.
	enc = FlipEncode(old, 0x01FF, 16) // 9 changes
	if !enc.Flip {
		t.Error("FlipEncode did not flip above width/2 changes")
	}
}

func TestChipSliceRoundTrip(t *testing.T) {
	const nchips = 4
	rng := rand.New(rand.NewSource(1))
	line := make([]byte, 64)
	rng.Read(line)
	// Writing every slice back unchanged must preserve the line.
	clone := append([]byte(nil), line...)
	for u := 0; u < 8; u++ {
		for c := 0; c < nchips; c++ {
			w := ChipSlice(line, nchips, 2, c, u)
			SetChipSlice(line, nchips, 2, c, u, w)
		}
	}
	if HammingBytes(line, clone) != 0 {
		t.Fatal("ChipSlice/SetChipSlice round trip corrupted the line")
	}
	// A written slice must read back.
	SetChipSlice(line, nchips, 2, 2, 5, 0xBEEF)
	if got := ChipSlice(line, nchips, 2, 2, 5); got != 0xBEEF {
		t.Fatalf("ChipSlice read back %#x, want 0xBEEF", got)
	}
}

func TestChipSliceLayout(t *testing.T) {
	// Chip c's slice of unit u occupies bytes u*2*nchips + 2c, little
	// endian, matching a 64-bit bus spread across four x16 chips.
	line := make([]byte, 64)
	line[0], line[1] = 0x34, 0x12 // unit 0, chip 0
	line[6], line[7] = 0x78, 0x56 // unit 0, chip 3
	line[8], line[9] = 0xCD, 0xAB // unit 1, chip 0
	if got := ChipSlice(line, 4, 2, 0, 0); got != 0x1234 {
		t.Errorf("unit0/chip0 = %#x, want 0x1234", got)
	}
	if got := ChipSlice(line, 4, 2, 3, 0); got != 0x5678 {
		t.Errorf("unit0/chip3 = %#x, want 0x5678", got)
	}
	if got := ChipSlice(line, 4, 2, 0, 1); got != 0xABCD {
		t.Errorf("unit1/chip0 = %#x, want 0xABCD", got)
	}
}

func BenchmarkTransition16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr := Transition16(uint16(i), uint16(i*2654435761))
		_ = tr.NumChanged()
	}
}

func BenchmarkFlipEncode(b *testing.B) {
	old := FlipWord{Bits: 0xA5A5}
	for i := 0; i < b.N; i++ {
		old = FlipEncode(old, uint16(i*40503), 16)
	}
}
