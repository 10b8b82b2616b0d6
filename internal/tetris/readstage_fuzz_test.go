package tetris

import (
	"fmt"
	"testing"

	"tetriswrite/internal/bitutil"
	"tetriswrite/internal/pcm"
	"tetriswrite/internal/schemes"
)

// maskGeometry is one line geometry the mask read stage is checked on.
type maskGeometry struct {
	lineBytes, chips, width int
}

// maskGeometries covers x16 and x8 banks, lines whose cells fill the
// 64-bit tag word exactly, lines longer than it (cells past bit 63 have
// no tag) and a line that is not a whole number of 64-bit words.
var maskGeometries = []maskGeometry{
	{64, 4, 16}, // Table II
	{64, 8, 8},
	{64, 2, 16},
	{128, 4, 16},
	{256, 4, 16},
	{12, 3, 8},
}

// tagMask returns the tag-word bits of the geometry's cells: a line
// never has a tag set past its last cell.
func (g maskGeometry) tagMask() uint64 {
	if cells := g.lineBytes * 8 / g.width; cells < 64 {
		return 1<<cells - 1
	}
	return ^uint64(0)
}

// checkReadMasks compares lineMasks.read with the per-cell ReadStage
// reference on one line.
func checkReadMasks(t *testing.T, g maskGeometry, rule flipRule, old, new []byte, flipWord uint64) {
	t.Helper()
	flipWord &= g.tagMask()
	var m lineMasks
	m.size(g.lineBytes, g.width)
	got := m.read(old, new, flipWord, rule)

	wb := g.width / 8
	nu := g.lineBytes / (g.chips * wb)
	want := flipWord
	for u := 0; u < nu; u++ {
		for c := 0; c < g.chips; c++ {
			i := u*g.chips + c
			var tag uint64
			if i < 64 {
				tag = 1 << i
			}
			logicalOld := bitutil.ChipSlice(old, g.chips, wb, c, u)
			logicalNew := bitutil.ChipSlice(new, g.chips, wb, c, u)
			stored := bitutil.FlipWord{Bits: logicalOld}
			if flipWord&tag != 0 {
				stored = bitutil.FlipWord{Bits: ^logicalOld & bitutil.WidthMask(g.width), Flip: true}
			}
			uc := ReadStage(stored, logicalNew, g.width, rule == flipNone)
			if uc.Enc.Flip {
				want |= tag
			} else {
				want &^= tag
			}
			cell := fmt.Sprintf("cell %d (unit %d, chip %d)", i, u, c)
			if s := m.g.Cell(m.sets, i); s != uc.Tr.Sets {
				t.Fatalf("%s: SET mask %#x, reference %#x", cell, s, uc.Tr.Sets)
			}
			if r := m.g.Cell(m.resets, i); r != uc.Tr.Resets {
				t.Fatalf("%s: RESET mask %#x, reference %#x", cell, r, uc.Tr.Resets)
			}
			if fs := bit(m.flipSet, i); fs != uc.FlipSet {
				t.Fatalf("%s: flip-cell SET %v, reference %v", cell, fs, uc.FlipSet)
			}
			if fr := bit(m.flipReset, i); fr != uc.FlipReset {
				t.Fatalf("%s: flip-cell RESET %v, reference %v", cell, fr, uc.FlipReset)
			}
		}
	}
	if got != want {
		t.Fatalf("flip tags %#x, reference %#x", got, want)
	}
}

// fillLine returns a line of n bytes cycling through src (zeros when src
// is empty).
func fillLine(src []byte, n int) []byte {
	line := make([]byte, n)
	for i := range line {
		if len(src) > 0 {
			line[i] = src[i%len(src)]
		}
	}
	return line
}

// FuzzReadStageMasks checks the bitwise mask read stage against the
// per-cell ReadStage reference for arbitrary lines and tag words, under
// the paper rule and DisableFlip, on every maskGeometries entry.
func FuzzReadStageMasks(f *testing.F) {
	f.Add(uint8(0), []byte{0x00}, []byte{0xFF}, uint64(0))
	f.Add(uint8(1), []byte{0x0F, 0xF0}, []byte{0x3C}, uint64(0xAAAA_AAAA))
	f.Add(uint8(2), []byte{0xFF}, []byte{0xFF}, ^uint64(0))
	f.Add(uint8(7), []byte{1, 2, 3, 4, 5}, []byte{9, 8, 7}, uint64(0x8000_0000_0000_0001))
	f.Add(uint8(16), []byte{0x55}, []byte{0xAA}, uint64(0xF0F0))
	rules := []flipRule{flipHamming, flipNone}
	f.Fuzz(func(t *testing.T, cfg uint8, oldSrc, newSrc []byte, flipWord uint64) {
		g := maskGeometries[int(cfg)%len(maskGeometries)]
		rule := rules[int(cfg)/len(maskGeometries)%len(rules)]
		old, new := fillLine(oldSrc, g.lineBytes), fillLine(newSrc, g.lineBytes)
		checkReadMasks(t, g, rule, old, new, flipWord)
	})
}

// TestReadStageMasksMatchReference runs the fuzz check over a fixed
// random sample of every geometry and rule, with sparse and dense
// rewrites.
func TestReadStageMasksMatchReference(t *testing.T) {
	rng := newSplitmix(1)
	for _, g := range maskGeometries {
		for _, rule := range []flipRule{flipHamming, flipNone} {
			t.Run(fmt.Sprintf("%dB-x%d-%dchips/rule=%d", g.lineBytes, g.width, g.chips, rule), func(t *testing.T) {
				old, new := make([]byte, g.lineBytes), make([]byte, g.lineBytes)
				for trial := 0; trial < 200; trial++ {
					for i := range old {
						old[i] = byte(rng.next())
					}
					copy(new, old)
					flips := 1 + int(rng.next()%24)
					if trial%4 == 0 {
						flips = g.lineBytes * 8
					}
					for n := 0; n < flips; n++ {
						b := int(rng.next() % uint64(g.lineBytes*8))
						new[b/8] ^= 1 << (b % 8)
					}
					tags := rng.next() & rng.next()
					checkReadMasks(t, g, rule, old, new, tags)
				}
			})
		}
	}
}

// splitmix is a small deterministic generator for the fixed samples.
type splitmix uint64

func newSplitmix(seed uint64) *splitmix { s := splitmix(seed); return &s }

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// TestPlanWriteGeometries replays random writes on the mask geometries
// with a full scheme: every plan must be in SortPulses order and must
// leave the encoded-cell oracle decoding to the written line.
// Lines of more than 64 cells are left out: the scheme keeps one 64-bit
// tag word per line, so a cell past bit 63 that the read stage stores
// inverted decodes wrongly on its next write (a known defect).
func TestPlanWriteGeometries(t *testing.T) {
	for _, g := range maskGeometries {
		if g.lineBytes*8/g.width > 64 {
			continue
		}
		par := pcm.DefaultParams()
		par.LineBytes, par.NumChips, par.ChipWidthBits = g.lineBytes, g.chips, g.width
		par.CapacityBytes = int64(g.lineBytes) << 20
		if err := par.Validate(); err != nil {
			t.Fatal(err)
		}
		t.Run(fmt.Sprintf("%dB-x%d-%dchips", g.lineBytes, g.width, g.chips), func(t *testing.T) {
			s := New(par)
			arr := schemes.NewArray(par)
			rng := newSplitmix(uint64(g.lineBytes + g.chips))
			const lines = 4
			mem := make([][]byte, lines)
			for i := range mem {
				mem[i] = make([]byte, par.LineBytes)
			}
			for w := 0; w < 300; w++ {
				a := int(rng.next() % lines)
				addr := pcm.LineAddr(a)
				next := append([]byte(nil), mem[a]...)
				for n := 1 + int(rng.next()%40); n > 0; n-- {
					b := int(rng.next() % uint64(len(next)*8))
					next[b/8] ^= 1 << (b % 8)
				}
				p := s.PlanWrite(addr, mem[a], next)
				checkSorted(t, "write", p)
				if err := arr.CheckWrite(addr, p, next); err != nil {
					t.Fatalf("write %d: %v", w, err)
				}
				mem[a] = next
			}
		})
	}
}
