package schemes

import (
	"fmt"

	"tetriswrite/internal/bitutil"
	"tetriswrite/internal/linestore"
	"tetriswrite/internal/pcm"
	"tetriswrite/internal/units"
)

// Array is a bit-accurate model of the encoded PCM cells of one line set:
// the data cells plus the flip cell of every (chip, data unit) pair. It
// replays the pulse trains of Plans and decodes the logical contents, so
// tests and examples can verify that whatever a scheme schedules actually
// leaves the right bits in the array. A fresh Array is all zeros with all
// flip cells cleared, matching a fresh Device and fresh scheme state.
//
// Lines are stored inline in a linestore.Store: four 16-bit cell words
// per uint64, followed by a flip-cell bitmap. The invariant guard keeps
// one Array per scheme under test and touches it on every deep-checked
// write, so the layout matters the same way the device's does.
type Array struct {
	par       pcm.Params
	lines     *linestore.Store
	bitsWords int // words holding the packed uint16 cells

	// pulseBuf is the reusable sort scratch of Apply. Arrays are
	// single-owner like the schemes they shadow, so reuse is safe.
	pulseBuf []Pulse
}

// NewArray returns an empty encoded-cell model.
func NewArray(par pcm.Params) *Array {
	n := par.DataUnits() * par.NumChips
	bitsWords := (n + 3) / 4
	flipWords := (n + 63) / 64
	return &Array{
		par:       par,
		lines:     linestore.NewStore(bitsWords + flipWords),
		bitsWords: bitsWords,
	}
}

func (a *Array) line(addr pcm.LineAddr) []uint64 {
	return a.lines.Ensure(int64(addr))
}

func (a *Array) idx(c, u int) int { return u*a.par.NumChips + c }

func cellBits(l []uint64, i int) uint16 {
	return uint16(l[i>>2] >> (16 * uint(i&3)))
}

func setCellBits(l []uint64, i int, v uint16) {
	sh := 16 * uint(i&3)
	l[i>>2] = l[i>>2]&^(0xFFFF<<sh) | uint64(v)<<sh
}

func (a *Array) cellFlip(l []uint64, i int) bool {
	return l[a.bitsWords+i>>6]&(1<<uint(i&63)) != 0
}

func (a *Array) setCellFlip(l []uint64, i int, v bool) {
	if v {
		l[a.bitsWords+i>>6] |= 1 << uint(i&63)
	} else {
		l[a.bitsWords+i>>6] &^= 1 << uint(i&63)
	}
}

// Apply replays a plan's pulses onto the line's encoded cells, in pulse
// start-time order. Overlapping same-cell pulses were already excluded by
// Plan.Validate; order therefore does not matter for correctness, but
// replaying in time order keeps the model honest.
func (a *Array) Apply(addr pcm.LineAddr, p Plan) {
	l := a.line(addr)
	sorted := p
	sorted.Pulses = append(a.pulseBuf[:0], p.Pulses...)
	sorted.SortPulses()
	a.pulseBuf = sorted.Pulses[:0]
	for _, pl := range sorted.Pulses {
		i := a.idx(pl.Chip, pl.Unit)
		if pl.Kind == Set {
			setCellBits(l, i, cellBits(l, i)|pl.Mask)
			if pl.FlipCell {
				a.setCellFlip(l, i, true)
			}
		} else {
			setCellBits(l, i, cellBits(l, i)&^pl.Mask)
			if pl.FlipCell {
				a.setCellFlip(l, i, false)
			}
		}
	}
}

// Logical decodes the stored cells of one line into its logical bytes.
func (a *Array) Logical(addr pcm.LineAddr) []byte {
	out := make([]byte, a.par.LineBytes)
	a.LogicalInto(out, addr)
	return out
}

// LogicalInto decodes the stored cells of one line into dst, which must
// be one line long. For x16 chips the packed cell words ARE the logical
// little-endian byte layout up to inversion coding, so decoding is one
// XOR per four cells: the flip bitmap nibble expands to 16-bit lanes of
// ones and flips exactly the inverted cells' data words.
func (a *Array) LogicalInto(dst []byte, addr pcm.LineAddr) {
	if len(dst) != a.par.LineBytes {
		panic("schemes: LogicalInto buffer size mismatch")
	}
	l := a.line(addr)
	n := a.par.DataUnits() * a.par.NumChips
	if a.par.ChipWidthBits == 16 && n%4 == 0 {
		for w := 0; w < n/4; w++ {
			nib := l[a.bitsWords+w>>4] >> (4 * uint(w&15))
			bitutil.StoreLE64(dst, w*8, l[w]^bitutil.LaneMask16(nib))
		}
		return
	}
	mask := bitutil.WidthMask(a.par.ChipWidthBits)
	wb := a.par.ChipWidthBits / 8
	for u := 0; u < a.par.DataUnits(); u++ {
		for c := 0; c < a.par.NumChips; c++ {
			i := a.idx(c, u)
			w := cellBits(l, i)
			if a.cellFlip(l, i) {
				w = ^w & mask
			}
			bitutil.SetChipSlice(dst, a.par.NumChips, wb, c, u, w)
		}
	}
}

// SyncLogical re-derives one line's stored data bits from its logical
// contents under the line's current flip tags, leaving the tags
// untouched. The runtime invariant guard uses it to re-anchor its shadow
// array to the device's actual stored contents — which can drift from
// the pulse-train model under fault injection — before replaying the
// next plan: the scheme plans from the device's real old image, so the
// oracle must start there too.
func (a *Array) SyncLogical(addr pcm.LineAddr, logical []byte) {
	l := a.line(addr)
	n := a.par.DataUnits() * a.par.NumChips
	if a.par.ChipWidthBits == 16 && n%4 == 0 && len(logical) >= n*2 {
		// Encoding is the same involution as decoding: XOR the lanes
		// whose flip tags are set (see LogicalInto).
		for w := 0; w < n/4; w++ {
			nib := l[a.bitsWords+w>>4] >> (4 * uint(w&15))
			l[w] = bitutil.LoadLE64(logical, w*8) ^ bitutil.LaneMask16(nib)
		}
		return
	}
	mask := bitutil.WidthMask(a.par.ChipWidthBits)
	wb := a.par.ChipWidthBits / 8
	for u := 0; u < a.par.DataUnits(); u++ {
		for c := 0; c < a.par.NumChips; c++ {
			i := a.idx(c, u)
			w := bitutil.ChipSlice(logical, a.par.NumChips, wb, c, u)
			if a.cellFlip(l, i) {
				w = ^w & mask
			}
			setCellBits(l, i, w)
		}
	}
}

// FlipTags returns the line's physical flip-cell word in the
// FlipTagStore layout (bit u*NumChips+c) — the tag image crash
// recovery restores scheme state from. With more than 64 (chip, unit)
// pairs only the first 64 are representable; the default geometry has
// 32.
func (a *Array) FlipTags(addr pcm.LineAddr) uint64 {
	l := a.line(addr)
	n := a.par.DataUnits() * a.par.NumChips
	if n >= 64 {
		return l[a.bitsWords] // bitmap word 0 IS the tag layout
	}
	return l[a.bitsWords] & (1<<uint(n) - 1)
}

// Encoded returns the raw stored bits and flip cell of one (chip, unit).
func (a *Array) Encoded(addr pcm.LineAddr, c, u int) (bits uint16, flip bool) {
	l := a.line(addr)
	i := a.idx(c, u)
	return cellBits(l, i), a.cellFlip(l, i)
}

// CheckWrite is the all-in-one oracle used by the scheme test suites: it
// validates the plan structurally, replays it, verifies the decoded
// contents equal want, and checks the pulse train against the power
// budget implied by the parameters. Any violation is returned as an
// error naming the failing property.
func (a *Array) CheckWrite(addr pcm.LineAddr, p Plan, want []byte) error {
	if err := p.Validate(a.par); err != nil {
		return fmt.Errorf("plan invalid: %w", err)
	}
	budget := PowerBudget(a.par)
	if err := budget.Check(p.Profile(units.Time(0))); err != nil {
		return fmt.Errorf("power violated: %w", err)
	}
	a.Apply(addr, p)
	got := a.Logical(addr)
	if bitutil.HammingBytes(got, want) != 0 {
		return fmt.Errorf("contents wrong: %d bits differ from target", bitutil.HammingBytes(got, want))
	}
	return nil
}
