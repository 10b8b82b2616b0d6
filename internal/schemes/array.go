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
// Lines are stored inline in a linestore.Store: the data cells in the
// bitutil.Lanes layout of a line (cell u*NumChips+c is the lane at bit
// (u*NumChips+c)*ChipWidthBits), followed by a flip-cell bitmap, bit i
// for cell i. The invariant guard keeps one Array per scheme under test
// and touches it on every deep-checked write, so the layout matters the
// same way the device's does.
type Array struct {
	par       pcm.Params
	g         bitutil.Lanes
	lines     *linestore.Store
	bitsWords int // words holding the data cells

	// pulseBuf is the reusable sort scratch of Apply. Arrays are
	// single-owner like the schemes they shadow, so reuse is safe.
	pulseBuf []Pulse
}

// NewArray returns an empty encoded-cell model.
func NewArray(par pcm.Params) *Array {
	bitsWords := linestore.Words(par.LineBytes)
	flipWords := (par.DataUnits()*par.NumChips + 63) / 64
	return &Array{
		par:       par,
		g:         bitutil.NewLanes(par.ChipWidthBits),
		lines:     linestore.NewStore(bitsWords + flipWords),
		bitsWords: bitsWords,
	}
}

func (a *Array) line(addr pcm.LineAddr) []uint64 {
	return a.lines.Ensure(int64(addr))
}

func (a *Array) idx(c, u int) int { return u*a.par.NumChips + c }

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
			a.g.SetCell(l, i, a.g.Cell(l, i)|pl.Mask)
			if pl.FlipCell {
				a.setCellFlip(l, i, true)
			}
		} else {
			a.g.SetCell(l, i, a.g.Cell(l, i)&^pl.Mask)
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
// be one line long. The data cells' lanes ARE the logical little-endian
// byte layout up to inversion coding, so decoding is one XOR per word:
// the flip bitmap's bits of the word's cells expand to lanes of ones
// and flip exactly the inverted cells.
func (a *Array) LogicalInto(dst []byte, addr pcm.LineAddr) {
	if len(dst) != a.par.LineBytes {
		panic("schemes: LogicalInto buffer size mismatch")
	}
	l := a.line(addr)
	flips := l[a.bitsWords:]
	for j, w := range l[:a.bitsWords] {
		bitutil.PutLineWord(dst, j, w^a.g.Tags(flips, j))
	}
}

// SyncLogical re-derives one line's stored data bits from its logical
// contents under the line's current flip tags, leaving the tags
// untouched. The runtime invariant guard uses it to re-anchor its shadow
// array to the device's actual stored contents — which can drift from
// the pulse-train model under fault injection — before replaying the
// next plan: the scheme plans from the device's real old image, so the
// oracle must start there too. Encoding is the same involution as
// decoding (see LogicalInto).
func (a *Array) SyncLogical(addr pcm.LineAddr, logical []byte) {
	l := a.line(addr)
	flips := l[a.bitsWords:]
	for j := range l[:a.bitsWords] {
		l[j] = bitutil.LineWord(logical, j) ^ a.g.Tags(flips, j)
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
	return a.g.Cell(l, i), a.cellFlip(l, i)
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
