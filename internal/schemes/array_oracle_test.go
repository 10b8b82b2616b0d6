package schemes

import (
	"math/rand"
	"testing"

	"tetriswrite/internal/bitutil"
	"tetriswrite/internal/pcm"
	"tetriswrite/internal/units"
)

// packedArray is the pre-SoA Array implementation, kept verbatim as a
// test-only oracle: every operation walks the cells one at a time,
// each in a 16-bit slot whatever the chip width. The property tests below
// drive it in lock-step with the real Array through randomized pulse
// replays, re-anchors and decodes, and require bit-for-bit agreement —
// the SoA rewrite must be invisible to every consumer, including the
// crash recovery, which reads decoded lines and tag words.
type packedArray struct {
	par   pcm.Params
	lines map[pcm.LineAddr][]uint64
	bw    int
}

func newPackedArray(par pcm.Params) *packedArray {
	n := par.DataUnits() * par.NumChips
	return &packedArray{par: par, lines: map[pcm.LineAddr][]uint64{}, bw: (n + 3) / 4}
}

func (a *packedArray) line(addr pcm.LineAddr) []uint64 {
	l, ok := a.lines[addr]
	if !ok {
		n := a.par.DataUnits() * a.par.NumChips
		l = make([]uint64, a.bw+(n+63)/64)
		a.lines[addr] = l
	}
	return l
}

func (a *packedArray) idx(c, u int) int { return u*a.par.NumChips + c }

func (a *packedArray) bits(l []uint64, i int) uint16 { return uint16(l[i>>2] >> (16 * uint(i&3))) }

func (a *packedArray) setBits(l []uint64, i int, v uint16) {
	sh := 16 * uint(i&3)
	l[i>>2] = l[i>>2]&^(0xFFFF<<sh) | uint64(v)<<sh
}

func (a *packedArray) flip(l []uint64, i int) bool { return l[a.bw+i>>6]&(1<<uint(i&63)) != 0 }

func (a *packedArray) setFlip(l []uint64, i int, v bool) {
	if v {
		l[a.bw+i>>6] |= 1 << uint(i&63)
	} else {
		l[a.bw+i>>6] &^= 1 << uint(i&63)
	}
}

func (a *packedArray) Apply(addr pcm.LineAddr, p Plan) {
	l := a.line(addr)
	sorted := p
	sorted.Pulses = append([]Pulse(nil), p.Pulses...)
	sorted.SortPulses()
	for _, pl := range sorted.Pulses {
		i := a.idx(pl.Chip, pl.Unit)
		if pl.Kind == Set {
			a.setBits(l, i, a.bits(l, i)|pl.Mask)
			if pl.FlipCell {
				a.setFlip(l, i, true)
			}
		} else {
			a.setBits(l, i, a.bits(l, i)&^pl.Mask)
			if pl.FlipCell {
				a.setFlip(l, i, false)
			}
		}
	}
}

func (a *packedArray) Logical(addr pcm.LineAddr) []byte {
	l := a.line(addr)
	out := make([]byte, a.par.LineBytes)
	mask := bitutil.WidthMask(a.par.ChipWidthBits)
	wb := a.par.ChipWidthBits / 8
	for u := 0; u < a.par.DataUnits(); u++ {
		for c := 0; c < a.par.NumChips; c++ {
			i := a.idx(c, u)
			w := a.bits(l, i)
			if a.flip(l, i) {
				w = ^w & mask
			}
			bitutil.SetChipSlice(out, a.par.NumChips, wb, c, u, w)
		}
	}
	return out
}

func (a *packedArray) SyncLogical(addr pcm.LineAddr, logical []byte) {
	l := a.line(addr)
	mask := bitutil.WidthMask(a.par.ChipWidthBits)
	wb := a.par.ChipWidthBits / 8
	for u := 0; u < a.par.DataUnits(); u++ {
		for c := 0; c < a.par.NumChips; c++ {
			i := a.idx(c, u)
			w := bitutil.ChipSlice(logical, a.par.NumChips, wb, c, u)
			if a.flip(l, i) {
				w = ^w & mask
			}
			a.setBits(l, i, w)
		}
	}
}

func (a *packedArray) FlipTags(addr pcm.LineAddr) uint64 {
	l := a.line(addr)
	n := a.par.DataUnits() * a.par.NumChips
	if n > 64 {
		n = 64
	}
	var w uint64
	for i := 0; i < n; i++ {
		if a.flip(l, i) {
			w |= 1 << uint(i)
		}
	}
	return w
}

func (a *packedArray) Encoded(addr pcm.LineAddr, c, u int) (uint16, bool) {
	l := a.line(addr)
	return a.bits(l, a.idx(c, u)), a.flip(l, a.idx(c, u))
}

// randomPlan emits a structurally plausible pulse train: random cells,
// kinds, masks, start offsets and flip-cell riders. It does not need to
// satisfy power budgets — Apply ignores them — only the
// no-overlapping-identical-pulse rule SortPulses' total order relies on.
func randomPlan(rng *rand.Rand, par pcm.Params) Plan {
	p := basePlan(par)
	mask := bitutil.WidthMask(par.ChipWidthBits)
	seen := map[[4]int]bool{}
	for n := rng.Intn(12); n > 0; n-- {
		pl := Pulse{
			Chip:  rng.Intn(par.NumChips),
			Unit:  rng.Intn(par.DataUnits()),
			Kind:  PulseKind(rng.Intn(2)),
			Start: units.Duration(rng.Intn(8)) * par.TSet,
			Mask:  uint16(rng.Uint32()) & mask,
		}
		if rng.Intn(4) == 0 {
			pl.FlipCell = true
			pl.Mask = 0
		} else if pl.Mask == 0 {
			continue
		}
		key := [4]int{pl.Chip, pl.Unit, int(pl.Kind), int(pl.Start)}
		if seen[key] { // identical (cell, kind, start) would tie the sort order
			continue
		}
		seen[key] = true
		p.Pulses = append(p.Pulses, pl)
	}
	return p
}

// TestArrayMatchesPackedOracle drives the SoA Array and the packed
// per-cell oracle through identical randomized sequences of pulse
// replays, logical re-anchors, decodes and tag reads, across the
// default x16 geometry, x8 chips (eight cells per lane word) and 26
// cells over 52 bytes, whose last lane word is partial.
func TestArrayMatchesPackedOracle(t *testing.T) {
	geometries := []struct {
		name string
		par  pcm.Params
	}{
		{"x16-default", pcm.DefaultParams()},
		{"x8-scalar", func() pcm.Params {
			p := pcm.DefaultParams()
			p.ChipWidthBits = 8
			return p
		}()},
		{"x16-odd-cells", func() pcm.Params {
			p := pcm.DefaultParams()
			p.NumChips = 2
			p.LineBytes = 52 // 13 units * 2 chips = 26 cells, not %4
			p.CapacityBytes = int64(p.LineBytes) * 1024
			return p
		}()},
	}
	for _, g := range geometries {
		t.Run(g.name, func(t *testing.T) {
			if err := g.par.Validate(); err != nil {
				t.Fatalf("geometry invalid: %v", err)
			}
			rng := rand.New(rand.NewSource(42))
			arr := NewArray(g.par)
			oracle := newPackedArray(g.par)
			addrs := []pcm.LineAddr{0, 1, 7, 31}
			for step := 0; step < 400; step++ {
				addr := addrs[rng.Intn(len(addrs))]
				switch rng.Intn(3) {
				case 0: // pulse replay
					p := randomPlan(rng, g.par)
					arr.Apply(addr, p)
					oracle.Apply(addr, p)
				case 1: // re-anchor to arbitrary logical contents
					logical := make([]byte, g.par.LineBytes)
					rng.Read(logical)
					arr.SyncLogical(addr, logical)
					oracle.SyncLogical(addr, logical)
				case 2: // decode + tag + raw-cell reads (the classifier path)
					got, want := arr.Logical(addr), oracle.Logical(addr)
					if bitutil.HammingBytes(got, want) != 0 {
						t.Fatalf("step %d: Logical(%d) diverged\n got %x\nwant %x", step, addr, got, want)
					}
					into := make([]byte, g.par.LineBytes)
					arr.LogicalInto(into, addr)
					if bitutil.HammingBytes(into, want) != 0 {
						t.Fatalf("step %d: LogicalInto(%d) diverged", step, addr)
					}
					if gt, wt := arr.FlipTags(addr), oracle.FlipTags(addr); gt != wt {
						t.Fatalf("step %d: FlipTags(%d) = %#x, oracle %#x", step, addr, gt, wt)
					}
					c := rng.Intn(g.par.NumChips)
					u := rng.Intn(g.par.DataUnits())
					gb, gf := arr.Encoded(addr, c, u)
					wb, wf := oracle.Encoded(addr, c, u)
					if gb != wb || gf != wf {
						t.Fatalf("step %d: Encoded(%d,%d,%d) = (%#x,%v), oracle (%#x,%v)",
							step, addr, c, u, gb, gf, wb, wf)
					}
				}
			}
			// Final sweep: every line must agree on every surface.
			for _, addr := range addrs {
				if bitutil.HammingBytes(arr.Logical(addr), oracle.Logical(addr)) != 0 {
					t.Errorf("final: Logical(%d) diverged", addr)
				}
				if arr.FlipTags(addr) != oracle.FlipTags(addr) {
					t.Errorf("final: FlipTags(%d) diverged", addr)
				}
			}
		})
	}
}

// TestArrayOracleTornReadPath replays torn (truncated) tetris-style
// plans on both arrays and checks the crash-recovery read surface —
// decoded contents and physical tag word, the two inputs crash
// recovery judges a torn line by — stays identical under every truncation
// point of every plan.
func TestArrayOracleTornReadPath(t *testing.T) {
	par := pcm.DefaultParams()
	rng := rand.New(rand.NewSource(7))
	arr := NewArray(par)
	oracle := newPackedArray(par)
	addr := pcm.LineAddr(3)
	for round := 0; round < 60; round++ {
		p := randomPlan(rng, par)
		// Tear the plan: keep a random prefix of its (sorted) pulses,
		// like a power failure mid-train.
		sorted := p
		sorted.Pulses = append([]Pulse(nil), p.Pulses...)
		sorted.SortPulses()
		cut := 0
		if len(sorted.Pulses) > 0 {
			cut = rng.Intn(len(sorted.Pulses) + 1)
		}
		torn := sorted
		torn.Pulses = sorted.Pulses[:cut]
		arr.Apply(addr, torn)
		oracle.Apply(addr, torn)
		if bitutil.HammingBytes(arr.Logical(addr), oracle.Logical(addr)) != 0 {
			t.Fatalf("round %d cut %d: torn decode diverged", round, cut)
		}
		if arr.FlipTags(addr) != oracle.FlipTags(addr) {
			t.Fatalf("round %d cut %d: torn tags diverged", round, cut)
		}
	}
}
