package schemes

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"tetriswrite/internal/bitutil"
	"tetriswrite/internal/pcm"
	"tetriswrite/internal/units"
)

// refCell is the per-cell reference of one (chip, unit) cell's coding:
// the cell is read with bitutil.ChipSlice and, for the flip codings,
// coded by bitutil.FlipTransition against its bit of tags, which is
// updated (bit 1<<i is 0 past bit 63, so such a cell has no tag).
func refCell(par pcm.Params, code cellCode, tags *uint64, c, u int, old, new []byte) (tr bitutil.Transition, flipSet, flipReset bool) {
	wb, nc := par.ChipWidthBits/8, par.NumChips
	o := bitutil.ChipSlice(old, nc, wb, c, u)
	n := bitutil.ChipSlice(new, nc, wb, c, u)
	if code == codeDirect {
		return bitutil.Transition16(o, n), false, false
	}
	bit := uint64(1) << uint(u*nc+c)
	stored := bitutil.FlipWord{Bits: o}
	if *tags&bit != 0 {
		stored = bitutil.FlipWord{Bits: ^o & bitutil.WidthMask(par.ChipWidthBits), Flip: true}
	}
	enc, tr, flipSet, flipReset := bitutil.FlipTransition(stored, n, par.ChipWidthBits)
	if enc.Flip {
		*tags |= bit
	} else {
		*tags &^= bit
	}
	return tr, flipSet, flipReset
}

// refStaticPlan is the per-cell reference planner of DCW, Flip-N-Write
// and Three-Stage-Write: it codes every cell of the line one at a time,
// changed or not, in (unit, chip) order, with no word skip. It returns
// the plan and the line's updated tag word.
func refStaticPlan(par pcm.Params, code cellCode, tags uint64, old, new []byte) (Plan, uint64) {
	p := basePlan(par)
	p.Read = par.TRead
	nu, w := par.DataUnits(), par.ChipWidthBits
	var s0, s1 stage
	switch code {
	case codeDirect:
		s0.lay = newStaticLayout(w, par.CurrentReset, par.ChipBudget)
		s0.clock = slotClock{pitch: par.TSet}
		p.Write = units.Duration(s0.lay.slots(nu)) * par.TSet
	case codeFlip:
		s0.lay = newStaticLayout(w/2, par.CurrentReset, par.ChipBudget)
		s0.clock = slotClock{pitch: par.TSet}
		s1 = s0
		p.Write = units.Duration(s0.lay.slots(nu)) * par.TSet
	case codeFlipStaged:
		s0.lay = newStaticLayout(w/2, par.CurrentReset, par.ChipBudget)
		s1.lay = newStaticLayout(w/2, par.CurrentSet, par.ChipBudget)
		span := units.Duration(s0.lay.slots(nu)) * par.TReset
		s0.clock = slotClock{pitch: par.TReset}
		s1.clock = slotClock{base: span, pitch: par.TSet}
		p.Write = span + units.Duration(s1.lay.slots(nu))*par.TSet
	}
	for u := 0; u < nu; u++ {
		for c := 0; c < par.NumChips; c++ {
			tr, flipSet, flipReset := refCell(par, code, &tags, c, u, old, new)
			if code == codeFlipStaged {
				emitStreams(&p, s0.lay, s0.clock, c, u, tr.Resets, 0)
				emitStreams(&p, s1.lay, s1.clock, c, u, 0, tr.Sets)
			} else {
				emitStreams(&p, s0.lay, s0.clock, c, u, tr.Resets, tr.Sets)
			}
			if flipSet {
				emitFlip(&p, s1.lay, s1.clock, c, u, Set)
			} else if flipReset {
				emitFlip(&p, s0.lay, s0.clock, c, u, Reset)
			}
		}
	}
	return p, tags
}

// refGeometries are the geometries the static planners are held to the
// reference on: those of TestSchemesWriteCorrectness, three chips over
// 30-byte lines (15 cells, a partial last word and a chip count that is
// not a power of two), and 256-byte x16 lines, whose 128 cells run past
// the 64-bit tag word.
func refGeometries() []struct {
	name string
	par  pcm.Params
} {
	odd := pcm.DefaultParams()
	odd.NumChips = 3
	odd.LineBytes = 30
	odd.CapacityBytes = odd.CapacityBytes / 64 * 30
	wide := pcm.DefaultParams()
	wide.LineBytes = 256
	return append(geometries(), []struct {
		name string
		par  pcm.Params
	}{{"chips3-line30", odd}, {"line256", wide}}...)
}

// checkStaticPlan plans one write of old to new on a fresh scheme of
// each walk-based kind, from the line's tag word tags, and fails unless
// its plan and updated tag word equal the per-cell reference's.
func checkStaticPlan(t *testing.T, par pcm.Params, tags uint64, old, new []byte) {
	t.Helper()
	const addr = pcm.LineAddr(5)
	for _, k := range []struct {
		name string
		f    Factory
		code cellCode
	}{{"dcw", NewDCW, codeDirect}, {"fnw", NewFlipNWrite, codeFlip}, {"threestage", NewThreeStage, codeFlipStaged}} {
		s, lineTags := k.f(par), tags
		if k.code == codeDirect {
			lineTags = 0 // DCW keeps no tags
		}
		if ft, ok := s.(FlipTagger); ok {
			ft.RestoreFlipTags(addr, lineTags)
		}
		got := s.PlanWrite(addr, old, new)
		want, wantTags := refStaticPlan(par, k.code, lineTags, old, new)
		gotTags := wantTags
		if ft, ok := s.(FlipTagger); ok {
			gotTags = ft.FlipTags(addr)
		}
		gotPulses, wantPulses := got.Pulses, want.Pulses
		got.Pulses, want.Pulses = nil, nil
		if !reflect.DeepEqual(got, want) || !slices.Equal(gotPulses, wantPulses) || gotTags != wantTags {
			t.Fatalf("%s: plan %+v pulses %v tags %#x\nreference %+v pulses %v tags %#x",
				k.name, got, gotPulses, gotTags, want, wantPulses, wantTags)
		}
	}
}

// FuzzStaticPlanMatchesReference holds DCW, Flip-N-Write and
// Three-Stage-Write, which plan from one word walk over the changed
// cells, to the per-cell reference: the same pulses in the same order,
// the same plan header and counts, and the same tag word, for random
// old and new lines and tag words on x16 and x8 chips, lines whose last
// word is partial, and lines of more than 64 cells.
func FuzzStaticPlanMatchesReference(f *testing.F) {
	for g := range refGeometries() {
		for mode := 0; mode < 4; mode++ {
			f.Add(int64(g*4+mode), uint8(g), uint8(mode), uint64(0x5a5a_3c3c_0f0f_ffff))
		}
	}
	geos := refGeometries()
	f.Fuzz(func(t *testing.T, seed int64, geo, mode uint8, tags uint64) {
		par := geos[int(geo)%len(geos)].par
		rng := rand.New(rand.NewSource(seed))
		old := make([]byte, par.LineBytes)
		rng.Read(old)
		new := append([]byte(nil), old...)
		switch mode % 4 {
		case 0: // a few bits
			mutate(rng, new, 1+rng.Intn(8))
		case 1: // a fresh line
			rng.Read(new)
		case 2: // every bit
			for i := range new {
				new[i] = ^old[i]
			}
		case 3: // unchanged
		}
		checkStaticPlan(t, par, tags, old, new)
	})
}

// TestStaticPlanMatchesReference runs the fuzz target's check over a
// fixed sample of each geometry, so the default test run holds the
// walk to the reference without the fuzzing engine.
func TestStaticPlanMatchesReference(t *testing.T) {
	for _, g := range refGeometries() {
		t.Run(g.name, func(t *testing.T) {
			if err := g.par.Validate(); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(3))
			old := make([]byte, g.par.LineBytes)
			new := make([]byte, g.par.LineBytes)
			for trial := 0; trial < 200; trial++ {
				rng.Read(old)
				copy(new, old)
				if trial%2 == 0 {
					mutate(rng, new, 1+rng.Intn(24))
				} else {
					rng.Read(new)
				}
				checkStaticPlan(t, g.par, rng.Uint64(), old, new)
			}
		})
	}
}
