package tetris

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"tetriswrite/internal/pcm"
	"tetriswrite/internal/schemes"
	"tetriswrite/internal/units"
)

// orderConfig is one scheme configuration the pulse-order oracle covers.
type orderConfig struct {
	name string
	par  pcm.Params
	opt  Options
}

// orderConfigs spans the shapes that change emission: GCP on and off,
// the shared and split budget regimes, every Options variant, x8 chips,
// and a Tset that K does not divide (the SortPulses fallback).
func orderConfigs() []orderConfig {
	var out []orderConfig
	for _, gcp := range []bool{true, false} {
		for _, budget := range []int{32, 8, 4} {
			for _, v := range []struct {
				name string
				opt  Options
			}{
				{"paper", Options{}},
				{"arrival", Options{ArrivalOrder: true}},
				{"noflip", Options{DisableFlip: true}},
			} {
				par := pcm.DefaultParams()
				par.GlobalChargePump = gcp
				par.ChipBudget = budget
				name := fmt.Sprintf("%s/gcp=%v/budget=%d", v.name, gcp, budget)
				out = append(out, orderConfig{name: name, par: par, opt: v.opt})
			}
		}
	}
	x8 := pcm.DefaultParams()
	x8.ChipWidthBits = 8
	x8.NumChips = 8
	out = append(out, orderConfig{name: "x8", par: x8})
	for _, gcp := range []bool{true, false} {
		odd := pcm.DefaultParams()
		odd.TSet = 430*units.Nanosecond + 3 // K = 8 does not divide Tset
		odd.GlobalChargePump = gcp
		odd.ChipBudget = 8
		out = append(out, orderConfig{name: fmt.Sprintf("tset-fallback/gcp=%v", gcp), par: odd})
	}
	return out
}

// checkSorted fails unless the plan's pulses already sit in SortPulses
// order, i.e. sorting a copy changes nothing.
func checkSorted(t testing.TB, what string, p schemes.Plan) {
	t.Helper()
	want := p
	want.Pulses = slices.Clone(p.Pulses)
	want.SortPulses()
	if !slices.Equal(p.Pulses, want.Pulses) {
		t.Fatalf("%s: pulses not in SortPulses order:\n got %+v\nwant %+v", what, p.Pulses, want.Pulses)
	}
}

// replayOrder drives one scheme with a random stream of line updates,
// recycling every plan, and checks each plan's order.
func replayOrder(t testing.TB, c orderConfig, rng *rand.Rand, writes int) {
	s := NewWithOptions(c.par, c.opt)
	rec := s.(schemes.PlanRecycler)
	const lines = 8
	mem := make([][]byte, lines)
	for i := range mem {
		mem[i] = make([]byte, c.par.LineBytes)
	}
	next := make([]byte, c.par.LineBytes)
	for i := 0; i < writes; i++ {
		a := rng.Intn(lines)
		addr := pcm.LineAddr(a)
		copy(next, mem[a])
		// Mix sparse updates (the common case) with dense rewrites that
		// drive the split regime and inversion coding.
		if rng.Intn(4) == 0 {
			rng.Read(next)
		} else {
			for n := rng.Intn(48); n > 0; n-- {
				b := rng.Intn(len(next) * 8)
				next[b/8] ^= 1 << (b % 8)
			}
		}
		p := s.PlanWrite(addr, mem[a], next)
		checkSorted(t, c.name, p)
		rec.RecyclePlan(p)
		copy(mem[a], next)
	}
}

// TestPlanWritePulseOrderMatchesSort pins PlanWrite's sort-free emission
// to the SortPulses order, which stays the definition of a plan's pulse
// order.
func TestPlanWritePulseOrderMatchesSort(t *testing.T) {
	for i, c := range orderConfigs() {
		t.Run(c.name, func(t *testing.T) {
			replayOrder(t, c, rand.New(rand.NewSource(int64(i)+1)), 400)
		})
	}
}

// FuzzPlanWritePulseOrder is the same check over fuzzer-chosen streams.
func FuzzPlanWritePulseOrder(f *testing.F) {
	f.Add(uint8(0), int64(1))
	f.Add(uint8(5), int64(2))
	f.Add(uint8(24), int64(3))
	f.Add(uint8(25), int64(4))
	cfgs := orderConfigs()
	f.Fuzz(func(t *testing.T, cfg uint8, seed int64) {
		c := cfgs[int(cfg)%len(cfgs)]
		replayOrder(t, c, rand.New(rand.NewSource(seed)), 64)
	})
}
