package analytic

import (
	"math/rand"
	"testing"

	"tetriswrite/internal/pcm"
	"tetriswrite/internal/schemes"
	"tetriswrite/internal/units"
)

func TestDefaultConfigValues(t *testing.T) {
	p := pcm.DefaultParams()
	ns := func(x float64) units.Duration { return units.Nanoseconds(x) }
	cases := []struct {
		name string
		got  units.Duration
		want units.Duration
	}{
		{"conventional", Conventional(p), ns(8 * 430)},
		{"dcw", DCW(p), ns(50 + 8*430)},
		{"fnw", FlipNWrite(p), ns(50 + 4*430)},
		{"twostage", TwoStage(p), ns(8*53 + 2*430)},
		{"threestage", ThreeStage(p), ns(50 + 4*53 + 2*430)},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

// TestEquationsMatchImplementations cross-validates the closed forms
// against the actual pulse schedulers over several configurations.
func TestEquationsMatchImplementations(t *testing.T) {
	configs := []func() pcm.Params{
		pcm.DefaultParams,
		func() pcm.Params { // mobile: quarter budget
			p := pcm.DefaultParams()
			p.ChipBudget = 8
			return p
		},
		func() pcm.Params { // 128 B lines
			p := pcm.DefaultParams()
			p.LineBytes = 128
			return p
		},
		func() pcm.Params { // slower SET
			p := pcm.DefaultParams()
			p.TSet = 800 * units.Nanosecond
			return p
		},
	}
	rng := rand.New(rand.NewSource(4))
	for ci, mk := range configs {
		par := mk()
		if err := par.Validate(); err != nil {
			t.Fatalf("config %d invalid: %v", ci, err)
		}
		old := make([]byte, par.LineBytes)
		new := make([]byte, par.LineBytes)
		rng.Read(old)
		rng.Read(new)
		cases := []struct {
			f    schemes.Factory
			want units.Duration
		}{
			{schemes.NewConventional, Conventional(par)},
			{schemes.NewDCW, DCW(par)},
			{schemes.NewFlipNWrite, FlipNWrite(par)},
			{schemes.NewTwoStage, TwoStage(par)},
			{schemes.NewThreeStage, ThreeStage(par)},
		}
		for _, c := range cases {
			s := c.f(par)
			if got := s.PlanWrite(0, old, new).ServiceTime(); got != c.want {
				t.Errorf("config %d, %s: implementation %v, equation %v", ci, s.Name(), got, c.want)
			}
		}
	}
}

func TestTetrisEquation(t *testing.T) {
	p := pcm.DefaultParams()
	// result=2, subresult=0, 41 cycles: 50ns + 102.5ns + 2x430ns.
	got := Tetris(p, 2, 0, 41)
	want := units.Nanoseconds(50 + 102.5 + 860)
	if got != want {
		t.Errorf("Tetris(2,0) = %v, want %v", got, want)
	}
	// subresult adds Tset/K quanta.
	got = Tetris(p, 1, 3, 0)
	want = p.TRead + p.TSet + 3*(p.TSet/8)
	if got != want {
		t.Errorf("Tetris(1,3) = %v, want %v", got, want)
	}
}

// TestOrderingHolds: the paper's ranking must hold across a sweep of
// budgets and line sizes: conventional >= dcw-read... specifically
// baseline > fnw > twostage > threestage in service time for the default
// regime and all remain ordered for larger lines.
func TestOrderingHolds(t *testing.T) {
	for _, line := range []int{64, 128, 256} {
		p := pcm.DefaultParams()
		p.LineBytes = line
		d, f, t2, t3 := DCW(p), FlipNWrite(p), TwoStage(p), ThreeStage(p)
		if !(d > f && f > t2 && t2 > t3) {
			t.Errorf("line %dB: ordering violated: dcw=%v fnw=%v 2sw=%v 3sw=%v", line, d, f, t2, t3)
		}
	}
}
