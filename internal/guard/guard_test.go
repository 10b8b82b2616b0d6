package guard

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"tetriswrite/internal/pcm"
	"tetriswrite/internal/schemes"
	"tetriswrite/internal/tetris"
	"tetriswrite/internal/units"
)

func newTestGuard(deep bool) (*Guard, pcm.Params) {
	par := pcm.DefaultParams()
	g := New(par, Config{Enabled: true, DeepChecks: deep})
	g.SetFingerprint(7, "vips", "test")
	return g, par
}

func violationOf(t *testing.T, g *Guard, kind string) *ViolationError {
	t.Helper()
	err := g.Err()
	if err == nil {
		t.Fatalf("no violation recorded, want kind %s", kind)
	}
	var v *ViolationError
	if !errors.As(err, &v) {
		t.Fatalf("Err() = %T, want *ViolationError", err)
	}
	if v.Kind != kind {
		t.Fatalf("violation kind %s, want %s (%v)", v.Kind, kind, v)
	}
	return v
}

func randLine(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func TestDisabledGuardChecksNothing(t *testing.T) {
	par := pcm.DefaultParams()
	var g *Guard // nil guard: the controller's default
	g.CheckClock(units.Time(5))
	g.CheckClock(units.Time(1)) // backwards, but nobody is looking
	g.CheckQueues(units.Time(1), 99, 99, 32, 32)
	if g.Err() != nil {
		t.Fatal("nil guard recorded a violation")
	}
	g2 := New(par, Config{}) // constructed but not enabled
	g2.CheckQueues(units.Time(1), 99, 99, 32, 32)
	if g2.Err() != nil {
		t.Fatal("disabled guard recorded a violation")
	}
}

func TestClockMonotonicity(t *testing.T) {
	g, _ := newTestGuard(false)
	g.CheckClock(units.Time(100))
	g.CheckClock(units.Time(100)) // equal is fine
	if g.Err() != nil {
		t.Fatalf("monotone clock flagged: %v", g.Err())
	}
	g.CheckClock(units.Time(99))
	v := violationOf(t, g, KindClock)
	if v.Fp.Cycle != units.Time(99) {
		t.Errorf("violation cycle %v, want 99", v.Fp.Cycle)
	}
}

func TestQueueBounds(t *testing.T) {
	g, _ := newTestGuard(false)
	g.CheckQueues(units.Time(1), 32, 32, 32, 32) // full is legal
	if g.Err() != nil {
		t.Fatalf("full queues flagged: %v", g.Err())
	}
	g.CheckQueues(units.Time(2), 10, 33, 32, 32)
	v := violationOf(t, g, KindQueue)
	if !strings.Contains(v.Detail, "33") {
		t.Errorf("detail does not name the occupancy: %q", v.Detail)
	}
}

// TestPowerViolation: a synthetic plan pulsing two full data units
// simultaneously draws 2 units x 4 chips x 16 cells x RESET current 2 =
// 256, over the default bank budget of 128. The error must name the
// budget and the violation must carry the run fingerprint and cycle.
func TestPowerViolation(t *testing.T) {
	g, par := newTestGuard(false)
	plan := schemes.Plan{
		Write: par.TReset,
		TSet:  par.TSet, TReset: par.TReset,
		CurrentSet: par.CurrentSet, CurrentReset: par.CurrentReset,
	}
	for u := 0; u < 2; u++ {
		for c := 0; c < par.NumChips; c++ {
			plan.Pulses = append(plan.Pulses, schemes.Pulse{
				Chip: c, Unit: u, Kind: schemes.Reset, Mask: 0xFFFF,
			})
			plan.Resets += 16
		}
	}
	old := make([]byte, par.LineBytes)
	neu := make([]byte, par.LineBytes)
	g.CheckWritePlan(units.Time(42), pcm.LineAddr(3), old, neu, plan)
	v := violationOf(t, g, KindPower)
	for _, want := range []string{"256", "128", "budget"} {
		if !strings.Contains(v.Detail, want) {
			t.Errorf("power violation detail misses %q: %q", want, v.Detail)
		}
	}
	if v.Fp.Cycle != units.Time(42) || v.Fp.Seed != 7 || v.Fp.Workload != "vips" {
		t.Errorf("fingerprint wrong: %+v", v.Fp)
	}
}

// TestPerChipPowerViolation: without a GCP the per-chip pump is the
// constraint; the error names the offending chip.
func TestPerChipPowerViolation(t *testing.T) {
	par := pcm.DefaultParams()
	par.GlobalChargePump = false
	g := New(par, Config{Enabled: true})
	plan := schemes.Plan{
		Write: par.TReset,
		TSet:  par.TSet, TReset: par.TReset,
		CurrentSet: par.CurrentSet, CurrentReset: par.CurrentReset,
		Pulses: []schemes.Pulse{
			// Chip 2 alone: 2 units x 16 cells x 2 = 64 > 32 per chip.
			{Chip: 2, Unit: 0, Kind: schemes.Reset, Mask: 0xFFFF},
			{Chip: 2, Unit: 1, Kind: schemes.Reset, Mask: 0xFFFF},
		},
		Resets: 32,
	}
	old := make([]byte, par.LineBytes)
	neu := make([]byte, par.LineBytes)
	g.CheckWritePlan(units.Time(1), 0, old, neu, plan)
	v := violationOf(t, g, KindPower)
	if !strings.Contains(v.Detail, "chip 2") {
		t.Errorf("violation does not name the chip: %q", v.Detail)
	}
}

func TestStructuralCoverageViolation(t *testing.T) {
	g, par := newTestGuard(false)
	plan := schemes.Plan{
		Write: par.TReset,
		TSet:  par.TSet, TReset: par.TReset,
		CurrentSet: par.CurrentSet, CurrentReset: par.CurrentReset,
		Pulses: []schemes.Pulse{
			// Same cell pulsed twice.
			{Chip: 0, Unit: 0, Kind: schemes.Reset, Mask: 0x0001},
			{Chip: 0, Unit: 0, Kind: schemes.Set, Mask: 0x0001},
		},
		Sets: 1, Resets: 1,
	}
	old := make([]byte, par.LineBytes)
	neu := make([]byte, par.LineBytes)
	g.CheckWritePlan(units.Time(1), 0, old, neu, plan)
	violationOf(t, g, KindCoverage)
}

// TestRealSchemesPassDeepChecks: a write stream through each real scheme
// passes cheap and deep validation — the invariant the whole platform
// rests on.
func TestRealSchemesPassDeepChecks(t *testing.T) {
	par := pcm.DefaultParams()
	for _, mk := range []struct {
		name    string
		factory schemes.Factory
	}{
		{"dcw", schemes.NewDCW},
		{"fnw", schemes.NewFlipNWrite},
		{"2stage", schemes.NewTwoStage},
		{"3stage", schemes.NewThreeStage},
		{"tetris", tetris.New},
	} {
		t.Run(mk.name, func(t *testing.T) {
			g := New(par, Config{Enabled: true, DeepChecks: true})
			g.SetFingerprint(1, "synthetic", mk.name)
			s := mk.factory(par)
			rng := rand.New(rand.NewSource(11))
			stored := map[pcm.LineAddr][]byte{}
			for i := 0; i < 200; i++ {
				addr := pcm.LineAddr(rng.Intn(8))
				old, ok := stored[addr]
				if !ok {
					old = make([]byte, par.LineBytes)
				}
				neu := randLine(rng, par.LineBytes)
				plan := s.PlanWrite(addr, old, neu)
				g.CheckWritePlan(units.Time(int64(i)), addr, old, neu, plan)
				if err := g.Err(); err != nil {
					t.Fatalf("write %d: %v", i, err)
				}
				stored[addr] = neu
			}
			if st := g.Stats(); st.WritePlans != 200 || st.DeepReplays != 200 {
				t.Errorf("stats = %+v, want 200 write plans and deep replays", st)
			}
		})
	}
}

// TestDeepCheckCatchesMissingPulse: dropping one pulse from a correct
// plan, and its cells from the plan's counts, leaves a flipped bit
// unscheduled. The cheap checks cannot see that; the deep replay must.
func TestDeepCheckCatchesMissingPulse(t *testing.T) {
	par := pcm.DefaultParams()
	s := schemes.NewDCW(par)
	rng := rand.New(rand.NewSource(3))
	old := make([]byte, par.LineBytes)
	neu := randLine(rng, par.LineBytes)
	plan := s.PlanWrite(0, old, neu)
	if len(plan.Pulses) == 0 {
		t.Fatal("no pulses to drop")
	}
	truncated := plan
	truncated.Pulses = plan.Pulses[:len(plan.Pulses)-1]
	truncated.Sets, truncated.Resets = truncated.Counts()

	cheap := New(par, Config{Enabled: true})
	cheap.CheckWritePlan(units.Time(1), 0, old, neu, truncated)
	if cheap.Err() != nil {
		t.Fatalf("cheap check unexpectedly caught the dropped pulse: %v", cheap.Err())
	}

	deep := New(par, Config{Enabled: true, DeepChecks: true})
	deep.CheckWritePlan(units.Time(1), 0, old, neu, truncated)
	violationOf(t, deep, KindCoverage)
}

// TestFirstViolationWins: only the first violation is recorded and the
// OnViolation hook fires exactly once.
func TestFirstViolationWins(t *testing.T) {
	g, _ := newTestGuard(false)
	fired := 0
	g.OnViolation(func(v *ViolationError) { fired++ })
	g.CheckQueues(units.Time(5), 40, 0, 32, 32)
	g.CheckClock(units.Time(1)) // second would-be violation
	if fired != 1 {
		t.Errorf("OnViolation fired %d times, want 1", fired)
	}
	violationOf(t, g, KindQueue)
}
