package schemes

import (
	"math/bits"
	"math/rand"
	"testing"
	"unsafe"

	"tetriswrite/internal/pcm"
	"tetriswrite/internal/units"
)

// strictParams returns the default configuration with GCP disabled so the
// power oracle enforces the per-chip budget, which every static scheme
// must satisfy by construction.
func strictParams() pcm.Params {
	p := pcm.DefaultParams()
	p.GlobalChargePump = false
	return p
}

var factories = []struct {
	name string
	f    Factory
}{
	{"conventional", NewConventional},
	{"dcw", NewDCW},
	{"fnw", NewFlipNWrite},
	{"twostage", NewTwoStage},
	{"threestage", NewThreeStage},
}

// mutate flips nbits random bits of line in place.
func mutate(rng *rand.Rand, line []byte, nbits int) {
	for i := 0; i < nbits; i++ {
		b := rng.Intn(len(line) * 8)
		line[b/8] ^= 1 << (b % 8)
	}
}

// TestSchemesWriteCorrectness drives every scheme through a long random
// write sequence and checks, after every write, that the plan is
// structurally valid, respects the per-chip power budget, and leaves the
// array storing exactly the logical data written.
func TestSchemesWriteCorrectness(t *testing.T) {
	for _, tc := range factories {
		t.Run(tc.name, func(t *testing.T) {
			par := strictParams()
			s := tc.f(par)
			arr := NewArray(par)
			rng := rand.New(rand.NewSource(42))
			old := make([]byte, par.LineBytes)
			want := make([]byte, par.LineBytes)
			const addr = pcm.LineAddr(17)
			for step := 0; step < 300; step++ {
				copy(want, old)
				switch step % 3 {
				case 0: // sparse mutation, the common case per Observation 1
					mutate(rng, want, 1+rng.Intn(12))
				case 1: // dense rewrite
					rng.Read(want)
				case 2: // silent or near-silent write
					if rng.Intn(2) == 0 {
						mutate(rng, want, 1)
					}
				}
				plan := s.PlanWrite(addr, old, want)
				if err := arr.CheckWrite(addr, plan, want); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				copy(old, want)
			}
		})
	}
}

// TestSchemesMatchPaperEquations checks the default-configuration service
// times against Equations 1-4 of the paper.
func TestSchemesMatchPaperEquations(t *testing.T) {
	par := strictParams()
	tset, treset, tread := par.TSet, par.TReset, par.TRead
	cases := []struct {
		name string
		f    Factory
		want units.Duration
	}{
		{"conventional", NewConventional, 8 * tset},              // Eq. 1
		{"dcw", NewDCW, tread + 8*tset},                          // baseline: Eq. 1 + read
		{"fnw", NewFlipNWrite, tread + 4*tset},                   // Eq. 2
		{"twostage", NewTwoStage, 8*treset + 2*tset},             // Eq. 3
		{"threestage", NewThreeStage, tread + 4*treset + 2*tset}, // Eq. 4
	}
	rng := rand.New(rand.NewSource(1))
	old := make([]byte, par.LineBytes)
	new := make([]byte, par.LineBytes)
	rng.Read(old)
	rng.Read(new)
	for _, c := range cases {
		s := c.f(par)
		plan := s.PlanWrite(3, old, new)
		if got := plan.ServiceTime(); got != c.want {
			t.Errorf("%s: ServiceTime = %v, want %v", c.name, got, c.want)
		}
		// Static schemes must be content-independent in time: a silent
		// write takes exactly as long.
		plan2 := s.PlanWrite(4, old, old)
		if plan2.ServiceTime() != c.want {
			t.Errorf("%s: silent-write ServiceTime = %v, want %v", c.name, plan2.ServiceTime(), c.want)
		}
	}
}

// TestWriteUnitsMetric checks the Figure 10 theoretical values: 8 for the
// baseline, 4 for Flip-N-Write, ~3 for 2-Stage-Write, ~2.5 for
// Three-Stage-Write.
func TestWriteUnitsMetric(t *testing.T) {
	par := strictParams()
	rng := rand.New(rand.NewSource(2))
	old := make([]byte, par.LineBytes)
	new := make([]byte, par.LineBytes)
	rng.Read(old)
	rng.Read(new)
	cases := []struct {
		name   string
		f      Factory
		lo, hi float64
	}{
		{"conventional", NewConventional, 8, 8},
		{"dcw", NewDCW, 8, 8},
		{"fnw", NewFlipNWrite, 4, 4},
		{"twostage", NewTwoStage, 2.9, 3.0},
		{"threestage", NewThreeStage, 2.4, 2.5},
	}
	for _, c := range cases {
		plan := c.f(par).PlanWrite(5, old, new)
		got := plan.WriteUnits()
		if got < c.lo || got > c.hi {
			t.Errorf("%s: WriteUnits = %v, want in [%v, %v]", c.name, got, c.lo, c.hi)
		}
	}
}

// TestEnergyBehaviour checks Table I's energy claims: schemes without
// read-before-write pulse every cell; data-comparison schemes pulse only
// what changed (modulo coding overhead).
func TestEnergyBehaviour(t *testing.T) {
	par := strictParams()
	old := make([]byte, par.LineBytes)
	new := make([]byte, par.LineBytes)
	for i := range old {
		old[i] = 0xA5
	}
	copy(new, old)
	new[0] ^= 0x01 // exactly one changed bit
	allCells := par.LineBytes * 8

	// Conventional and 2-Stage-Write pulse every data cell.
	for _, f := range []Factory{NewConventional, NewTwoStage} {
		s := f(par)
		// Prime internal coding state so the measured write starts clean.
		s.PlanWrite(0, make([]byte, par.LineBytes), old)
		sets, resets := s.PlanWrite(0, old, new).Counts()
		if sets+resets < allCells {
			t.Errorf("%s: pulsed %d cells, want >= %d (no comparison)", s.Name(), sets+resets, allCells)
		}
	}

	// DCW pulses exactly the changed bit.
	{
		s := NewDCW(par)
		s.PlanWrite(0, make([]byte, par.LineBytes), old)
		sets, resets := s.PlanWrite(0, old, new).Counts()
		if sets+resets != 1 {
			t.Errorf("dcw: pulsed %d cells, want 1", sets+resets)
		}
	}

	// FNW and Three-Stage pulse at most the direct Hamming distance plus
	// coding overhead, and far fewer than all cells.
	for _, f := range []Factory{NewFlipNWrite, NewThreeStage} {
		s := f(par)
		s.PlanWrite(0, make([]byte, par.LineBytes), old)
		sets, resets := s.PlanWrite(0, old, new).Counts()
		if sets+resets > 2 {
			t.Errorf("%s: pulsed %d cells for a 1-bit change, want <= 2", s.Name(), sets+resets)
		}
	}
}

// TestFNWFlipsDenseWrites checks that inversion coding actually kicks in:
// writing the complement of the stored line must cost at most half the
// cells plus flip bits, not a full rewrite.
func TestFNWFlipsDenseWrites(t *testing.T) {
	par := strictParams()
	for _, f := range []Factory{NewFlipNWrite, NewThreeStage} {
		s := f(par)
		old := make([]byte, par.LineBytes)
		new := make([]byte, par.LineBytes)
		for i := range new {
			new[i] = 0xFF
		}
		plan := s.PlanWrite(9, old, new) // all 512 bits change
		sets, resets := plan.Counts()
		// Inversion: store all-zeros with flip bits set -> only the 32
		// flip cells are pulsed.
		maxCost := par.DataUnits() * par.NumChips
		if sets+resets > maxCost {
			t.Errorf("%s: complement write pulsed %d cells, want <= %d flip cells",
				s.Name(), sets+resets, maxCost)
		}
	}
}

// TestSchemesTinyBudget exercises the split regime of the mobile
// scenario: with a per-chip budget of 8 even a single worst-case data
// unit exceeds the budget for RESET-heavy stages, so units are split
// across slots; plans must still validate, respect the budget, and store
// correct data.
func TestSchemesTinyBudget(t *testing.T) {
	par := strictParams()
	par.ChipBudget = 8
	for _, tc := range factories {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.f(par)
			arr := NewArray(par)
			rng := rand.New(rand.NewSource(77))
			old := make([]byte, par.LineBytes)
			want := make([]byte, par.LineBytes)
			for step := 0; step < 50; step++ {
				copy(want, old)
				rng.Read(want[:rng.Intn(len(want))+1])
				plan := s.PlanWrite(1, old, want)
				if err := arr.CheckWrite(1, plan, want); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				copy(old, want)
			}
		})
	}
	// Tiny budgets must cost more time than the default budget.
	rng := rand.New(rand.NewSource(5))
	old := make([]byte, 64)
	new := make([]byte, 64)
	rng.Read(old)
	rng.Read(new)
	big := NewConventional(strictParams()).PlanWrite(0, old, new).ServiceTime()
	small := NewConventional(par).PlanWrite(0, old, new).ServiceTime()
	if small <= big {
		t.Errorf("budget 8 service %v not slower than budget 32 service %v", small, big)
	}
}

// TestPlanDeterminism: the same write planned twice (fresh scheme state)
// yields identical pulse trains.
func TestPlanDeterminism(t *testing.T) {
	par := strictParams()
	rng := rand.New(rand.NewSource(3))
	old := make([]byte, par.LineBytes)
	new := make([]byte, par.LineBytes)
	rng.Read(old)
	rng.Read(new)
	for _, tc := range factories {
		p1 := tc.f(par).PlanWrite(0, old, new)
		p2 := tc.f(par).PlanWrite(0, old, new)
		if len(p1.Pulses) != len(p2.Pulses) || p1.ServiceTime() != p2.ServiceTime() {
			t.Errorf("%s: nondeterministic plan", tc.name)
			continue
		}
		for i := range p1.Pulses {
			if p1.Pulses[i] != p2.Pulses[i] {
				t.Errorf("%s: pulse %d differs", tc.name, i)
				break
			}
		}
	}
}

// TestPlanValidateCatchesBadPlans feeds corrupted plans to Validate.
func TestPlanValidateCatchesBadPlans(t *testing.T) {
	par := strictParams()
	good := NewDCW(par).PlanWrite(0, make([]byte, 64), []byte{1: 1, 63: 0x80, 0: 1}[:64])
	if err := good.Validate(par); err != nil {
		t.Fatalf("good plan rejected: %v", err)
	}
	corrupt := []struct {
		name string
		mut  func(*Plan)
	}{
		{"chip out of range", func(p *Plan) { p.Pulses[0].Chip = 99 }},
		{"unit out of range", func(p *Plan) { p.Pulses[0].Unit = 99 }},
		{"empty record", func(p *Plan) { p.Pulses[0].Mask = 0; p.Pulses[0].FlipCell = false }},
		{"pulse past end", func(p *Plan) { p.Pulses[0].Start = p.Write }},
		{"negative start", func(p *Plan) { p.Pulses[0].Start = -1 }},
		{"double pulse", func(p *Plan) { p.Pulses = append(p.Pulses, p.Pulses[0]) }},
	}
	for _, c := range corrupt {
		p := good
		p.Pulses = append([]Pulse(nil), good.Pulses...)
		c.mut(&p)
		if err := p.Validate(par); err == nil {
			t.Errorf("%s: corrupted plan accepted", c.name)
		}
	}
}

func TestPulseKindString(t *testing.T) {
	if Set.String() != "SET" || Reset.String() != "RESET" {
		t.Error("PulseKind.String wrong")
	}
}

func TestSplitMaskByBits(t *testing.T) {
	chunks := splitMaskByBits(0xFFFF, 5)
	if len(chunks) != 4 {
		t.Fatalf("got %d chunks, want 4", len(chunks))
	}
	var union uint16
	total := 0
	for _, c := range chunks {
		if union&c != 0 {
			t.Fatal("chunks overlap")
		}
		union |= c
		total += bits.OnesCount16(c)
	}
	if union != 0xFFFF || total != 16 {
		t.Fatalf("chunks do not partition the mask: union=%#x total=%d", union, total)
	}
	if splitMaskByBits(0, 3) != nil {
		t.Error("empty mask should produce no chunks")
	}
}

func TestStaticLayoutArithmetic(t *testing.T) {
	// Default regime: 16 cells x current 2 = 32 = budget -> 1 unit/slot.
	lay := newStaticLayout(16, 2, 32)
	if lay.unitsPerSlot != 1 || lay.slotsPerUnit != 1 || lay.slots(8) != 8 {
		t.Errorf("conventional layout = %+v, slots(8)=%d", lay, lay.slots(8))
	}
	// FNW regime: 8 cells x 2 = 16 -> 2 units/slot -> 4 slots.
	lay = newStaticLayout(8, 2, 32)
	if lay.unitsPerSlot != 2 || lay.slots(8) != 4 {
		t.Errorf("fnw layout = %+v, slots(8)=%d", lay, lay.slots(8))
	}
	// Stage-1 regime: 8 cells x 1 = 8 -> 4 units/slot -> 2 slots.
	lay = newStaticLayout(8, 1, 32)
	if lay.unitsPerSlot != 4 || lay.slots(8) != 2 {
		t.Errorf("stage1 layout = %+v, slots(8)=%d", lay, lay.slots(8))
	}
	// Split regime: 16 cells x 2 = 32 > budget 8 -> 4 cells/slot, 4
	// slots/unit, 32 slots total.
	lay = newStaticLayout(16, 2, 8)
	if lay.slotsPerUnit != 4 || lay.capBits != 4 || lay.slots(8) != 32 {
		t.Errorf("split layout = %+v, slots(8)=%d", lay, lay.slots(8))
	}
	if lay.firstSlot(2) != 8 {
		t.Errorf("firstSlot(2) = %d, want 8", lay.firstSlot(2))
	}
}

func BenchmarkPlanWrite(b *testing.B) {
	par := strictParams()
	rng := rand.New(rand.NewSource(9))
	old := make([]byte, par.LineBytes)
	new := make([]byte, par.LineBytes)
	rng.Read(old)
	copy(new, old)
	mutate(rng, new, 10)
	for _, tc := range factories {
		b.Run(tc.name, func(b *testing.B) {
			s := tc.f(par)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				plan := s.PlanWrite(pcm.LineAddr(i%1024), old, new)
				_ = plan.ServiceTime()
			}
		})
	}
}

// TestPulseSize pins the Pulse record at 32 bytes: every pass over a
// plan's pulses (emission, sorting, Plan.Counts, the power oracle) moves
// this many bytes per record.
func TestPulseSize(t *testing.T) {
	if n := unsafe.Sizeof(Pulse{}); n != 32 {
		t.Fatalf("unsafe.Sizeof(Pulse{}) = %d bytes, want 32", n)
	}
}
