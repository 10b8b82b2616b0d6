package tetris

import (
	"math/rand"
	"testing"

	"tetriswrite/internal/bitutil"
	"tetriswrite/internal/pcm"
	"tetriswrite/internal/schemes"
	"tetriswrite/internal/units"
)

// paperPacker returns the packer of the paper's chip-level example:
// budget 32, K = 8, SET current 1, RESET current 2.
func paperPacker() Packer {
	return Packer{Budget: 32, K: 8, Cost1: 1, Cost0: 2}
}

// TestPackerFigure4Example reproduces the worked example of the paper's
// Figure 4 / Section III.B: eight data units whose write-1 counts are
// 8,7,7,6,6,6,5,3 and write-0 counts 0,1,1,2,3,2,2,5 (in unit order
// 1..8). The paper schedules write-1s of units {1,2,3,4,8} in write unit
// 1 (8+7+7+6+3 = 31 < 32) and units {5,6,7} in write unit 2, and fits
// every write-0 into write unit 2's leftover current — two write units
// total, no extra sub-write-units.
func TestPackerFigure4Example(t *testing.T) {
	in1 := []int{8, 7, 7, 6, 6, 6, 5, 3}
	in0raw := []int{0, 1, 1, 2, 3, 2, 2, 5}
	in0 := make([]int, len(in0raw))
	for i, v := range in0raw {
		in0[i] = v * 2 // RESET current is twice SET current
	}
	pk := paperPacker()
	s := pk.Pack(in1, in0)
	if err := s.Validate(pk, in1, in0); err != nil {
		t.Fatalf("schedule invalid: %v", err)
	}
	if s.Result != 2 {
		t.Fatalf("result = %d, want 2", s.Result)
	}
	if s.SubResult != 0 {
		t.Fatalf("subresult = %d, want 0", s.SubResult)
	}
	if got := s.WriteUnits(); got != 2.0 {
		t.Fatalf("WriteUnits = %v, want 2.0", got)
	}
	// Units 1-4 and 8 (0-indexed 0-3, 7) in write unit 0; units 5-7
	// (0-indexed 4-6) in write unit 1.
	wantWU := []int{0, 0, 0, 0, 1, 1, 1, 0}
	for u, want := range wantWU {
		if len(s.Write1[u]) != 1 || s.Write1[u][0].Slot != want {
			t.Errorf("unit %d: write-1 allocs %v, want single alloc in WU %d", u+1, s.Write1[u], want)
		}
	}
	// All write-0s must have found gaps inside the two write units (no
	// overflow slots), and unit 1 (no resets) has no write-0 allocs.
	if len(s.Write0[0]) != 0 {
		t.Errorf("unit 1 has write-0 allocs %v, want none", s.Write0[0])
	}
	for u := 1; u < 8; u++ {
		for _, a := range s.Write0[u] {
			if a.Slot >= s.Result*s.K {
				t.Errorf("unit %d write-0 landed in overflow slot %d", u+1, a.Slot)
			}
		}
	}
}

// TestPackerProperties drives random inputs through the packer and checks
// the schedule invariants plus two optimality bounds: result is at least
// the current lower bound ceil(sum(in1)/budget), and at most one write
// unit is less than half full (a classic first-fit property).
func TestPackerProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(16)
		in1 := make([]int, n)
		in0 := make([]int, n)
		sum1 := 0
		for i := range in1 {
			in1[i] = rng.Intn(33) // 0..32 data sets per unit (bank level /4)
			in0[i] = rng.Intn(17) * 2
			sum1 += in1[i]
		}
		pk := paperPacker()
		s := pk.Pack(in1, in0)
		if err := s.Validate(pk, in1, in0); err != nil {
			t.Fatalf("trial %d: %v (in1=%v in0=%v)", trial, err, in1, in0)
		}
		lower := (sum1 + pk.Budget - 1) / pk.Budget
		if s.Result < lower {
			t.Fatalf("trial %d: result %d below lower bound %d", trial, s.Result, lower)
		}
		halfEmpty := 0
		load := make([]int, s.Result)
		for _, allocs := range s.Write1 {
			for _, a := range allocs {
				load[a.Slot] += a.Amount
			}
		}
		for _, l := range load {
			if l <= pk.Budget/2 {
				halfEmpty++
			}
		}
		if halfEmpty > 1 {
			t.Fatalf("trial %d: %d write units at most half full; first-fit should leave at most one", trial, halfEmpty)
		}
	}
}

// TestPackerZeroWork: a write with nothing to do produces an empty
// schedule.
func TestPackerZeroWork(t *testing.T) {
	pk := paperPacker()
	s := pk.Pack(make([]int, 8), make([]int, 8))
	if s.Result != 0 || s.SubResult != 0 {
		t.Errorf("empty pack: result=%d subresult=%d, want 0, 0", s.Result, s.SubResult)
	}
	if s.WriteUnits() != 0 {
		t.Errorf("WriteUnits = %v, want 0", s.WriteUnits())
	}
}

// TestPackerResetOnly: pure write-0 work uses only sub-write-units.
func TestPackerResetOnly(t *testing.T) {
	pk := paperPacker()
	in1 := make([]int, 4)
	in0 := []int{16, 16, 16, 16} // 8 resets each at cost 2
	s := pk.Pack(in1, in0)
	if err := s.Validate(pk, in1, in0); err != nil {
		t.Fatal(err)
	}
	if s.Result != 0 {
		t.Errorf("result = %d, want 0", s.Result)
	}
	// 16+16 = 32 fits one sub-slot; 4 units -> 2 overflow sub-slots.
	if s.SubResult != 2 {
		t.Errorf("subresult = %d, want 2", s.SubResult)
	}
}

// TestPackerSplitRegime: a unit whose need exceeds the whole budget is
// split across slots but still fully allocated in whole cells.
func TestPackerSplitRegime(t *testing.T) {
	pk := Packer{Budget: 8, K: 8, Cost1: 1, Cost0: 2}
	in1 := []int{9, 3} // unit 0 cannot fit any single write unit
	in0 := []int{18, 0}
	s := pk.Pack(in1, in0)
	if err := s.Validate(pk, in1, in0); err != nil {
		t.Fatal(err)
	}
	if len(s.Write1[0]) < 2 {
		t.Errorf("oversized unit not split: %v", s.Write1[0])
	}
	for _, a := range s.Write0[0] {
		if a.Amount%2 != 0 {
			t.Errorf("write-0 alloc %v not a whole number of cells", a)
		}
	}
}

// TestFFDNoWorseOnAverage compares first-fit-decreasing with arrival-order
// first-fit over many random instances: FFD must not use more write units
// on average (individual instances may go either way; the aggregate must
// favour the sort, which is why the paper sorts).
func TestFFDNoWorseOnAverage(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var ffd, ff float64
	for trial := 0; trial < 300; trial++ {
		in1 := make([]int, 8)
		in0 := make([]int, 8)
		for i := range in1 {
			in1[i] = rng.Intn(20)
			in0[i] = rng.Intn(10) * 2
		}
		a := Packer{Budget: 32, K: 8, Cost1: 1, Cost0: 2}
		b := a
		b.ArrivalOrder = true
		ffd += a.Pack(in1, in0).WriteUnits()
		ff += b.Pack(in1, in0).WriteUnits()
	}
	if ffd > ff+1e-9 {
		t.Errorf("FFD mean %.3f worse than arrival-order mean %.3f", ffd/300, ff/300)
	}
}

// schemeParams returns the paper's configuration (GCP on).
func schemeParams() pcm.Params { return pcm.DefaultParams() }

// TestTetrisWriteCorrectness: long random write sequences must produce
// valid plans that respect the bank budget and store correct data — with
// GCP on and off, with flip coding on and off, and under a tiny budget.
func TestTetrisWriteCorrectness(t *testing.T) {
	cases := []struct {
		name string
		par  func() pcm.Params
		opt  Options
	}{
		{"paper", schemeParams, Options{}},
		{"no-gcp", func() pcm.Params {
			p := schemeParams()
			p.GlobalChargePump = false
			return p
		}, Options{}},
		{"no-flip", schemeParams, Options{DisableFlip: true}},
		{"arrival-order", schemeParams, Options{ArrivalOrder: true}},
		{"tiny-budget", func() pcm.Params {
			p := schemeParams()
			p.ChipBudget = 8
			p.GlobalChargePump = false
			return p
		}, Options{}},
		{"tiny-budget-gcp", func() pcm.Params {
			p := schemeParams()
			p.ChipBudget = 4
			return p
		}, Options{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			par := tc.par()
			s := NewWithOptions(par, tc.opt)
			arr := schemes.NewArray(par)
			rng := rand.New(rand.NewSource(1234))
			old := make([]byte, par.LineBytes)
			want := make([]byte, par.LineBytes)
			const addr = pcm.LineAddr(5)
			for step := 0; step < 200; step++ {
				copy(want, old)
				switch step % 4 {
				case 0:
					for i := 0; i < 1+rng.Intn(10); i++ {
						b := rng.Intn(512)
						want[b/8] ^= 1 << (b % 8)
					}
				case 1:
					rng.Read(want)
				case 2:
					for i := range want {
						want[i] = ^old[i] // complement: stresses flip coding
					}
				case 3:
					// silent write
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

// TestTetrisEquationFive: the write phase must equal
// (result + subresult/K) x Tset for the schedule the packer produced.
// White-box: recompute the packing from the same inputs.
func TestTetrisEquationFive(t *testing.T) {
	par := schemeParams()
	s := NewWithOptions(par, Options{}).(*scheme)
	rng := rand.New(rand.NewSource(7))
	old := make([]byte, 64)
	new := make([]byte, 64)
	rng.Read(old)
	for trial := 0; trial < 100; trial++ {
		copy(new, old)
		for i := 0; i < rng.Intn(80); i++ {
			b := rng.Intn(512)
			new[b/8] ^= 1 << (b % 8)
		}
		plan := s.PlanWrite(9, old, new)
		// Write must decompose exactly into a*Tset + b*(Tset/K).
		k := units.Duration(par.K())
		pitch := par.TSet / k
		a := plan.Write / par.TSet
		rem := plan.Write % par.TSet
		if rem%pitch != 0 {
			t.Fatalf("trial %d: write phase %v is not a*Tset + b*pitch", trial, plan.Write)
		}
		b := rem / pitch
		if eq5 := units.Duration(a)*par.TSet + units.Duration(b)*pitch; eq5 != plan.Write {
			t.Fatalf("trial %d: Eq5 decomposition mismatch", trial)
		}
		copy(old, new)
	}
}

// TestTetrisBeatsStaticSchemes: on sparse writes (the paper's
// Observation 1: ~9.6 changed bits per 64-bit unit at most), Tetris must
// need at most 2 write units, beating Three-Stage-Write's 2.5, and must
// never exceed Flip-N-Write's 4 on any input.
func TestTetrisBeatsStaticSchemes(t *testing.T) {
	par := schemeParams()
	s := New(par)
	rng := rand.New(rand.NewSource(21))
	old := make([]byte, 64)
	new := make([]byte, 64)
	rng.Read(old)
	worst := 0.0
	for trial := 0; trial < 200; trial++ {
		copy(new, old)
		nbits := 1 + rng.Intn(15) // sparse: ~paper's average
		for i := 0; i < nbits; i++ {
			b := rng.Intn(512)
			new[b/8] ^= 1 << (b % 8)
		}
		plan := s.PlanWrite(2, old, new)
		wu := plan.WriteUnits()
		if wu > worst {
			worst = wu
		}
		if wu > 2.0 {
			t.Fatalf("trial %d: sparse write took %.3f write units, want <= 2", trial, wu)
		}
		copy(old, new)
	}
	// Dense random rewrites must still never exceed Flip-N-Write's 4.
	for trial := 0; trial < 100; trial++ {
		rng.Read(new)
		plan := s.PlanWrite(2, old, new)
		if wu := plan.WriteUnits(); wu > 4.0 {
			t.Fatalf("dense trial %d: %.3f write units, want <= 4", trial, wu)
		}
		copy(old, new)
	}
}

// TestTetrisAnalysisOverhead: the default analysis overhead is 41 memory
// cycles = 102.5 ns at 400 MHz, and the options can change or remove it.
func TestTetrisAnalysisOverhead(t *testing.T) {
	par := schemeParams()
	old := make([]byte, 64)
	new := make([]byte, 64)
	new[0] = 1
	def := New(par).PlanWrite(0, old, new)
	if want := units.Nanoseconds(102.5); def.Analysis != want {
		t.Errorf("default analysis = %v, want %v", def.Analysis, want)
	}
	none := NewWithOptions(par, Options{AnalysisCycles: -1}).PlanWrite(0, old, new)
	if none.Analysis != 0 {
		t.Errorf("AnalysisCycles -1: analysis = %v, want 0", none.Analysis)
	}
	ten := NewWithOptions(par, Options{AnalysisCycles: 10}).PlanWrite(0, old, new)
	if want := par.MemClock.Cycles(10); ten.Analysis != want {
		t.Errorf("AnalysisCycles 10: analysis = %v, want %v", ten.Analysis, want)
	}
	if def.Read != par.TRead {
		t.Errorf("read stage = %v, want %v", def.Read, par.TRead)
	}
}

// TestTetrisSilentWrite: writing identical data costs no write units.
func TestTetrisSilentWrite(t *testing.T) {
	par := schemeParams()
	s := New(par)
	line := make([]byte, 64)
	for i := range line {
		line[i] = 0x3C
	}
	first := s.PlanWrite(1, make([]byte, 64), line)
	if first.Write == 0 {
		t.Fatal("first write should program cells")
	}
	silent := s.PlanWrite(1, line, line)
	if silent.Write != 0 {
		t.Errorf("silent write phase = %v, want 0", silent.Write)
	}
	if len(silent.Pulses) != 0 {
		t.Errorf("silent write has %d pulses, want 0", len(silent.Pulses))
	}
	// But it still pays the read and analysis overheads.
	if silent.ServiceTime() != par.TRead+silent.Analysis {
		t.Errorf("silent service = %v, want read+analysis", silent.ServiceTime())
	}
}

// TestExecuteFSMs replays random schedules through the FSM model and
// checks launch times against the analysis stage's slot arithmetic.
func TestExecuteFSMs(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	tset := 430 * units.Nanosecond
	pitch := tset / 8
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(10)
		in1 := make([]int, n)
		in0 := make([]int, n)
		for i := range in1 {
			in1[i] = rng.Intn(33)
			in0[i] = rng.Intn(17) * 2
		}
		pk := paperPacker()
		s := pk.Pack(in1, in0)
		ex := ExecuteFSMs(s, tset, pitch)
		if err := ex.CheckAgainst(s, tset, pitch); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := units.Duration(s.Result)*tset + units.Duration(s.SubResult)*pitch
		if ex.Finish != want {
			t.Fatalf("trial %d: finish %v, want %v", trial, ex.Finish, want)
		}
		// FSM1 launches must be time-ordered (the queue is walked once).
		for i := 1; i < len(ex.Write1); i++ {
			if ex.Write1[i].At < ex.Write1[i-1].At {
				t.Fatalf("trial %d: FSM1 launches out of order", trial)
			}
		}
		for i := 1; i < len(ex.Write0); i++ {
			if ex.Write0[i].At < ex.Write0[i-1].At {
				t.Fatalf("trial %d: FSM0 launches out of order", trial)
			}
		}
	}
}

// TestExecuteFSMsEmpty: an empty schedule finishes immediately.
func TestExecuteFSMsEmpty(t *testing.T) {
	pk := paperPacker()
	s := pk.Pack(make([]int, 4), make([]int, 4))
	ex := ExecuteFSMs(s, 430*units.Nanosecond, 430*units.Nanosecond/8)
	if ex.Finish != 0 || len(ex.Write1) != 0 || len(ex.Write0) != 0 {
		t.Errorf("empty schedule executed work: %+v", ex)
	}
}

// TestDriveGating: the write driver pulses exactly the cells whose stored
// value differs AND whose target matches the write signal.
func TestDriveGating(t *testing.T) {
	in := DriverInput{
		Stored:   0b1100_1010,
		Incoming: 0b1010_1100,
		Signal:   schemes.Set,
	}
	out := Drive(in)
	wantProg := in.Stored ^ in.Incoming
	if out.ProgEnable != wantProg {
		t.Errorf("ProgEnable = %#b, want %#b", out.ProgEnable, wantProg)
	}
	tr := bitutil.Transition16(in.Stored, in.Incoming)
	if out.Pulsed != tr.Sets {
		t.Errorf("SET pulse mask = %#b, want %#b", out.Pulsed, tr.Sets)
	}
	in.Signal = schemes.Reset
	out = Drive(in)
	if out.Pulsed != tr.Resets {
		t.Errorf("RESET pulse mask = %#b, want %#b", out.Pulsed, tr.Resets)
	}
}

// TestDriveProperty: for any stored/incoming pair, applying the SET mask
// then the RESET mask yields the incoming word, and no unchanged cell is
// ever pulsed.
func TestDriveProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 1000; trial++ {
		stored := uint16(rng.Uint32())
		incoming := uint16(rng.Uint32())
		set := Drive(DriverInput{Stored: stored, Incoming: incoming, Signal: schemes.Set})
		reset := Drive(DriverInput{Stored: stored, Incoming: incoming, Signal: schemes.Reset})
		if set.Pulsed&^(stored^incoming) != 0 || reset.Pulsed&^(stored^incoming) != 0 {
			t.Fatal("driver pulsed an unchanged cell")
		}
		got := (stored | set.Pulsed) &^ reset.Pulsed
		if got != incoming {
			t.Fatalf("driver result %#x, want %#x", got, incoming)
		}
	}
}

// TestDriveFlipCell: the flip cell obeys the same gating.
func TestDriveFlipCell(t *testing.T) {
	out := Drive(DriverInput{StoredFlip: false, IncomingFlip: true, Signal: schemes.Set})
	if !out.FlipPulsed {
		t.Error("flip cell 0->1 not pulsed on SET")
	}
	out = Drive(DriverInput{StoredFlip: false, IncomingFlip: true, Signal: schemes.Reset})
	if out.FlipPulsed {
		t.Error("flip cell 0->1 pulsed on RESET")
	}
	out = Drive(DriverInput{StoredFlip: true, IncomingFlip: true, Signal: schemes.Set})
	if out.FlipPulsed {
		t.Error("unchanged flip cell pulsed")
	}
}

// TestReadStage covers Algorithm 1 corner cases.
func TestReadStage(t *testing.T) {
	// Dense change: must flip.
	uc := ReadStage(bitutil.FlipWord{Bits: 0}, 0xFFFF, 16, false)
	if !uc.Enc.Flip || !uc.FlipSet || uc.Tr.NumChanged() != 0 {
		t.Errorf("complement write should cost only the flip cell: %+v", uc)
	}
	// Sparse change: no flip.
	uc = ReadStage(bitutil.FlipWord{Bits: 0}, 0x0001, 16, false)
	if uc.Enc.Flip || uc.N1() != 1 || uc.N0() != 0 {
		t.Errorf("sparse write wrong: %+v", uc)
	}
	// Flip disabled while the stored word was flipped: must rewrite
	// direct and clear the flip cell.
	uc = ReadStage(bitutil.FlipWord{Bits: 0xFFFE, Flip: true}, 0x0001, 16, true)
	if uc.Enc.Flip {
		t.Error("DisableFlip produced a flipped encoding")
	}
	if !uc.FlipReset {
		t.Error("DisableFlip did not clear a set flip cell")
	}
	if got := uc.Enc.Logical(); got != 0x0001 {
		t.Errorf("encoding stores %#x, want 0x0001", got)
	}
}

// TestRegFile checks the register-field bounds.
func TestRegFile(t *testing.T) {
	r := NewRegFile(8, 8)
	if err := r.Latch(0, 8, 3); err != nil {
		t.Errorf("valid latch rejected: %v", err)
	}
	if r.N1(0) != 8 || r.N0(0) != 3 {
		t.Error("latched counts wrong")
	}
	if err := r.Latch(0, 9, 0); err == nil {
		t.Error("over-wide count accepted")
	}
	if err := r.Latch(8, 0, 0); err == nil {
		t.Error("out-of-range unit accepted")
	}
	wide := NewRegFile(8, 16)
	if err := wide.Latch(1, 16, 16); err != nil {
		t.Errorf("wide register rejected valid count: %v", err)
	}
}

// TestTetrisDeterminism: identical writes plan identically.
func TestTetrisDeterminism(t *testing.T) {
	par := schemeParams()
	rng := rand.New(rand.NewSource(44))
	old := make([]byte, 64)
	new := make([]byte, 64)
	rng.Read(old)
	rng.Read(new)
	p1 := New(par).PlanWrite(0, old, new)
	p2 := New(par).PlanWrite(0, old, new)
	if len(p1.Pulses) != len(p2.Pulses) || p1.ServiceTime() != p2.ServiceTime() {
		t.Fatal("nondeterministic plan")
	}
	for i := range p1.Pulses {
		if p1.Pulses[i] != p2.Pulses[i] {
			t.Fatalf("pulse %d differs", i)
		}
	}
}

func BenchmarkTetrisPlanWrite(b *testing.B) {
	par := schemeParams()
	s := New(par)
	rng := rand.New(rand.NewSource(3))
	old := make([]byte, 64)
	new := make([]byte, 64)
	rng.Read(old)
	copy(new, old)
	for i := 0; i < 10; i++ {
		bit := rng.Intn(512)
		new[bit/8] ^= 1 << (bit % 8)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		plan := s.PlanWrite(pcm.LineAddr(i%512), old, new)
		_ = plan.ServiceTime()
	}
}

func BenchmarkPack(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	in1 := make([]int, 8)
	in0 := make([]int, 8)
	for i := range in1 {
		in1[i] = rng.Intn(33)
		in0[i] = rng.Intn(17) * 2
	}
	pk := paperPacker()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := pk.Pack(in1, in0)
		_ = s.WriteUnits()
	}
}

// TestGCPNeverHurts: bank-wide budget sharing can only help packing, for
// any content, because any per-chip-feasible schedule is bank-feasible.
// (The converse direction is the GCP ablation's gain.)
func TestGCPNeverHurts(t *testing.T) {
	gcpPar := schemeParams()
	chipPar := schemeParams()
	chipPar.GlobalChargePump = false
	gcp := New(gcpPar)
	perChip := New(chipPar)
	rng := rand.New(rand.NewSource(17))
	old := make([]byte, 64)
	new := make([]byte, 64)
	rng.Read(old)
	for trial := 0; trial < 200; trial++ {
		copy(new, old)
		for i := 0; i < rng.Intn(60); i++ {
			b := rng.Intn(512)
			new[b/8] ^= 1 << (b % 8)
		}
		g := gcp.PlanWrite(1, old, new).WriteUnits()
		c := perChip.PlanWrite(1, old, new).WriteUnits()
		if g > c+1e-9 {
			t.Fatalf("trial %d: GCP packing %.3f worse than per-chip %.3f", trial, g, c)
		}
		copy(old, new)
	}
}

func TestPackerGuardsImpossibleBudget(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("budget below per-cell current did not panic")
		}
	}()
	pk := Packer{Budget: 1, K: 8, Cost1: 1, Cost0: 2}
	pk.Pack([]int{0}, []int{2})
}

// Steady-state Tetris planning must be allocation-free: scratch arenas
// carry the packing state and recycled plans supply the pulse buffer.
// Every pulse-order configuration is covered: each geometry and option
// sizes its scratch differently.
func TestTetrisPlanWriteZeroAllocsSteadyState(t *testing.T) {
	for _, c := range orderConfigs() {
		t.Run(c.name, func(t *testing.T) {
			s := NewWithOptions(c.par, c.opt)
			rec := s.(schemes.PlanRecycler)
			old := make([]byte, c.par.LineBytes)
			data := make([]byte, c.par.LineBytes)
			for i := range data {
				data[i] = byte(i * 37)
			}
			addr := pcm.LineAddr(5)
			for i := 0; i < 4; i++ {
				rec.RecyclePlan(s.PlanWrite(addr, old, data))
			}
			allocs := testing.AllocsPerRun(100, func() {
				rec.RecyclePlan(s.PlanWrite(addr, old, data))
			})
			if allocs != 0 {
				t.Fatalf("tetris PlanWrite allocates %v objects/op in steady state, want 0", allocs)
			}
		})
	}
}
