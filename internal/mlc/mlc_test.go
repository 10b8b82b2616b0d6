package mlc

import (
	"math/rand"
	"testing"

	"tetriswrite/internal/units"
)

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultParams()
	bad.MinIter = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero MinIter accepted")
	}
	bad = DefaultParams()
	bad.MaxIter = bad.MinIter - 1
	if err := bad.Validate(); err == nil {
		t.Error("inverted iteration bounds accepted")
	}
	bad = DefaultParams()
	bad.TPartial = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero partial pulse accepted")
	}
}

func TestWriteReadBack(t *testing.T) {
	arr, err := NewArray(DefaultParams(), 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		lvl := Level(i % 4)
		if _, err := arr.Write(i, lvl); err != nil {
			t.Fatal(err)
		}
		if got := arr.Read(i); got != lvl {
			t.Errorf("cell %d = %d, want %d", i, got, lvl)
		}
	}
	if _, err := arr.Write(0, 4); err == nil {
		t.Error("level 4 accepted")
	}
	if _, err := arr.Write(99, 0); err == nil {
		t.Error("out-of-range cell accepted")
	}
}

func TestExtremeLevelsAreSinglePulse(t *testing.T) {
	par := DefaultParams()
	arr, _ := NewArray(par, 4)
	t0, _ := arr.Write(0, 0)
	if t0 != par.TReset {
		t.Errorf("level 0 took %v, want TReset", t0)
	}
	t3, _ := arr.Write(1, 3)
	if t3 != par.TSet {
		t.Errorf("level 3 took %v, want TSet", t3)
	}
	if arr.Stats().PartialPulses != 0 {
		t.Error("extreme levels used partial pulses")
	}
}

func TestIntermediateLevelsUsePV(t *testing.T) {
	par := DefaultParams()
	arr, _ := NewArray(par, 64)
	var min, max units.Duration
	for i := 0; i < 64; i++ {
		d, _ := arr.Write(i, Level(1+i%2))
		if min == 0 || d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	// Bounds: RESET + MinIter..MaxIter x (partial + verify).
	lo := par.TReset + units.Duration(par.MinIter)*(par.TPartial+par.TVerify)
	hi := par.TReset + units.Duration(par.MaxIter)*(par.TPartial+par.TVerify)
	if min < lo || max > hi {
		t.Errorf("P&V times [%v, %v] outside model bounds [%v, %v]", min, max, lo, hi)
	}
	if min == max {
		t.Error("no per-cell variation in P&V iteration counts")
	}
	st := arr.Stats()
	if st.PartialPulses == 0 || st.Verifies != st.PartialPulses {
		t.Errorf("stats: %+v", st)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() units.Duration {
		arr, _ := NewArray(DefaultParams(), 32)
		var total units.Duration
		for i := 0; i < 32; i++ {
			d, _ := arr.Write(i, Level(i%4))
			total += d
		}
		return total
	}
	if run() != run() {
		t.Error("MLC programming nondeterministic")
	}
	// Different seed -> different variation draw.
	par := DefaultParams()
	par.Seed = 7
	arr, _ := NewArray(par, 32)
	var other units.Duration
	for i := 0; i < 32; i++ {
		d, _ := arr.Write(i, Level(i%4))
		other += d
	}
	if other == run() {
		t.Error("seed has no effect on variation")
	}
}

// TestCompareSLCShowsTheGap: the quantitative form of the paper's
// "we focus on SLC for its better write performance" — MLC stores the
// same bits in half the cells but takes substantially longer.
func TestCompareSLCShowsTheGap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	bits := make([]bool, 512)
	for i := range bits {
		bits[i] = rng.Intn(2) == 0
	}
	cmp, err := CompareSLC(DefaultParams(), bits)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.MLCCells != 256 || cmp.SLCCells != 512 {
		t.Errorf("cell counts: %+v", cmp)
	}
	if cmp.MLCTime <= cmp.SLCTime {
		t.Errorf("MLC (%v) not slower than SLC (%v); the SLC-focus rationale must hold",
			cmp.MLCTime, cmp.SLCTime)
	}
	ratio := float64(cmp.MLCTime) / float64(cmp.SLCTime)
	if ratio < 1.2 || ratio > 10 {
		t.Errorf("MLC/SLC ratio %.2f outside the plausible band", ratio)
	}
	if cmp.MLCPartial == 0 {
		t.Error("no P&V activity in the MLC path")
	}
}

func TestWritePairEncoding(t *testing.T) {
	arr, _ := NewArray(DefaultParams(), 4)
	cases := []struct {
		hi, lo bool
		want   Level
	}{
		{false, false, 0},
		{false, true, 1},
		{true, false, 2},
		{true, true, 3},
	}
	for i, c := range cases {
		if _, err := arr.WritePair(i, c.hi, c.lo); err != nil {
			t.Fatal(err)
		}
		if got := arr.Read(i); got != c.want {
			t.Errorf("pair (%v,%v) stored level %d, want %d", c.hi, c.lo, got, c.want)
		}
	}
}

// TestIterationsBounds checks the per-cell variation hash stays inside
// [MinIter, MaxIter] and actually varies across cells.
func TestIterationsBounds(t *testing.T) {
	par := DefaultParams()
	a, err := NewArray(par, 4096)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for i := 0; i < 4096; i++ {
		for _, lvl := range []Level{1, 2} {
			n := a.iterations(i, lvl)
			if n < par.MinIter || n > par.MaxIter {
				t.Fatalf("iterations(%d, %d) = %d outside [%d, %d]",
					i, lvl, n, par.MinIter, par.MaxIter)
			}
			seen[n] = true
		}
	}
	if len(seen) < 2 {
		t.Error("iteration hash shows no per-cell variation")
	}
}
