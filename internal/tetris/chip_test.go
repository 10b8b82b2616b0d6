package tetris

import (
	"math"
	"math/rand"
	"testing"

	"tetriswrite/internal/bitutil"
	"tetriswrite/internal/pcm"
	"tetriswrite/internal/schemes"
)

// chipParams returns a single-x16-chip configuration: 16-byte lines, no
// GCP (one chip has nothing to share with).
func chipParams() pcm.Params {
	p := pcm.DefaultParams()
	p.NumChips = 1
	p.LineBytes = 16
	p.GlobalChargePump = false
	return p
}

func TestNewValidation(t *testing.T) {
	p := chipParams()
	p.ChipWidthBits = 8
	p.LineBytes = 8
	if _, err := newChip(p); err == nil {
		t.Error("x8 part accepted by the x16 structural model")
	}
	p = chipParams()
	p.LineBytes = 0
	if _, err := newChip(p); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestReadPathTiming(t *testing.T) {
	c, err := newChip(chipParams())
	if err != nil {
		t.Fatal(err)
	}
	r := c.Read()
	// 2 (GYDEC) + 40 (50ns at 1.25ns ticks) + 2 (DOUT) + 16 (burst).
	if r.Ticks != 60 {
		t.Errorf("read ticks = %d, want 60", r.Ticks)
	}
	for _, b := range r.Data {
		if b != 0 {
			t.Fatal("fresh chip reads nonzero")
		}
	}
}

// structuralPair drives the structural datapath and the behavioral
// Tetris scheme with the same write stream.
type structuralPair struct {
	par  pcm.Params
	chip *Chip
	beh  schemes.Scheme
	old  []byte
}

func newStructuralPair(t testing.TB, par pcm.Params) *structuralPair {
	c, err := newChip(par)
	if err != nil {
		t.Fatal(err)
	}
	return &structuralPair{par: par, chip: c, beh: New(par), old: make([]byte, 16)}
}

// write applies one 16-byte write to both models and checks that they
// agree: same stored logical data, same slot dimensions (write units),
// same pulse counts, and a schedule within the chip budget.
func (p *structuralPair) write(t testing.TB, step int, next []byte) {
	t.Helper()
	plan := p.beh.PlanWrite(0, p.old, next)
	st := p.chip.Stats()
	pulsesBefore := st.SetPulses + st.ResetPulses
	res, err := p.chip.Write(next)
	if err != nil {
		t.Fatalf("step %d: %v", step, err)
	}

	// Same logical contents.
	if bitutil.HammingBytes(p.chip.Logical(), next) != 0 {
		t.Fatalf("step %d: structural chip stores wrong data", step)
	}

	// Same write-unit dimensions (Equation 5 metric).
	structWU := float64(res.Result) + float64(res.SubResult)/float64(p.par.K())
	if math.Abs(structWU-plan.WriteUnits()) > 1e-9 {
		t.Fatalf("step %d: structural %.3f write units, behavioral %.3f",
			step, structWU, plan.WriteUnits())
	}

	// Same pulse counts.
	bs, br := plan.Counts()
	st = p.chip.Stats()
	gotPulses := st.SetPulses + st.ResetPulses - pulsesBefore
	if gotPulses != int64(bs+br) {
		t.Fatalf("step %d: structural pulsed %d cells, behavioral %d",
			step, gotPulses, bs+br)
	}
	if st.PeakCurrent > p.par.ChipBudget {
		t.Fatalf("step %d: peak current %d exceeded budget %d", step, st.PeakCurrent, p.par.ChipBudget)
	}
	copy(p.old, next)
}

// TestStructuralBehavioralEquivalence drives identical random write
// sequences through the structural datapath and the behavioral Tetris
// scheme and checks them against each other write by write.
func TestStructuralBehavioralEquivalence(t *testing.T) {
	p := newStructuralPair(t, chipParams())
	rng := rand.New(rand.NewSource(77))
	next := make([]byte, 16)
	for step := 0; step < 400; step++ {
		copy(next, p.old)
		switch step % 4 {
		case 0:
			for i := 0; i < 1+rng.Intn(6); i++ {
				b := rng.Intn(128)
				next[b/8] ^= 1 << (b % 8)
			}
		case 1:
			rng.Read(next)
		case 2:
			for i := range next {
				next[i] = ^p.old[i]
			}
		case 3: // silent
		}
		p.write(t, step, next)
	}
	if p.chip.Stats().PeakCurrent == 0 {
		t.Fatal("no current ever drawn")
	}
}

// FuzzStructuralEquivalence runs the structural datapath and the
// behavioral scheme on an arbitrary write stream: the input split into
// 16-byte writes (a trailing partial write is dropped).
func FuzzStructuralEquivalence(f *testing.F) {
	f.Add(make([]byte, 16))
	f.Add([]byte("\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff" +
		"\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x01"))
	f.Add([]byte("0123456789abcdef\xcf\xce\xcd\xcc\xcb\xca\xc9\xc8\xc7\xc6\x9e\x9d\x9c\x9b\x9a\x99"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64*16 {
			data = data[:64*16]
		}
		p := newStructuralPair(t, chipParams())
		for step := 0; (step+1)*16 <= len(data); step++ {
			p.write(t, step, data[step*16:(step+1)*16])
		}
	})
}

func TestWriteValidation(t *testing.T) {
	c, _ := newChip(chipParams())
	if _, err := c.Write(make([]byte, 8)); err == nil {
		t.Error("short write accepted")
	}
}

func TestWriteTickBudgetNeverExceeded(t *testing.T) {
	// Tiny budget: the packer must serialize and the sweep must stay
	// within budget for every random write.
	par := chipParams()
	par.ChipBudget = 6
	c, err := newChip(par)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	next := make([]byte, 16)
	for step := 0; step < 100; step++ {
		rng.Read(next)
		if _, err := c.Write(next); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	if c.Stats().PeakCurrent > par.ChipBudget {
		t.Fatalf("peak %d > budget %d", c.Stats().PeakCurrent, par.ChipBudget)
	}
}

func TestStatsAccumulate(t *testing.T) {
	c, _ := newChip(chipParams())
	data := make([]byte, 16)
	data[0] = 0xFF
	if _, err := c.Write(data); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Writes != 1 || st.SetPulses == 0 {
		t.Errorf("stats = %+v", st)
	}
	c.Read()
	if c.Stats().Reads != 1 {
		t.Error("read not counted")
	}
}
