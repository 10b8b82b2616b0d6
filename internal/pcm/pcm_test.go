package pcm

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tetriswrite/internal/bitutil"
	"tetriswrite/internal/units"
)

func TestDefaultParamsValidate(t *testing.T) {
	p := DefaultParams()
	if err := p.Validate(); err != nil {
		t.Fatalf("DefaultParams does not validate: %v", err)
	}
}

func TestDefaultParamsDerived(t *testing.T) {
	p := DefaultParams()
	if got := p.WriteUnitBytes(); got != 8 {
		t.Errorf("WriteUnitBytes = %d, want 8", got)
	}
	if got := p.DataUnits(); got != 8 {
		t.Errorf("DataUnits = %d, want 8", got)
	}
	if got := p.K(); got != 8 {
		t.Errorf("K = %d, want 8 (430/53)", got)
	}
	if got := p.L(); got != 2 {
		t.Errorf("L = %d, want 2", got)
	}
	if got := p.BankBudget(); got != 128 {
		t.Errorf("BankBudget = %d, want 128", got)
	}
	if got := p.MaxConcurrentSets(); got != 32 {
		t.Errorf("MaxConcurrentSets = %d, want 32", got)
	}
	if got := p.MaxConcurrentResets(); got != 16 {
		t.Errorf("MaxConcurrentResets = %d, want 16", got)
	}
	if got := p.Lines(); got != (4<<30)/64 {
		t.Errorf("Lines = %d, want %d", got, (4<<30)/64)
	}
}

func TestParamsValidateRejectsBadConfigs(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Params)
	}{
		{"zero line", func(p *Params) { p.LineBytes = 0 }},
		{"zero chips", func(p *Params) { p.NumChips = 0 }},
		{"odd chip width", func(p *Params) { p.ChipWidthBits = 12 }},
		{"wide chip", func(p *Params) { p.ChipWidthBits = 32 }},
		{"zero banks", func(p *Params) { p.NumBanks = 0 }},
		{"zero capacity", func(p *Params) { p.CapacityBytes = 0 }},
		{"zero tread", func(p *Params) { p.TRead = 0 }},
		{"set faster than reset", func(p *Params) { p.TSet = p.TReset - 1 }},
		{"cset not unit", func(p *Params) { p.CurrentSet = 2 }},
		{"tiny budget", func(p *Params) { p.ChipBudget = 1 }},
		{"line not multiple of write unit", func(p *Params) { p.LineBytes = 60 }},
		{"capacity not line multiple", func(p *Params) { p.CapacityBytes = 100 }},
		{"no clock", func(p *Params) { p.MemClock = units.Clock{} }},
	}
	for _, m := range mutations {
		p := DefaultParams()
		m.mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid params", m.name)
		}
	}
}

func TestDeviceZeroFill(t *testing.T) {
	d := MustNewDevice(DefaultParams())
	buf := make([]byte, 64)
	for i := range buf {
		buf[i] = 0xFF
	}
	d.ReadLine(42, buf)
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("fresh line byte %d = %#x, want 0", i, b)
		}
	}
}

func TestDeviceWriteReadRoundTrip(t *testing.T) {
	d := MustNewDevice(DefaultParams())
	rng := rand.New(rand.NewSource(7))
	want := make([]byte, 64)
	rng.Read(want)
	d.WriteLine(99, want)
	got := make([]byte, 64)
	d.ReadLine(99, got)
	if bitutil.HammingBytes(want, got) != 0 {
		t.Fatal("read back differs from written data")
	}
}

func TestDevicePulseAccounting(t *testing.T) {
	d := MustNewDevice(DefaultParams())
	line := make([]byte, 64)
	line[0] = 0x0F // 4 sets from the all-zero state
	sets, resets := d.WriteLine(0, line)
	if sets != 4 || resets != 0 {
		t.Fatalf("first write: sets=%d resets=%d, want 4, 0", sets, resets)
	}
	line[0] = 0xF1 // 0x0F -> 0xF1: sets bits 4..7 (4), resets bits 1..3 (3)
	sets, resets = d.WriteLine(0, line)
	if sets != 4 || resets != 3 {
		t.Fatalf("second write: sets=%d resets=%d, want 4, 3", sets, resets)
	}
	st := d.Stats()
	if st.LineWrites != 2 || st.BitSets != 8 || st.BitResets != 3 {
		t.Fatalf("stats = %+v, want 2 writes, 8 sets, 3 resets", st)
	}
	if st.BitsWritten != 11 {
		t.Fatalf("BitsWritten = %d, want 11", st.BitsWritten)
	}
	if st.BitsSkipped != 2*64*8-11 {
		t.Fatalf("BitsSkipped = %d, want %d", st.BitsSkipped, 2*64*8-11)
	}
}

// Property: for any sequence of writes, pulse counts per write equal the
// Hamming distance between old and new contents, and the device always
// stores the last write.
func TestDevicePulsesMatchHamming(t *testing.T) {
	d := MustNewDevice(DefaultParams())
	prev := make([]byte, 64)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		next := make([]byte, 64)
		rng.Read(next)
		wantPulses := bitutil.HammingBytes(prev, next)
		sets, resets := d.WriteLine(5, next)
		if sets+resets != wantPulses {
			return false
		}
		got := make([]byte, 64)
		d.PeekLine(5, got)
		if bitutil.HammingBytes(got, next) != 0 {
			return false
		}
		copy(prev, next)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDeviceAddressRangePanics(t *testing.T) {
	d := MustNewDevice(DefaultParams())
	buf := make([]byte, 64)
	for _, addr := range []LineAddr{-1, LineAddr(d.Params().Lines())} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("addr %d: expected panic", addr)
				}
			}()
			d.ReadLine(addr, buf)
		}()
	}
}

func TestDeviceTouchedLines(t *testing.T) {
	d := MustNewDevice(DefaultParams())
	line := make([]byte, 64)
	line[0] = 1
	d.WriteLine(1, line)
	d.WriteLine(2, line)
	d.WriteLine(1, line)
	if got := d.TouchedLines(); got != 2 {
		t.Errorf("TouchedLines = %d, want 2", got)
	}
}

func TestEnergyModelDefaults(t *testing.T) {
	p := DefaultParams()
	m := EnergyModelFor(p)
	if m.SetEnergy != 430 {
		t.Errorf("SetEnergy = %v, want 430 (1 x 430ns)", m.SetEnergy)
	}
	if m.ResetEnergy != 106 {
		t.Errorf("ResetEnergy = %v, want 106 (2 x 53ns)", m.ResetEnergy)
	}
	if got := m.WriteEnergy(2, 3); got != 2*430+3*106 {
		t.Errorf("WriteEnergy(2,3) = %v, want %v", got, 2*430+3*106)
	}
	worst := m.WorstCaseLineEnergy(p)
	if worst != 430*512 {
		t.Errorf("WorstCaseLineEnergy = %v, want %v", worst, 430*512)
	}
}

func TestEnergyTotalMatchesStats(t *testing.T) {
	p := DefaultParams()
	m := EnergyModelFor(p)
	s := DeviceStats{BitSets: 10, BitResets: 4}
	if got := m.TotalEnergy(s); got != 10*430+4*106 {
		t.Errorf("TotalEnergy = %v", got)
	}
}

func TestWearTracker(t *testing.T) {
	w := NewWearTracker()
	w.Record(1, 5)
	w.Record(1, 3)
	w.Record(2, 10)
	w.Record(3, 0) // no-op
	s := w.Summary()
	if s.TotalBitWrites != 18 {
		t.Errorf("TotalBitWrites = %d, want 18", s.TotalBitWrites)
	}
	if s.TouchedLines != 2 {
		t.Errorf("TouchedLines = %d, want 2", s.TouchedLines)
	}
	if s.MaxLineWear != 10 {
		t.Errorf("MaxLineWear = %d, want 10", s.MaxLineWear)
	}
	if s.MeanLineWear != 9 {
		t.Errorf("MeanLineWear = %v, want 9", s.MeanLineWear)
	}
	if w.LineWear(1) != 8 {
		t.Errorf("LineWear(1) = %d, want 8", w.LineWear(1))
	}
}

// Devices of independent simulations run on different goroutines in a
// parallel sweep. Under the single-writer contract each Device is owned
// by one goroutine, so the package must hold no shared mutable state:
// -race checks that, and every device counts only its own writes.
func TestDeviceConcurrency(t *testing.T) {
	devs := make([]*Device, 4)
	done := make(chan struct{})
	for g := range devs {
		devs[g] = MustNewDevice(DefaultParams())
		go func(d *Device, g int) {
			defer func() { done <- struct{}{} }()
			buf := make([]byte, 64)
			for i := 0; i < 100; i++ {
				buf[0] = byte(i)
				d.WriteLine(LineAddr(g), buf)
				d.ReadLine(LineAddr(g), buf)
			}
		}(devs[g], g)
	}
	for range devs {
		<-done
	}
	for g, d := range devs {
		if got := d.Stats().LineWrites; got != 100 {
			t.Errorf("device %d: LineWrites = %d, want 100", g, got)
		}
	}
}

func TestPreloadAndAttachWear(t *testing.T) {
	d := MustNewDevice(DefaultParams())
	// Preload installs contents without stats.
	img := make([]byte, 64)
	img[0] = 0x42
	d.Preload(7, img)
	buf := make([]byte, 64)
	d.PeekLine(7, buf)
	if buf[0] != 0x42 {
		t.Fatal("Preload did not install contents")
	}
	if d.Stats().LineWrites != 0 {
		t.Error("Preload produced stats")
	}
	// nil preload is a no-op.
	d.Preload(8, nil)
	// Size mismatch panics.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("short Preload did not panic")
			}
		}()
		d.Preload(9, []byte{1})
	}()
}

func TestNewDeviceRejectsBadParams(t *testing.T) {
	p := DefaultParams()
	p.LineBytes = 0
	if _, err := NewDevice(p); err == nil {
		t.Error("invalid params accepted")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustNewDevice did not panic")
			}
		}()
		MustNewDevice(p)
	}()
}

func TestPeekLineSizeMismatchPanics(t *testing.T) {
	d := MustNewDevice(DefaultParams())
	defer func() {
		if recover() == nil {
			t.Error("short PeekLine buffer did not panic")
		}
	}()
	d.PeekLine(0, make([]byte, 8))
}

func TestKFloorsAtOne(t *testing.T) {
	p := DefaultParams()
	p.TReset = p.TSet // degenerate: no time asymmetry
	if got := p.K(); got != 1 {
		t.Errorf("K = %d, want 1", got)
	}
}

func TestWorstCaseEnergyResetDominant(t *testing.T) {
	// If RESET were the pricier pulse, the worst case uses it.
	m := EnergyModel{SetEnergy: 10, ResetEnergy: 20}
	p := DefaultParams()
	if got := m.WorstCaseLineEnergy(p); got != 20*512 {
		t.Errorf("WorstCaseLineEnergy = %v, want %v", got, 20*512)
	}
}
