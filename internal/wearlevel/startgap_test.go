package wearlevel

import (
	"math/rand"
	"testing"

	"tetriswrite/internal/memctrl"
	"tetriswrite/internal/pcm"
	"tetriswrite/internal/schemes"
	"tetriswrite/internal/sim"
	"tetriswrite/internal/units"
)

// refModel is an explicit-table Start-Gap: it performs the same gap
// moves by physically shuffling a slot array, serving as the oracle for
// the O(1) register formula.
type refModel struct {
	slots []int64 // physical slot -> logical line (-1 = gap)
}

func newRefModel(n int64) *refModel {
	m := &refModel{slots: make([]int64, n+1)}
	for i := range m.slots {
		m.slots[i] = int64(i)
	}
	m.slots[n] = -1
	return m
}

func (m *refModel) apply(mv Move) {
	if m.slots[mv.To] != -1 {
		panic("ref: move target is not the gap")
	}
	m.slots[mv.To] = m.slots[mv.From]
	m.slots[mv.From] = -1
}

func (m *refModel) physOf(logical int64) int64 {
	for p, l := range m.slots {
		if l == logical {
			return int64(p)
		}
	}
	panic("ref: line lost")
}

// TestStartGapMatchesReferenceModel: the register formula and the
// explicit table agree across many full rotations, for several region
// sizes.
func TestStartGapMatchesReferenceModel(t *testing.T) {
	for _, n := range []int64{1, 2, 3, 7, 16, 33} {
		sg, err := NewStartGap(n, 1) // move on every write: fastest churn
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefModel(n)
		for step := 0; step < int(4*(n+1)*n+10); step++ {
			if mv, ok := sg.OnWrite(); ok {
				ref.apply(mv)
			}
			for l := int64(0); l < n; l++ {
				if got, want := sg.Map(l), ref.physOf(l); got != want {
					t.Fatalf("n=%d step=%d: Map(%d) = %d, reference %d (gap=%d)",
						n, step, l, got, want, sg.Gap())
				}
			}
		}
	}
}

// TestStartGapMappingIsBijective at every step.
func TestStartGapMappingIsBijective(t *testing.T) {
	const n = 12
	sg, _ := NewStartGap(n, 1)
	for step := 0; step < 200; step++ {
		seen := map[int64]bool{}
		for l := int64(0); l < n; l++ {
			p := sg.Map(l)
			if p < 0 || p > n {
				t.Fatalf("step %d: physical %d out of range", step, p)
			}
			if p == sg.Gap() {
				t.Fatalf("step %d: line %d mapped onto the gap", step, l)
			}
			if seen[p] {
				t.Fatalf("step %d: physical %d used twice", step, p)
			}
			seen[p] = true
		}
		sg.OnWrite()
	}
}

func TestStartGapPsi(t *testing.T) {
	sg, _ := NewStartGap(8, 5)
	moves := 0
	for i := 0; i < 50; i++ {
		if _, ok := sg.OnWrite(); ok {
			moves++
		}
	}
	if moves != 10 {
		t.Errorf("50 writes at psi=5: %d moves, want 10", moves)
	}
	if sg.Moves() != 10 {
		t.Errorf("Moves() = %d", sg.Moves())
	}
}

func TestStartGapValidation(t *testing.T) {
	if _, err := NewStartGap(0, 1); err == nil {
		t.Error("zero-line region accepted")
	}
	if _, err := NewStartGap(4, 0); err == nil {
		t.Error("zero psi accepted")
	}
	sg, _ := NewStartGap(4, 1)
	for _, bad := range []int64{-1, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Map(%d) did not panic", bad)
				}
			}()
			sg.Map(bad)
		}()
	}
}

func TestRegionTranslate(t *testing.T) {
	reg, err := NewRegion(100, 8, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Outside the region: identity.
	if got := reg.Translate(50); got != 50 {
		t.Errorf("outside address translated: %d", got)
	}
	if got := reg.Translate(200); got != 200 {
		t.Errorf("outside address translated: %d", got)
	}
	// Inside: stays within the physical window [100, 109).
	for l := pcm.LineAddr(100); l < 108; l++ {
		p := reg.Translate(l)
		if p < 100 || p > 108 {
			t.Errorf("Translate(%d) = %d outside physical window", l, p)
		}
	}
}

// TestRemapperEndToEnd runs random traffic through remapper + controller
// with aggressive gap movement and verifies reads always return the
// latest written data, and that wear actually spreads.
func TestRemapperEndToEnd(t *testing.T) {
	eng := &sim.Engine{}
	dev := pcm.MustNewDevice(pcm.DefaultParams())
	ctrl := memctrl.New(eng, dev, schemes.NewDCW, memctrl.Config{OpportunisticWrites: true})
	const base, lines = 0, 16
	reg, err := NewRegion(base, lines, 3) // gap move every 3 writes
	if err != nil {
		t.Fatal(err)
	}
	wear := pcm.NewWearTracker()
	rm := NewRemapper(ctrl, reg, 64, ctrl.Snoop)

	rng := rand.New(rand.NewSource(5))
	golden := map[pcm.LineAddr]byte{}
	n := 0
	var step func()
	step = func() {
		if n >= 2000 {
			ctrl.WhenIdle(func() {})
			return
		}
		n++
		// Hammer a skewed distribution, including one very hot line.
		var addr pcm.LineAddr
		if rng.Intn(2) == 0 {
			addr = base + 3
		} else {
			addr = base + pcm.LineAddr(rng.Intn(lines))
		}
		if rng.Intn(3) != 0 {
			v := byte(rng.Intn(256))
			data := make([]byte, 64)
			data[0] = v
			if rm.SubmitWrite(addr, data, nil) {
				golden[addr] = v
				wear.Record(reg.Translate(addr), 1)
			}
		} else if want, ok := golden[addr]; ok {
			rm.SubmitRead(addr, func(_ units.Time, got []byte) {
				if got[0] != want {
					t.Errorf("op %d: read %d at logical %d, want %d", n, got[0], addr, want)
				}
			})
		}
		eng.After(units.Duration(rng.Intn(300))*units.Nanosecond, step)
	}
	eng.At(0, step)
	eng.Run()

	st := rm.Stats()
	if st.GapMoves == 0 {
		t.Fatal("no gap moves happened")
	}
	// Wear spreading: without leveling, the hot line would take ~50% of
	// all writes on one slot; with it, the hottest physical slot must
	// hold well under that.
	sum := wear.Summary()
	hotShare := float64(sum.MaxLineWear) / float64(sum.TotalBitWrites)
	if hotShare > 0.25 {
		t.Errorf("hottest slot has %.0f%% of writes; leveling ineffective", hotShare*100)
	}
	if sum.TouchedLines < lines {
		t.Errorf("only %d physical slots ever written; want at least %d", sum.TouchedLines, lines)
	}
}

// TestRemapperPendingCopyVisible: a read issued while the gap-move copy
// is still buffered must see the moved line's data.
func TestRemapperPendingCopyVisible(t *testing.T) {
	eng := &sim.Engine{}
	dev := pcm.MustNewDevice(pcm.DefaultParams())
	// No opportunistic writes and a queue far from full: copies stay
	// buffered.
	ctrl := memctrl.New(eng, dev, schemes.NewDCW, memctrl.Config{})
	reg, _ := NewRegion(0, 4, 1) // move on every write
	rm := NewRemapper(ctrl, reg, 64, ctrl.Snoop)

	data := make([]byte, 64)
	data[0] = 0x77
	checked := false
	eng.At(0, func() {
		if !rm.SubmitWrite(0, data, nil) {
			t.Fatal("write rejected")
		}
		// The write triggered a gap move of some line; whatever logical
		// line we just wrote must still read back 0x77.
		rm.SubmitRead(0, func(_ units.Time, got []byte) {
			checked = true
			if got[0] != 0x77 {
				t.Errorf("read %#x after remap, want 0x77", got[0])
			}
		})
		ctrl.WhenIdle(func() {})
	})
	eng.Run()
	if !checked {
		t.Fatal("read never completed")
	}
}

func TestRegionAndRemapperSmallAPIs(t *testing.T) {
	sg, _ := NewStartGap(8, 10)
	if sg.PhysicalSlots() != 9 {
		t.Errorf("PhysicalSlots = %d, want 9", sg.PhysicalSlots())
	}
	if _, err := NewRegion(0, 0, 10); err == nil {
		t.Error("zero-line region accepted")
	}

	// Remapper pass-through APIs.
	eng := &sim.Engine{}
	dev := pcm.MustNewDevice(pcm.DefaultParams())
	ctrl := memctrl.New(eng, dev, schemes.NewDCW, memctrl.Config{OpportunisticWrites: true})
	reg, _ := NewRegion(0, 4, 100)
	rm := NewRemapper(ctrl, reg, 64, ctrl.Snoop)
	woken := false
	eng.At(0, func() {
		rm.WhenWriteSpace(func() { woken = true })
		// A read of an untouched line goes straight through.
		rm.SubmitRead(2, func(_ units.Time, got []byte) {
			for _, b := range got {
				if b != 0 {
					t.Error("untouched line read nonzero")
				}
			}
		})
	})
	eng.Run()
	if !woken {
		t.Error("WhenWriteSpace never forwarded")
	}
	if rm.Stats().Reads != 1 {
		t.Errorf("Reads = %d", rm.Stats().Reads)
	}
}

// TestRemapperBufferedCopyUnderFullQueue forces drainPending's retry
// path: the controller write queue is saturated so gap-move copies stay
// buffered and drain later via WhenWriteSpace.
func TestRemapperBufferedCopyUnderFullQueue(t *testing.T) {
	eng := &sim.Engine{}
	dev := pcm.MustNewDevice(pcm.DefaultParams())
	// Drain-only controller whose write queue is one short of full with
	// writes to bank 0, outside the region: the next write fills it, and
	// from then on bank 0 retires one write per DCW service time, so a
	// gap-move copy that lands behind a bank-0 write is rejected.
	ctrl := memctrl.New(eng, dev, schemes.NewDCW, memctrl.Config{})
	reg, _ := NewRegion(0, 8, 1) // gap move on every write
	rm := NewRemapper(ctrl, reg, 64, ctrl.Snoop)
	data := make([]byte, 64)
	writes := 0
	retried := false
	var step func()
	step = func() {
		if writes >= 12 {
			ctrl.WhenIdle(func() {})
			return
		}
		data[0] = byte(writes)
		if rm.SubmitWrite(pcm.LineAddr(writes%8), data, nil) {
			writes++
		}
		retried = retried || rm.retrying
		eng.After(100*units.Nanosecond, step)
	}
	eng.At(0, func() {
		for i := 0; i < memctrl.WriteQueue-1; i++ {
			ctrl.SubmitWrite(pcm.LineAddr(64+8*i), data, nil)
		}
		step()
	})
	eng.Run()
	st := rm.Stats()
	if st.GapMoves == 0 {
		t.Fatal("no gap moves")
	}
	if !retried {
		t.Fatal("no gap-move copy was ever rejected and retried")
	}
	if st.CopyBytes == 0 {
		t.Fatal("no copies ever drained")
	}
}
