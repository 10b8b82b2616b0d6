package cache

import (
	"math/rand"
	"testing"

	"tetriswrite/internal/memctrl"
	"tetriswrite/internal/pcm"
	"tetriswrite/internal/schemes"
	"tetriswrite/internal/sim"
	"tetriswrite/internal/units"
)

func cpuClock() units.Clock { return units.NewClock(2e9) }

// tinyLevels is a deliberately small hierarchy so tests can force
// evictions quickly: L1 4 lines direct... 2-way, L2 16 lines 4-way.
func tinyLevels() []LevelConfig {
	return []LevelConfig{
		{Name: "L1", SizeBytes: 4 * 64, LineBytes: 64, Ways: 2, Latency: cpuClock().Cycles(2)},
		{Name: "L2", SizeBytes: 16 * 64, LineBytes: 64, Ways: 4, Latency: cpuClock().Cycles(20)},
	}
}

func testHierarchy(t *testing.T, cfgs []LevelConfig) (*sim.Engine, *Hierarchy, *memctrl.Controller, *pcm.Device) {
	t.Helper()
	eng := &sim.Engine{}
	dev := pcm.MustNewDevice(pcm.DefaultParams())
	ctrl := memctrl.New(eng, dev, schemes.NewDCW, memctrl.Config{OpportunisticWrites: true})
	h, err := New(eng, ctrl, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	return eng, h, ctrl, dev
}

func TestLevelConfigValidate(t *testing.T) {
	good := LevelConfig{Name: "L1", SizeBytes: 32 << 10, LineBytes: 64, Ways: 8}
	if err := good.Validate(); err != nil {
		t.Error(err)
	}
	bad := good
	bad.SizeBytes = 100
	if err := bad.Validate(); err == nil {
		t.Error("indivisible size accepted")
	}
	bad = good
	bad.Ways = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero ways accepted")
	}
}

func TestReadYourWrite(t *testing.T) {
	eng, h, _, _ := testHierarchy(t, tinyLevels())
	data := make([]byte, 64)
	data[0] = 0x5A
	var got []byte
	eng.At(0, func() {
		h.SubmitWrite(3, data, nil)
		h.SubmitRead(3, func(_ units.Time, d []byte) { got = append([]byte(nil), d...) })
	})
	eng.Run()
	if got == nil || got[0] != 0x5A {
		t.Fatal("read did not observe the preceding write")
	}
	st := h.LevelStats()
	if st[0].Hits != 1 {
		t.Errorf("L1 hits = %d, want 1", st[0].Hits)
	}
}

func TestHitLatencies(t *testing.T) {
	eng, h, _, dev := testHierarchy(t, tinyLevels())
	line := make([]byte, 64)
	line[1] = 7
	dev.Preload(9, line)
	var missAt, hitAt units.Time
	eng.At(0, func() {
		h.SubmitRead(9, func(at units.Time, _ []byte) {
			missAt = at
			h.SubmitRead(9, func(at2 units.Time, _ []byte) { hitAt = at2 })
		})
	})
	eng.Run()
	// Miss: L1 (1ns) + L2 (10ns) + memory 50ns = 61ns.
	if want := units.Time(61 * units.Nanosecond); missAt != want {
		t.Errorf("miss completed at %v, want %v", missAt, want)
	}
	// Hit: L1 latency only (2 cycles = 1ns) after the miss completion.
	if want := missAt.Add(cpuClock().Cycles(2)); hitAt != want {
		t.Errorf("hit completed at %v, want %v", hitAt, want)
	}
}

func TestDirtyEvictionCascades(t *testing.T) {
	eng, h, ctrl, dev := testHierarchy(t, tinyLevels())
	// Write 40 distinct lines mapping across sets: far beyond L1 (4) and
	// L2 (16) capacity, forcing dirty victims all the way to memory.
	eng.At(0, func() {
		for i := 0; i < 40; i++ {
			data := make([]byte, 64)
			data[0] = byte(i)
			h.SubmitWrite(pcm.LineAddr(i), data, nil)
		}
		ctrl.WhenIdle(func() {})
	})
	eng.Run()
	st := h.LevelStats()
	if st[0].WriteBacks == 0 || st[1].WriteBacks == 0 {
		t.Fatalf("no write-backs cascaded: %+v", st)
	}
	if ctrl.Stats().Writes == 0 {
		t.Fatal("no write-backs reached the controller")
	}
	// Flush the rest and verify every line's final value in PCM.
	h.Flush(func(addr pcm.LineAddr, data []byte) { dev.Preload(addr, data) })
	buf := make([]byte, 64)
	for i := 0; i < 40; i++ {
		dev.PeekLine(pcm.LineAddr(i), buf)
		if buf[0] != byte(i) {
			t.Fatalf("line %d final value %d in PCM", i, buf[0])
		}
	}
}

func TestLRUOrder(t *testing.T) {
	// Two-way set: touch A, B, then A again; inserting C must evict B.
	l, err := newLevel(LevelConfig{Name: "t", SizeBytes: 2 * 64, LineBytes: 64, Ways: 2})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(v byte) []byte { d := make([]byte, 64); d[0] = v; return d }
	l.insert(0, mk(1), false) // A (set 0)
	l.insert(0+pcm.LineAddr(l.nsets), mk(2), false)
	if _, ok := l.lookup(0); !ok {
		t.Fatal("A missing")
	}
	vAddr, _, _, evicted := l.insert(0+pcm.LineAddr(2*l.nsets), mk(3), false)
	if !evicted {
		t.Fatal("no eviction from full set")
	}
	if vAddr != pcm.LineAddr(l.nsets) {
		t.Errorf("evicted %d, want B (LRU) at %d", vAddr, l.nsets)
	}
}

// TestRandomConsistency drives random traffic through the hierarchy and
// checks, via a golden model, that reads always observe the latest write
// and that the flushed PCM image matches at the end.
func TestRandomConsistency(t *testing.T) {
	eng, h, ctrl, dev := testHierarchy(t, tinyLevels())
	rng := rand.New(rand.NewSource(77))
	golden := map[pcm.LineAddr]byte{}
	pendingReads := 0
	n := 0
	var step func()
	step = func() {
		if n >= 3000 {
			ctrl.WhenIdle(func() {})
			return
		}
		n++
		addr := pcm.LineAddr(rng.Intn(64))
		if rng.Intn(2) == 0 {
			v := byte(rng.Intn(256))
			data := make([]byte, 64)
			data[0] = v
			if h.SubmitWrite(addr, data, nil) {
				golden[addr] = v
				eng.After(units.Duration(rng.Intn(100))*units.Nanosecond, step)
			} else {
				h.WhenWriteSpace(step)
			}
			return
		}
		want, ok := golden[addr]
		if !ok {
			eng.After(1*units.Nanosecond, step)
			return
		}
		pendingReads++
		issued := h.SubmitRead(addr, func(_ units.Time, d []byte) {
			pendingReads--
			if d[0] != want {
				t.Errorf("read %d: got %d, want %d at addr %d", n, d[0], want, addr)
			}
			step()
		})
		if !issued {
			pendingReads--
			eng.After(100*units.Nanosecond, step)
		}
	}
	eng.At(0, step)
	eng.Run()
	if pendingReads != 0 {
		t.Errorf("%d reads never completed", pendingReads)
	}
	// Final image: flush and compare everything.
	h.Flush(func(addr pcm.LineAddr, data []byte) { dev.Preload(addr, data) })
	buf := make([]byte, 64)
	for addr, v := range golden {
		dev.PeekLine(addr, buf)
		if buf[0] != v {
			t.Errorf("PCM image: addr %d = %d, want %d", addr, buf[0], v)
		}
	}
	// Sanity: the tiny cache must have produced real traffic patterns.
	st := h.LevelStats()
	if st[0].Hits == 0 || st[0].Misses == 0 {
		t.Errorf("degenerate cache behaviour: %+v", st)
	}
	if st[0].HitRate() <= 0 || st[0].HitRate() >= 1 {
		t.Errorf("L1 hit rate %v", st[0].HitRate())
	}
}

// TestSequentialReadsAreConsistent: a read after a read (cached) returns
// identical data.
func TestRepeatReadStable(t *testing.T) {
	eng, h, _, dev := testHierarchy(t, tinyLevels())
	line := make([]byte, 64)
	for i := range line {
		line[i] = byte(i)
	}
	dev.Preload(31, line)
	var first, second []byte
	eng.At(0, func() {
		h.SubmitRead(31, func(_ units.Time, d []byte) {
			first = append([]byte(nil), d...)
			h.SubmitRead(31, func(_ units.Time, d2 []byte) { second = append([]byte(nil), d2...) })
		})
	})
	eng.Run()
	for i := range first {
		if first[i] != second[i] || first[i] != byte(i) {
			t.Fatal("repeat read returned different data")
		}
	}
}

func TestDefaultLevels(t *testing.T) {
	cfgs := DefaultLevels(cpuClock())
	if len(cfgs) != 3 {
		t.Fatalf("want 3 levels")
	}
	wantSizes := []int{32 << 10, 2 << 20, 32 << 20}
	wantLat := []units.Duration{cpuClock().Cycles(2), cpuClock().Cycles(20), cpuClock().Cycles(50)}
	for i, c := range cfgs {
		if err := c.Validate(); err != nil {
			t.Errorf("level %d invalid: %v", i, err)
		}
		if c.SizeBytes != wantSizes[i] || c.Latency != wantLat[i] {
			t.Errorf("level %d = %+v", i, c)
		}
	}
}

func TestNewRejectsBadConfigs(t *testing.T) {
	eng := &sim.Engine{}
	if _, err := New(eng, nil, nil); err == nil {
		t.Error("empty hierarchy accepted")
	}
	if _, err := New(eng, nil, []LevelConfig{{Name: "x"}}); err == nil {
		t.Error("invalid level accepted")
	}
}

// TestCapacityNeverExceeded: no set ever holds more than Ways lines,
// regardless of traffic.
func TestCapacityNeverExceeded(t *testing.T) {
	eng, h, ctrl, _ := testHierarchy(t, tinyLevels())
	rng := rand.New(rand.NewSource(4))
	n := 0
	var step func()
	step = func() {
		if n >= 1000 {
			ctrl.WhenIdle(func() {})
			return
		}
		n++
		addr := pcm.LineAddr(rng.Intn(128))
		if rng.Intn(2) == 0 {
			h.SubmitWrite(addr, make([]byte, 64), nil)
		} else {
			h.SubmitRead(addr, func(units.Time, []byte) {})
		}
		for _, l := range h.levels {
			for si := range l.used { // empty until the level's first insert
				if int(l.used[si]) > l.cfg.Ways {
					t.Fatalf("%s set %d holds %d lines, ways=%d", l.cfg.Name, si, l.used[si], l.cfg.Ways)
				}
			}
		}
		eng.After(units.Duration(rng.Intn(200))*units.Nanosecond, step)
	}
	eng.At(0, step)
	eng.Run()
}

// Levels allocate their arrays on first insert: a fresh hierarchy holds
// none, lookups on an empty level miss, and a miss fills every level.
func TestLevelsAllocateOnFirstInsert(t *testing.T) {
	eng, h, _, _ := testHierarchy(t, tinyLevels())
	for _, l := range h.levels {
		if !l.empty() || l.chunks != nil || l.dirty != nil || l.held != 0 {
			t.Fatalf("%s allocated before any access", l.cfg.Name)
		}
	}
	eng.At(0, func() { h.SubmitRead(9, func(units.Time, []byte) {}) })
	eng.Run()
	for i, l := range h.levels {
		if l.empty() {
			t.Fatalf("%s still empty after a miss filled it", l.cfg.Name)
		}
		if st := h.LevelStats()[i]; st.Misses != 1 || st.Hits != 0 {
			t.Errorf("%s stats %+v, want one miss", l.cfg.Name, st)
		}
	}
}

// Read hits allocate nothing in steady state: the completion record and
// its line buffer are recycled.
func TestReadHitZeroAllocs(t *testing.T) {
	eng, h, _, _ := testHierarchy(t, tinyLevels())
	data := make([]byte, 64)
	data[1] = 0x77
	eng.At(0, func() { h.SubmitWrite(5, data, nil) })
	eng.Run()
	var got byte
	onDone := func(_ units.Time, d []byte) { got = d[1] }
	read := func() {
		h.SubmitRead(5, onDone)
		eng.Run()
	}
	read()
	if allocs := testing.AllocsPerRun(50, read); allocs != 0 {
		t.Fatalf("read hit allocates %v objects/op, want 0", allocs)
	}
	if got != 0x77 {
		t.Fatalf("hit returned %#x, want 0x77", got)
	}
}

// Payload storage grows with the lines a level has held, one chunk at a
// time, not with its capacity; a level filled past capacity holds
// exactly one slab line per way of every set, and every resident line
// keeps its own payload across chunk boundaries.
func TestPayloadStorageTracksLinesHeld(t *testing.T) {
	eng, h, _, _ := testHierarchy(t, DefaultLevels(cpuClock()))
	const n = 2500
	next := 0
	var read func(units.Time, []byte)
	read = func(units.Time, []byte) {
		if next < n {
			next++
			if !h.SubmitRead(pcm.LineAddr(next), read) {
				t.Fatalf("read %d refused", next)
			}
		}
	}
	eng.At(0, func() { read(0, nil) })
	eng.Run()
	maxChunks := (n + chunkLines - 1) / chunkLines
	for _, l := range h.levels {
		if int(l.held) > n || len(l.chunks) > maxChunks {
			t.Errorf("%s holds %d slab lines in %d chunks after %d misses, want at most %d chunks",
				l.cfg.Name, l.held, len(l.chunks), n, maxChunks)
		}
		if len(l.dirty) != len(l.chunks)*chunkLines {
			t.Errorf("%s: %d dirty bits for %d chunks", l.cfg.Name, len(l.dirty), len(l.chunks))
		}
	}

	for _, c := range []struct{ nsets, ways int }{{2, 2}, {3, 5}, {512, 4}} {
		l, err := newLevel(LevelConfig{Name: "t", SizeBytes: c.nsets * c.ways * 64, LineBytes: 64, Ways: c.ways})
		if err != nil {
			t.Fatal(err)
		}
		lines := c.nsets * c.ways
		last := map[pcm.LineAddr]int{}
		data := make([]byte, 64)
		for a := 0; a < 3*lines; a++ {
			addr := pcm.LineAddr(a * 7)
			data[0], data[63] = byte(a), byte(a>>8)
			l.insert(addr, data, a%2 == 0)
			last[addr] = a
		}
		if int(l.held) != lines || len(l.chunks) != (lines+chunkLines-1)/chunkLines {
			t.Errorf("%dx%d level: %d slab lines in %d chunks, want %d lines", c.nsets, c.ways, l.held, len(l.chunks), lines)
		}
		resident := 0
		for addr, v := range last {
			if li, ok := l.lookup(addr); ok {
				resident++
				if got := l.slotData(li); int(got[0])|int(got[63])<<8 != v {
					t.Fatalf("%dx%d level: line %d payload %d, want %d", c.nsets, c.ways, addr, int(got[0])|int(got[63])<<8, v)
				}
			}
		}
		if resident != lines {
			t.Errorf("%dx%d level: %d lines resident, want %d", c.nsets, c.ways, resident, lines)
		}
	}
}

// Dirty evictions from the last level allocate nothing in steady state,
// whether the controller takes each write-back at once or the
// hierarchy has to buffer and retry it.
func TestDirtyEvictionZeroAllocs(t *testing.T) {
	// A round of 8 stores fits the write queue; a round of
	// 2*WriteQueue overflows it, so the hierarchy buffers write-backs.
	for _, stores := range []int{8, 2 * memctrl.WriteQueue} {
		eng := &sim.Engine{}
		dev := pcm.MustNewDevice(pcm.DefaultParams())
		ctrl := memctrl.New(eng, dev, schemes.NewDCW, memctrl.Config{OpportunisticWrites: true})
		h, err := New(eng, ctrl, tinyLevels())
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, 64)
		next := 0
		round := func() {
			// 64 lines of one bank cycle through set 0 of each level:
			// every store evicts a dirty line from both levels, and the
			// write-backs queue behind one another at the bank.
			for k := 0; k < stores; k++ {
				data[0] = byte(next)
				if !h.SubmitWrite(pcm.LineAddr(next%64*8), data, nil) {
					t.Fatalf("store %d refused", next)
				}
				next++
			}
			eng.Run()
		}
		for i := 0; i < 16; i++ {
			round()
		}
		before := h.LevelStats()[1].WriteBacks
		if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
			t.Errorf("%d stores a round: dirty evictions allocate %v objects per round, want 0", stores, allocs)
		}
		if h.LevelStats()[1].WriteBacks == before {
			t.Fatalf("%d stores a round: no last-level write-backs in the measured rounds", stores)
		}
		if stores > memctrl.WriteQueue && len(h.wbFree) == 0 {
			t.Errorf("%d stores a round: no write-back was ever buffered", stores)
		}
	}
}
